"""Assembly and verification of singular Toda solutions for A/C/B.

A solution is determined by the weights gamma, a positive diagonal matrix
and a unipotent lower-triangular group element C.  With B the product of
the diagonal and C, and H = B^dag B, the unknowns of the ambient A-side
system are

    F_m = leading m x m principal minor of  W^dag H W,   1 <= m <= k-1,

where W is the Wronskian matrix of the holomorphic basis.  By Cauchy-Binet
F_m = sum_R lambda_R^2 |g_R|^2, where g_R is the holomorphic minor of
G = C W on the row set R and the first m columns.  assemble runs that sum
on integers and keeps each F_m in one integer form (UnknownForm), in
lowest terms, which every check and every report reads.  For C/B only the
levels m <= k//2 are built and F_{k-m} is the same object as F_m; each
check reads each distinct form once, with its exponents as the exact ints
L e over a common denominator L (_form_table).  UnknownForm.expr and
SolutionBundle.F, the ZExprs of the F_m, are API only: they are built on
access, and no command reads them.

For the C and B families the first n unknowns carry the reduction back to
the family's own system, with the exact power-of-two normalization for B.
The checks: the symmetry certificate compares every F_m, assembled or
mirrored, with the leading minor of W(y)^t H W(x) at random points mod a
fixed prime p (false-pass bound deg/(p - 1) per trial), so the mirror
symmetry is proved on each solution, and assemble reads it as the one
exact check of every level it builds; the monodromy conditions,
algebraically on C and analytically on F_1; the PDE residual at sample
points, from float plans of the distinct forms summed by exact._float_sum
over one exact._power_table per point, which alone applies the origin and
branch-cut rules (a value out of float range makes its residual NaN,
which fails); the integrability exponents at 0 and infinity; and the
Cauchy-Euler characteristic data of the family, read from the indicial
polynomial on Fractions.  The JSON records of F_1 are written from its
form (jsonio.form_to_json).

Every check reads the bundle alone (verify_pde also its points and tol),
and the bundle holds each value once: H is derived from lambdas and C on
first read, and the certificate from the bundle on first read; nu is
wronskian.nu, and the reduced unknowns are reduced_unknowns(config).  So a
bundle changed in one field is checked as that bundle.  No function here
has a default argument.
verify runs the checks on an assembled bundle and decides the verdict:
one CheckRow per check, in a fixed order per family, with its detail and
witness text.  It is the only place that does, so a library caller and
toda verify, which only formats the rows, get the same verdict.
"""

from __future__ import annotations

import cmath
import random
from fractions import Fraction
from functools import cached_property
from itertools import combinations, islice
from math import factorial, gcd, lcm, nan, prod
from operator import mul
from typing import Sequence

from .basis import StructureError, WronskianMatrix, nu_vector, wronskian
from .config import TodaConfig
from .exact import (
    ExactScalar,
    Monomial,
    Record,
    ZExpr,
    _NONFINITE,
    _float_sum,
    _power_table,
    as_fraction,
    format_fraction,
    scalar_over,
    scale_to_ints,
)
from .groups import (
    GroupElement,
    UnipotentCoords,
    paired_diagonal,
    scale_rows,
    unipotent_from_coords,
)
from .lie import Algebra, MonodromyElement, cartan, slot_name
from .linalg import leading_minors

__all__ = [
    "SolutionParams",
    "SolutionBundle",
    "UnknownForm",
    "ReducedUnknown",
    "CharacteristicData",
    "default_lambdas",
    "full_lambda",
    "reduced_unknowns",
    "assemble",
    "verify_symmetry",
    "verify_monodromy",
    "characteristic_data",
    "verify_pde",
    "verify_integrability",
    "a_case_form",
    "annulus_points",
    "verify",
]


class SolutionParams(Record):
    """assemble's input, which no bundle keeps: weights (the free half for C/B, all k for A), coordinates."""

    lambdas: tuple[Fraction, ...]
    coords: UnipotentCoords

    @staticmethod
    def of(lambdas: Sequence, coords: UnipotentCoords) -> SolutionParams:
        lams = tuple(as_fraction(x) for x in lambdas)
        if any(x <= 0 for x in lams):
            raise ValueError("diagonal weights must be positive")
        return SolutionParams(lams, coords)


def full_lambda(config: TodaConfig, params: SolutionParams) -> tuple[Fraction, ...]:
    """Extend the supplied weights to all k diagonal entries.

    For C and B the entries pair as lambda_i * lambda_{k-1-i} = 1 (middle
    entry 1 for odd k); for A all k entries are supplied directly.
    """
    lams = params.lambdas
    k = config.k
    if config.family == "A":
        if len(lams) != k:
            raise ValueError(f"family A needs {k} diagonal weights, got {len(lams)}")
        return lams
    n = k // 2
    if k % 2 == 1 and len(lams) == n + 1:
        if lams[-1] != 1:
            raise ValueError("middle diagonal weight must be 1")
        lams = lams[:-1]
    if len(lams) != n:
        raise ValueError(f"{config.algebra} needs {n} free diagonal weights, got {len(lams)}")
    return paired_diagonal(lams, k)


def default_lambdas(config: TodaConfig) -> list[Fraction]:
    """All-ones weights: k of them for A, the free k//2 for C and B."""
    return [Fraction(1)] * (config.k if config.family == "A" else config.k // 2)


class ReducedUnknown(Record):
    """Family unknown U_index through e^(-U) = (multiplier * F_index)^power.

    ``value_from`` turns an already evaluated value of F_index into e^(-U):
    it scales the real part by the multiplier and raises it to the power.
    A non-positive scaled value has no real power and gives NaN, which fails
    the PDE check that reads it.
    """

    index: int
    multiplier: Fraction
    power: Fraction
    ln2_coefficient: Fraction

    def value_from(self, f_value: complex) -> float:
        scaled = float(self.multiplier) * f_value.real
        if scaled <= 0:
            return nan
        return scaled ** float(self.power)


class UnknownForm(Record):
    """One unknown F_m in integer form, in lowest terms.

    ``exponents`` are distinct; each entry (i, j, re, im) of ``entries`` is
    the nonzero term ((re + i*im) / den) z^(e_i) zb^(e_j).  Construction
    sorts the exponents ascending (renumbering the entries) and the entries
    by (i, j), the term order of the ZExpr, each only when out of order, and
    divides den, re and im by their gcd; so forms are equal (and hash the
    same) iff their unknowns are, in whatever order they were listed.  The
    JSON term order (jsonio.form_to_json) reads that order; the checks read
    the exponents as exact ints (_form_table), on any grid, and assume no
    nonzero diagonal entry.
    Construction raises ValueError, naming the entry or the exponent, on a
    form that a check would misread: one with no entries (F_m is never
    zero, H being positive definite), with a denominator that is not
    positive, with an entry whose i or j is not an index into
    ``exponents``, whose coefficient is zero (monodromy would read it as a
    term of F_1) or whose (i, j) repeats an earlier one (equality would
    fail on a split entry), or with an exponent that is repeated or that no
    entry reads (w-symmetry would test it as an exponent of F_1).
    """

    exponents: tuple[Fraction, ...]
    entries: tuple[tuple[int, int, int, int], ...]
    den: int

    def __post_init__(self):
        if not self.entries:
            raise ValueError("an unknown form needs at least one entry: F_m is never zero")
        if self.den <= 0:
            raise ValueError(f"an unknown form needs a positive denominator, got {self.den}")
        n = len(self.exponents)
        if len(set(self.exponents)) != n:
            repeated = next(e for p, e in enumerate(self.exponents) if e in self.exponents[:p])
            raise ValueError(f"exponent {repeated} of an unknown form is repeated")
        seen, read = bytearray(n * n), [False] * n
        for entry in self.entries:
            i, j, re, im = entry
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"entry {entry} of an unknown form has an index outside its {n} exponents")
            if not (re or im):
                raise ValueError(f"entry {entry} of an unknown form has a zero coefficient")
            if seen[i * n + j]:
                raise ValueError(f"entry {entry} of an unknown form repeats the pair {(i, j)}")
            seen[i * n + j] = 1
            read[i] = read[j] = True
        if not all(read):
            unread = self.exponents[read.index(False)]
            raise ValueError(f"exponent {unread} of an unknown form is read by no entry")
        exps, entries = self.exponents, self.entries
        if any(a > b for a, b in zip(exps, exps[1:])):
            order = sorted(range(n), key=exps.__getitem__)
            new = {i: p for p, i in enumerate(order)}
            entries = tuple((new[i], new[j], re, im) for i, j, re, im in entries)
            object.__setattr__(self, "exponents", tuple(exps[i] for i in order))
        if any(a[:2] > b[:2] for a, b in zip(entries, entries[1:])):
            entries = tuple(sorted(entries))
        g = gcd(self.den, *(x for _, _, re, im in entries for x in (re, im)))
        if g > 1:
            entries = tuple((i, j, re // g, im // g) for i, j, re, im in entries)
            object.__setattr__(self, "den", self.den // g)
        object.__setattr__(self, "entries", entries)

    @cached_property
    def expr(self) -> ZExpr:
        """F_m as a ZExpr, built on first access; API only, no command reads it."""
        e, den = self.exponents, self.den
        return ZExpr.from_terms(
            Monomial(ExactScalar(Fraction(re, den), Fraction(im, den)), e[i], e[j])
            for i, j, re, im in self.entries
        )


class SolutionBundle(Record):
    """A solution: Wronskian, unknowns F_1..F_{k-1}, Lambda's k weights, C; H and certificate derived."""

    config: TodaConfig
    wronskian: WronskianMatrix
    forms: tuple[UnknownForm, ...]
    C: GroupElement
    lambdas: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.forms) != self.config.k - 1:
            raise ValueError(
                f"a bundle of {self.config.algebra} needs k - 1 = {self.config.k - 1} unknowns,"
                f" got {len(self.forms)}"
            )

    @property
    def k(self) -> int:
        return self.config.k

    @cached_property
    def H(self) -> GroupElement:
        """H = B^dag B, B = Lambda C, built on first read; a copy or a pickle builds its own."""
        b = scale_rows(self.lambdas, self.C)
        return b.conj_transpose() @ b

    @cached_property
    def certificate(self) -> SymmetryReport:
        """verify_symmetry(self), computed on first read; a copy or a pickle computes its own."""
        return verify_symmetry(self)

    @cached_property
    def F(self) -> tuple[ZExpr, ...]:
        """The unknowns F_1..F_{k-1} as ZExprs, built on first access; API only."""
        return tuple(form.expr for form in self.forms)


def assemble(config: TodaConfig, params: SolutionParams) -> SolutionBundle:
    """Build the exact unknowns F_1..F_{k-1} from (gamma, diagonal, C).

    Each F_m is the leading principal minor of W^dag H W.  With H = B^dag B
    and B = Lambda C, Cauchy-Binet turns it into sum_R lambda_R^2 |g_R|^2,
    where g_R is the holomorphic minor of G = C W on the m rows R and the
    first m columns.

    The sums run on integers: G is built once as columns of term lists
    (_holomorphic_matrix), its minors g_R are built one level m at a time,
    each level from the one before, which is then dropped (_prefix_minors),
    and lambda_r^2 = l_r / Lambda.  F_m is accumulated as a Hermitian integer
    matrix over pairs of interned exponents (_unknown_matrix) with the
    single denominator s_m^2 Lambda^m, s_m the scale of the level-m minors
    of G, and kept as an UnknownForm, in lowest terms.  For C and B only
    the levels m <= k//2 are built: the level generator stops there, and
    F_{k-m} is the same form object as F_m, the mirror symmetry of the
    paper (C in Sp/SO, palindromic basis).  The A family builds every level.
    A built level that fails the bundle's certificate (computed here, with
    H) raises StructureError naming its m, an internal error; the mirrored
    levels are the verdict of verify's symmetry row, so a C outside Sp/SO
    fails a row.  No ZExpr is built here: they are built when bundle.F is
    read.
    """
    w = wronskian(nu_vector(config))
    c = unipotent_from_coords(config.algebra, params.coords)
    lams = full_lambda(config, params)
    g, scales = _holomorphic_matrix(w, c)
    lam_den, lam_num = scale_to_ints([x * x for x in lams])
    k = config.k
    built = k - 1 if config.family == "A" else k // 2
    forms = []
    for m, level in enumerate(islice(_prefix_minors(g), built), start=1):
        exps, re, im = _unknown_matrix(level, lam_num)
        n, shift = len(exps), w.den * m * (m - 1) // 2
        exponents = tuple(Fraction(e - shift, w.den) for e in exps)
        entries = tuple(
            (i, j, re[i][j], im[i][j]) for i in range(n) for j in range(n) if re[i][j] or im[i][j]
        )
        forms.append(UnknownForm(exponents, entries, scales[m] ** 2 * lam_den**m))
    forms += [forms[k - m - 1] for m in range(built + 1, k)]
    bundle = SolutionBundle(config, w, tuple(forms), c, lams)
    wrong = [m for m in bundle.certificate.failures if m <= built]
    if wrong:
        raise StructureError(f"assembled F_m fails the certificate at m = {', '.join(map(str, wrong))}")
    return bundle


def _holomorphic_matrix(w: WronskianMatrix, c: GroupElement):
    """(G, scales): the columns of G = C W in integer form, and the scales of its prefix minors.

    With beta_s = b_s / B (b_s = w.exps[s], B = w.den), column j of the
    integer form of W holds w.cols[j][s] = D_j chi_s (beta_s)_j.  Column j
    of G, for j < k-1, is a list over the rows r of the terms (b_s, re, im)
    of sum_{s <= r} (dC)[r, s] D_j chi_s (beta_s)_j z^(b_s), one per nonzero
    product: the b_s are distinct, so no two terms of an entry share an
    exponent.  For |R| = m the minor of G on the rows R and the columns
    0..m-1 (_prefix_minors) is scales[m] g_R, with
    scales[m] = d^m D_0 ... D_{m-1}, and every exponent raised by
    B m(m-1)/2.
    """
    k, d = w.k, c.den
    g = [
        [
            [(b, x * a, y * a) for x, y, a, b in zip(re, im, col, w.exps) if (x or y) and a]
            for re, im in zip(c.re, c.im)
        ]
        for col in w.cols[: k - 1]
    ]
    scales = [d**m * prod(w.col_dens[:m]) for m in range(k)]
    return g, scales


def _prefix_minors(g: Sequence[Sequence[list]]):
    """Yield the prefix minors of the k x (k-1) matrix with the columns g, one level at a time.

    Level m, for m = 1..k-1, is a dict from each m-row set R (a sorted
    tuple, in itertools.combinations order) to the minor on the rows R
    and the columns 0..m-1, itself a dict from each exponent to its nonzero
    coefficient (re, im): the Laplace expansion along column m-1 over level
    m-1, skipping zero entries.  Each minor is accumulated in one dict,
    straight from the products of the terms of g[m-1][r] and of the
    lower-level minor, with the sign of the expansion folded into the
    column's coefficients.  Only the level being read and the one being
    built are held: the previous level is dropped once the next is built.
    """
    k = len(g) + 1
    level = {(): {0: (1, 0)}}
    for m, col in enumerate(g, start=1):
        # Column m-1 with the opposite sign.
        neg = [[(e, -a, -b) for e, a, b in terms] for terms in col]
        next_level = {}
        for rows in combinations(range(k), m):
            acc: dict[int, tuple[int, int]] = {}
            negate = m % 2 == 0  # sign (-1)^(p + m - 1) at row position p
            for p, r in enumerate(rows):
                terms = neg[r] if negate else col[r]
                negate = not negate
                if not terms:
                    continue
                lower = level[rows[:p] + rows[p + 1:]].items()
                for e, a, b in terms:
                    for f, (c, d) in lower:
                        key = e + f
                        cur = acc.get(key)
                        if cur is None:
                            acc[key] = (a * c - b * d, a * d + b * c)
                        else:
                            acc[key] = (cur[0] + a * c - b * d, cur[1] + a * d + b * c)
            next_level[rows] = {e: v for e, v in acc.items() if v[0] or v[1]}
        level = next_level
        yield level


def _unknown_matrix(level: dict, lam_num: Sequence[int]):
    """The integer matrix of F_m: (exponents, re, im).

    level maps each m-row set R to the minor G_R (see _prefix_minors);
    the int exponents of all of them are interned as indices into the sorted
    distinct ``exponents``.  Entry (i, j) of the matrix re + i*im is
    sum_R (prod_{r in R} l_r) G_R[i] conj(G_R[j]): it is accumulated for
    i <= j only and mirrored, since the matrix is Hermitian by construction.
    """
    exps = sorted(set().union(*level.values()))
    index = {e: i for i, e in enumerate(exps)}
    n = len(exps)
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for rows, g in level.items():
        weight = prod(lam_num[r] for r in rows)
        entries = [(index[e], *g[e]) for e in sorted(g)]
        for p, (i, ar, ai) in enumerate(entries):
            ar, ai = ar * weight, ai * weight
            re_i, im_i = re[i], im[i]
            for j, br, bi in entries[p:]:
                # (ar + i ai) * conj(br + i bi)
                re_i[j] += ar * br + ai * bi
                im_i[j] += ai * br - ar * bi
    for i in range(n):
        for j in range(i):
            re[i][j], im[i][j] = re[j][i], -im[j][i]
    return exps, re, im


def reduced_unknowns(config: TodaConfig) -> tuple[ReducedUnknown, ...] | None:
    """The family unknowns U_1..U_n of a C or B configuration; None for A.

    For C, e^(-U_i) = F_i.  For B, e^(-U_i) = (2^i F_i)^(1/dup) with dup = 2
    for i = n, else 1, so the ln 2 coefficient of U_i is i / dup.
    """
    if config.family == "A":
        return None
    n = config.rank
    out = []
    for i in range(1, n + 1):
        if config.family == "C":
            out.append(ReducedUnknown(i, Fraction(1), Fraction(1), Fraction(0)))
        else:
            dup = 2 if i == n else 1
            out.append(ReducedUnknown(i, Fraction(2) ** i, Fraction(1, dup), Fraction(i, dup)))
    return tuple(out)


def _form_table(bundle: SolutionBundle) -> tuple[list[UnknownForm], list[int], int, list[list[int]]]:
    """(distinct, slots, L, exps): each form once, with its exponents as exact ints.

    forms[m] is distinct[slots[m]]: assemble makes the mirror F_(k-m) of C/B
    the object F_m, so an assembled C/B bundle has k//2 distinct forms and
    an A bundle k - 1.  L (lcd) is the lcm of B = w.den and of every exponent
    denominator, and exps[d][i] = L e_i exactly, for any form; on assemble's
    grid (1/B)Z, L = B.  No other code here turns exponents into ints.
    """
    forms = bundle.forms
    index: dict[int, int] = {}
    slots = [index.setdefault(id(form), len(index)) for form in forms]
    distinct = list({id(form): form for form in forms}.values())
    lcd = lcm(bundle.wronskian.den, *(e.denominator for form in distinct for e in form.exponents))
    exps = [[e.numerator * (lcd // e.denominator) for e in form.exponents] for form in distinct]
    return distinct, slots, lcd, exps


class SymmetryReport(Record):
    passed: bool
    failures: tuple[int, ...]


# The certificate's field Z/p: p is the first prime = 1 (mod 4) above 2^61,
# and _I_P is a square root of -1 mod p, the image of the imaginary unit.
_P = 2305843009213693973
_I_P = 1035093963448091331
_TRIALS = 2
_SEED = 0
# Point pairs drawn at most; each one with a zero leading minor is skipped.
_DRAWS = 64


def verify_symmetry(bundle: SolutionBundle) -> SymmetryReport:
    """Certify every F_m against its definition, mod a prime, at random points.

    The symmetry F_{k-m} = F_m of C/B is what assemble relies on to build
    only the levels m <= k//2; here each form, assembled or mirrored, is
    compared with the leading m x m minor of W^dag H W, so the symmetry is
    proved on this solution, not assumed.  On an A bundle, which has no
    mirror symmetry, it certifies the forms as built.  Level m = 1 is the
    identity F_1 = nu^dag H nu.  assemble and verify read this report as
    bundle.certificate.
    With z = x^L and zb = y^L (L from _form_table: a multiple of
    B = w.den, the lcm of the beta denominators, and of every exponent
    denominator of the forms), x and y independent, F_m(x, y) is the
    leading minor of
    P(x, y) = W(y)^t H W(x), W cut to its first k-1 columns.  A trial draws
    a nonzero pair (x, y) mod p from a fixed-seed random.Random, so the
    report is deterministic.
    It maps the integer form of W (each column j over its denominator
    D_j = w.col_dens[j]) and that of H, (d, rows), to Z/p, forms the
    (k-1) x (k-1) matrix Q = (W(y) D)^t (d H) (W(x) D), D = diag(D_j), and
    gets every leading minor of Q from one fraction-free elimination mod p
    (linalg.leading_minors).  A zero leading minor skips the pair for the
    next one of the same stream; it is never an exception and never a
    pass, and if fewer than _TRIALS of the _DRAWS pairs are kept, every m
    fails, whatever the kept pairs gave.
    Each distinct form is evaluated once per trial, on the int exponents
    L e of the table (_form_value), from one table of the powers of x and
    of y over all their exponents (_powers), with each coefficient
    re + i_p im formed once per call.  F_m passes a trial when
    den_m * minor_m(Q) = d^m (D_0 ... D_(m-1))^2 * num_m(x, y) mod p, its
    form being num_m / den_m; ``failures`` lists every m that fails a trial.

    Range rule: every exponent of the true F_m is a sum of m distinct beta_s
    less m(m-1)/2, so it lies in
    [sum_(s<m) beta_s, sum_(s>=k-m) beta_s] - m(m-1)/2 (the beta increase).
    A level whose form has an exponent outside that interval fails, whatever
    the trials give: without the rule, an exponent moved by (p - 1)/L gives
    the same value at every x != 0 (Fermat), so the trials pass it.

    False-pass bound (Schwartz-Zippel): for a wrong form, the two sides
    differ by a Laurent polynomial in (x, y); cleared of negative powers it
    has some total degree deg_m, at most 2 m L (beta_(k-1) - beta_0), since
    the range rule keeps the form's exponents in the range of the true F_m.
    Unless every coefficient of that difference vanishes mod p, one trial
    passes it with probability at most deg_m / (p - 1), about
    deg_m * 4.3e-19, and the _TRIALS = 2 independent trials with the square
    of that.
    """
    k, forms = bundle.k, bundle.forms
    w, h = bundle.wronskian, bundle.H
    hp = [[(x + y * _I_P) % _P for x, y in zip(re, im)] for re, im in zip(h.re, h.im)]
    # scales[m - 1] = d^m (D_0 ... D_(m-1))^2 mod p.
    scales, scale = [], 1
    for dj in w.col_dens[: k - 1]:
        scale = scale * h.den * dj * dj % _P
        scales.append(scale)
    distinct, slots, lcd, exps = _form_table(bundle)
    failures: set[int] = set()
    # The range rule on the ints L e, with beta_s = b_s / B.
    step = lcd // w.den
    for m, slot in enumerate(slots, start=1):
        shift = lcd * m * (m - 1) // 2
        low, high = step * sum(w.exps[:m]) - shift, step * sum(w.exps[k - m:]) - shift
        if not all(low <= e <= high for e in exps[slot]):
            failures.add(m)
    # Every exponent int of every distinct form, once; per form, where its
    # exponents lie in it, and its entries as (i, where e_j lies, re + i_p im).
    union = sorted(set().union(*exps))
    where = {e: i for i, e in enumerate(union)}
    positions = [[where[e] for e in form_exps] for form_exps in exps]
    terms = [
        [(i, pos[j], re + im * _I_P) for i, j, re, im in form.entries]
        for form, pos in zip(distinct, positions)
    ]
    rng = random.Random(_SEED)
    trials = 0
    for _ in range(_DRAWS):
        x, y = rng.randrange(1, _P), rng.randrange(1, _P)
        wx, wy = _wronskian_columns(w, x, lcd), _wronskian_columns(w, y, lcd)
        hwx = [[sum(map(mul, row, col)) % _P for row in hp] for col in wx]
        q = [[sum(map(mul, left, right)) % _P for right in hwx] for left in wy]
        minors = leading_minors(q, _P)
        if minors is None:
            continue
        xs, ys = _powers(x, union), _powers(y, union)
        values = [_form_value(t, pos, xs, ys) for t, pos in zip(terms, positions)]
        failures.update(
            m
            for m, (form, slot, minor, scale) in enumerate(zip(forms, slots, minors, scales), start=1)
            if (form.den * minor - scale * values[slot]) % _P
        )
        trials += 1
        if trials == _TRIALS:
            break
    else:
        failures = set(range(1, k))
    return SymmetryReport(not failures, tuple(sorted(failures)))


def _wronskian_columns(w: WronskianMatrix, x: int, lcd: int) -> list[list[int]]:
    """The first k-1 columns of W(x) D mod p at z = x^L, L = lcd.

    Entry s of column j is w.cols[j][s] x^(b_s L/B - L j), L a multiple of B.
    """
    scale = lcd // w.den
    powers = [pow(x, b * scale, _P) for b in w.exps]
    step, shift = pow(x, -lcd, _P), 1
    out = []
    for col in w.cols[: w.k - 1]:
        out.append([a * v * shift % _P for a, v in zip(col, powers)])
        shift = shift * step % _P
    return out


def _powers(x: int, exps: Sequence[int]) -> list[int]:
    """x^e mod p for each of the ascending ints exps, x a unit mod p.

    One pow for the first exponent, then one product per step to the next,
    by x^gap, each distinct gap raised once.
    """
    steps: dict[int, int] = {}
    last = exps[0]
    value = pow(x, last, _P)
    out = []
    for e in exps:
        if e != last:
            gap = e - last
            step = steps.get(gap)
            if step is None:
                step = steps[gap] = pow(x, gap, _P)
            value, last = value * step % _P, e
        out.append(value)
    return out


def _form_value(terms: Sequence[tuple[int, int, int]], pos: Sequence[int], xs: list, ys: list) -> int:
    """num(x, y) mod p of a form num / den, from the powers of x and y over the exponent union.

    xs and ys hold x^u and y^u mod p for each int u of the union (_powers);
    pos[i] is where L e_i lies in it.  Each term (i, pos[j], c), c the
    entry's re + i_p im, adds c x^(L e_i) y^(L e_j); the terms are summed
    row by row, and reduced mod p once.
    """
    rows = [0] * len(pos)
    for i, j, c in terms:
        rows[i] += c * ys[j]
    return sum(map(mul, rows, map(xs.__getitem__, pos))) % _P


def _lower_slots(c: GroupElement) -> list[tuple[int, int]]:
    """The slots (i, j), i > j, of the nonzero strictly lower entries of c, in row order."""
    return [(i, j) for i in range(c.dim) for j in range(i) if c.re[i][j] or c.im[i][j]]


class MonodromyReport(Record):
    passed: bool
    algebraic_ok: bool
    analytic_ok: bool
    agree: bool
    algebraic_offenders: tuple[tuple[int, int], ...]
    analytic_offenders: tuple[str, ...]


def verify_monodromy(bundle: SolutionBundle) -> MonodromyReport:
    """Two independent single-valuedness checks on an assembled bundle that must agree.

    Algebraic: every nonzero entry of the bundle's C sits on a slot fixed by
    conjugation with the monodromy element (integer exponent difference).
    Analytic: every term of the bundle's F_1 (a nonzero entry of its
    integer form) has an integer difference of z and conj(z) exponents,
    hence is single-valued off the origin.  A failure is reported, never
    raised: the offending slots and terms are the report's witnesses.
    """
    mono = MonodromyElement(bundle.config.shifts)
    alg_offenders = tuple((i, j) for i, j in _lower_slots(bundle.C) if not mono.fixes_slot(i, j))
    f1 = bundle.forms[0]
    e = f1.exponents
    # e_i - e_j is an integer iff e_i = e_j mod 1; a residue (n mod d)/d of
    # n/d in lowest terms is in lowest terms too, so it is the pair (n mod d, d).
    residue = [(x.numerator % x.denominator, x.denominator) for x in e]
    ana_offenders = tuple(f"z^{e[i]} zb^{e[j]}" for i, j, _, _ in f1.entries if residue[i] != residue[j])
    a_ok, b_ok = not alg_offenders, not ana_offenders
    return MonodromyReport(a_ok and b_ok, a_ok, b_ok, a_ok == b_ok, alg_offenders, ana_offenders)


class CharacteristicData(Record):
    """Cauchy-Euler data of L = prod_t (d/dz + s_t/z), the operator of order k.

    L maps z^a to P(a) z^(a-k), with the indicial polynomial
    P(a) = prod_t (a - t + s_t) over the factor shifts ``shifts`` (s_0 acts
    first).  In the falling-factorial basis P(a) = (a)_k + sum_j w_j (a)_(k-j),
    j = 2..k, so L = d^k + sum_j w_j z^-j d^(k-j): ``w`` holds w_2..w_k.
    ``beta`` are the basis exponents, the roots of P.
    """

    w: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    shifts: tuple[Fraction, ...]

    def indicial(self, a: Fraction) -> Fraction:
        """P(a) = prod_t (a - t + s_t)."""
        return _indicial(self.shifts, a)


def _indicial(shifts: Sequence[Fraction], a: Fraction) -> Fraction:
    # With D the lcm of the shift denominators and a = p/q, each factor is
    # (p D + (s_t - t) D q) / (q D): one product of ints, one Fraction.
    d, ints = scale_to_ints(shifts)
    p, q = a.numerator, a.denominator
    return Fraction(prod(p * d + (x - t * d) * q for t, x in enumerate(ints)), (q * d) ** len(ints))


def characteristic_data(config: TodaConfig) -> CharacteristicData:
    """The indicial polynomial of the family's Cauchy-Euler operator, on Fractions.

    The factor shifts are config.shifts, the successive differences
    s_t = at[t] - at[t-1] of the A-side alphas at, padded with 0 on both
    ends (lie.alpha_differences).  The falling-factorial coefficients of P
    are Newton's forward differences Delta^n P(0) / n! of P(0..k).  Two
    invariants raise StructureError: the coefficient of (a)_(k-1) vanishes
    (the shifts telescope), and P vanishes on every basis exponent beta_i,
    built from the partial sums of mu_tilde instead.
    """
    k, shifts = config.k, config.shifts
    values = [_indicial(shifts, Fraction(a)) for a in range(k + 1)]
    newton = []
    for n in range(k + 1):
        newton.append(values[0] / factorial(n))
        values = [y - x for x, y in zip(values, values[1:])]
    if newton[k - 1] != 0:
        raise StructureError("order k-1 coefficient must vanish (shifts telescope)")
    betas = [-config.alpha_tilde[0]]
    for m in config.mu_tilde:
        betas.append(betas[-1] + m)
    for b in betas:
        if _indicial(shifts, b) != 0:
            raise StructureError(
                f"basis exponent {format_fraction(b)} is not a root of the indicial polynomial"
            )
    return CharacteristicData(tuple(reversed(newton[: k - 1])), tuple(betas), shifts)


# The radii of the PDE sample points, and the angle of the sector around the cut they avoid.
_RMIN, _RMAX, _SECTOR = 0.3, 3.0, 0.2


def annulus_points(count: int, seed: int) -> tuple[complex, ...]:
    """Deterministic off-cut sample points in an annulus avoiding the cut."""
    rng = random.Random(seed)
    pts = []
    half = _SECTOR / 2.0
    for _ in range(count):
        r = rng.uniform(_RMIN, _RMAX)
        theta = rng.uniform(-cmath.pi + half, cmath.pi - half)
        pts.append(r * cmath.exp(1j * theta))
    return tuple(pts)


def _pde_plan(form: UnknownForm, index: dict[Fraction, int]) -> tuple[tuple, ...]:
    """Float terms of F, d_z F, d_zbar F and d_z d_zbar F from F's integer form.

    An entry (i, j, r, s) is the term c z^a zb^b with c = (r + i s)/den,
    a = e_i and b = e_j.  It gives c*a z^(a-1) zb^b, c*b z^a zb^(b-1) and
    c*a*b z^(a-1) zb^(b-1), in entry order, in one pass over the entries;
    vanishing terms are skipped.  Each sum is a tuple of terms
    (complex c, index of a, index of b) for exact._float_sum, indexing the
    shared ``index``, in which each exponent and exponent - 1 is interned
    once.  Each coefficient is rounded once: each part is one int / int
    division, which is correctly rounded, as is float() of the reduced
    Fraction, so it is the float of the exact coefficient bit for bit.
    """
    den = form.den
    # (numerator, denominator, index of e, index of e - 1) per exponent e.
    exps = [
        (
            e.numerator,
            e.denominator,
            index.setdefault(e, len(index)),
            index.setdefault(e - 1, len(index)) if e else None,
        )
        for e in form.exponents
    ]
    f, fz, fzb, fzzb = [], [], [], []
    for i, j, r, s in form.entries:
        an, ad, a0, a1 = exps[i]
        bn, bd, b0, b1 = exps[j]
        f.append((complex(r / den, s / den), a0, b0))
        if an:
            q = den * ad
            fz.append((complex(r * an / q, s * an / q), a1, b0))
            if bn:
                n, q = an * bn, q * bd
                fzzb.append((complex(r * n / q, s * n / q), a1, b1))
        if bn:
            q = den * bd
            fzb.append((complex(r * bn / q, s * bn / q), a0, b1))
    return tuple(f), tuple(fz), tuple(fzb), tuple(fzzb)


def _log_laplacian(f: complex, fz: complex, fzb: complex, fzzb: complex) -> complex:
    """d_z d_zbar log F = (F F_zzb - F_z F_zb) / F^2; NaN if F^2 is 0 in floats."""
    try:
        return (f * fzzb - fz * fzb) / (f * f)
    except ZeroDivisionError:
        return _NONFINITE


class PdeReport(Record):
    passed: bool
    max_residual: float
    worst: tuple[int, complex] | None
    points_checked: int
    reduced_checked: bool


def verify_pde(bundle: SolutionBundle, points: Sequence[complex], *, tol: float) -> PdeReport:
    """Numeric residual of the coupled log-Laplacian equations at the given points.

    Each distinct form (_form_table: the mirror pairs F_m = F_{k-m} of
    C/B are one) is compiled once per call into a float plan (_pde_plan):
    the terms of F, d_z F, d_zbar F and d_z d_zbar F; no ZExpr is built.
    Each point gets one power table, with the conjugate of each power,
    shared by all plans, each plan is summed once (exact._float_sum), and
    each m reads F_m and the log-Laplacian d_z d_zbar log F_m from its
    form's values into the point's table row.
    One residual routine compares a log-Laplacian with its Cartan product
    in relative terms.  The A-side system
    d_z d_zbar log F_m = prod_j F_j^(-a_mj) is checked at every point as its
    row is built.  For C/B bundles the family system for m <= n is then
    checked on the same rows, each reduced unknown U_i of
    reduced_unknowns(config) scaled from the value of F_i already in the
    row.  It passes when no residual exceeds tol.  A residual that is not
    finite (NaN or an overflow, a power, F^2 or Cartan factor out of float
    range at a tiny or huge point, or a reduced unknown with no real value)
    fails the check: it becomes the worst one unless an earlier one already
    is not finite.  A failure is reported, never raised: ``worst`` is its
    witness (m, z); the only errors are OriginError and BranchCutError, from
    the point's power table: at the origin if any exponent of any plan is
    negative, and on the cut if any is fractional.
    An empty point list raises ValueError, since it would pass vacuously.
    """
    config = bundle.config
    pts = tuple(points)
    if not pts:
        raise ValueError("verify_pde needs at least one point")
    index: dict[Fraction, int] = {}
    distinct, slots, _, _ = _form_table(bundle)
    plans = [_pde_plan(form, index) for form in distinct]
    exponents = tuple(index)
    max_res, worst = 0.0, None

    def residual(m: int, z: complex, lhs: complex, values: list, row: Sequence[int], unit) -> None:
        # The Cartan product starts from the unit of the values' type:
        # complex for the F values, float for the reduced unknowns.  A value
        # out of float range (0 to a negative power, an overflow) makes the
        # residual NaN.
        nonlocal max_res, worst
        try:
            rhs = unit
            for a, v in zip(row, values):
                if a != 0:
                    rhs *= v ** (-a)
            rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        except (ZeroDivisionError, OverflowError):
            rel = nan
        if rel > max_res or (cmath.isnan(rel) and not cmath.isnan(max_res)):
            max_res, worst = rel, (m, z)

    amat = cartan(Algebra("A", config.k - 1)).matrix
    rows = []
    for z in pts:
        table = _power_table(complex(z), exponents)
        fs = [_float_sum(f, table) for f, _, _, _ in plans]
        laps = [
            _log_laplacian(fv, _float_sum(fz, table), _float_sum(fzb, table), _float_sum(fzzb, table))
            for fv, (_, fz, fzb, fzzb) in zip(fs, plans)
        ]
        values, laps = [fs[s] for s in slots], [laps[s] for s in slots]
        for m, lap in enumerate(laps, start=1):
            residual(m, z, lap, values, amat[m - 1], 1.0 + 0.0j)
        rows.append((z, values, laps))

    reduced = reduced_unknowns(config)
    if reduced is not None:
        fam_matrix = cartan(config.algebra).matrix
        for z, values, laps in rows:
            red_vals = [r.value_from(v) for r, v in zip(reduced, values)]
            for m, r in enumerate(reduced, start=1):
                residual(m, z, float(r.power) * laps[m - 1], red_vals, fam_matrix[m - 1], 1.0)
    return PdeReport(max_res <= tol, max_res, worst, len(pts), reduced is not None)


class IntegrabilityRow(Record):
    index: int
    exponent_at_zero: Fraction
    exponent_at_infinity: Fraction
    integrable: bool
    matches_weight: bool


class IntegrabilityReport(Record):
    passed: bool
    rows: tuple[IntegrabilityRow, ...]


def verify_integrability(bundle: SolutionBundle) -> IntegrabilityReport:
    """Leading |z|-exponents of each density at 0 and infinity, exactly.

    The density for unknown m scales like |z|^(2 gamma_tilde_m) at the
    origin; integrability needs the exponent at 0 above -2 and at infinity
    below -2.  The degrees of each F_m are read off its integer form.
    """
    config = bundle.config
    k = config.k
    amat = cartan(Algebra("A", k - 1)).matrix
    distinct, slots, lcd, exps = _form_table(bundle)
    ranges = [_degree_range(form, e, lcd) for form, e in zip(distinct, exps)]
    mins, maxs = zip(*(ranges[slot] for slot in slots))
    rows = []
    for m in range(1, k):
        # The Cartan row is tridiagonal: its zero entries add nothing.
        row = [(a, j) for j, a in enumerate(amat[m - 1]) if a]
        at0 = -sum((a * mins[j] for a, j in row), Fraction(0))
        atinf = -sum((a * maxs[j] for a, j in row), Fraction(0))
        integrable = at0 > -2 and atinf < -2
        matches = at0 == 2 * config.gamma_tilde[m - 1]
        rows.append(IntegrabilityRow(m, at0, atinf, integrable, matches))
    return IntegrabilityReport(all(r.integrable and r.matches_weight for r in rows), tuple(rows))


def _degree_range(form: UnknownForm, exps: Sequence[int], lcd: int) -> tuple[Fraction, Fraction]:
    """Least and greatest total degree e_i + e_j over the nonzero entries.

    exps holds the ints L e_i of the form's exponents (L = lcd, _form_table),
    so the degrees are compared as ints, in no assumed order of the
    exponents or the entries, and only the two results are Fractions.
    """
    degrees = [exps[i] + exps[j] for i, j, _, _ in form.entries]
    return Fraction(min(degrees), lcd), Fraction(max(degrees), lcd)


class ACaseReport(Record):
    lambda_hat: tuple[Fraction, ...]
    product: Fraction
    product_expected: Fraction
    monic_coefficients: tuple[dict, ...]

    @property
    def passed(self) -> bool:
        return self.product == self.product_expected


def a_case_form(bundle: SolutionBundle) -> ACaseReport:
    """Re-express F_1 of an A-family bundle in monic-polynomial form.

    Writes F_1 = |z|^(-2 alpha_1) (lhat_0 + sum lhat_i |P_i|^2) with monic
    P_i, and records the product of the lhat beside the product of inverse
    squared exponent sums (equal iff det H = 1), which ``passed`` compares.
    It reads chi from the bundle's Wronskian, the weights from
    bundle.lambdas and the coordinates from the strictly lower entries of
    bundle.C, each a free slot on A; verify_monodromy alone decides those
    on slots that the monodromy element does not fix.
    """
    config = bundle.config
    if config.family != "A":
        raise ValueError("monic form applies to the A family")
    chi, c = bundle.wronskian.nu.chi, bundle.C
    k, mu = config.k, config.mu_tilde
    lam_hat = tuple((lam * x) ** 2 for lam, x in zip(bundle.lambdas, chi))
    product = prod(lam_hat, start=Fraction(1))
    expected = 1 / prod(sum(mu[i - 1:j], Fraction(0)) ** 2 for i in range(1, k) for j in range(i, k))
    coeffs = tuple({} for _ in range(1, k))
    for i, j in _lower_slots(c):
        coeffs[i - 1][slot_name(i, j)] = scalar_over(c.re[i][j], c.im[i][j], c.den) * (chi[j] / chi[i])
    return ACaseReport(lam_hat, product, expected, coeffs)


class CheckRow(Record):
    """One row of the verdict of verify.

    ``witness`` is text that the human report shows after the detail of a
    failed row: the offending slots and terms of a failed monodromy row.  It
    is "" on a passing row and on every other row, whose detail names its
    witness.
    """

    name: str
    passed: bool
    detail: str
    witness: str


class VerifyReport(Record):
    """The rows of verify, with the two reports that the JSON report also reads."""

    rows: tuple[CheckRow, ...]
    monodromy: MonodromyReport
    integrability: IntegrabilityReport

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def verify(bundle: SolutionBundle, *, count: int, tol: float, seed: int) -> VerifyReport:
    """Run every check of an assembled bundle and decide each row; toda verify formats it.

    The rows, in order: symmetry (C/B only), monodromy, pde-residual (count
    points drawn with seed, passing at tol), integrability, w-symmetry and
    monic-form (A only).  The symmetry row reads bundle.certificate.
    w-symmetry is the N1/N2 condition: F_1 lies in ker L (x) ker conj(L),
    so every exponent of its form is a root of the indicial polynomial P.
    Each check is looked up in this module when it runs, so a check
    replaced here is the one called; verify_symmetry is looked up on the
    first read of a bundle's certificate only.
    """
    config = bundle.config
    rows = []
    if config.family in ("C", "B"):
        sym = bundle.certificate
        rows.append(CheckRow("symmetry", sym.passed, f"failures={list(sym.failures)}", ""))
    mono = verify_monodromy(bundle)
    witness = ""
    if not mono.passed:
        slots = ", ".join(slot_name(i, j) for i, j in mono.algebraic_offenders)
        witness = f"slots=[{slots}] F1_terms=[{', '.join(mono.analytic_offenders)}]"
    detail = f"algebraic={mono.algebraic_ok} analytic={mono.analytic_ok}"
    rows.append(CheckRow("monodromy", mono.passed, detail, witness))
    pde = verify_pde(bundle, annulus_points(count, seed), tol=tol)
    detail = f"max={pde.max_residual:.3e} points={pde.points_checked}"
    if not pde.passed:
        m, z = pde.worst
        detail += f" m={m} z={z}"
    rows.append(CheckRow("pde-residual", pde.passed, detail, ""))
    integ = verify_integrability(bundle)
    failing = [row.index for row in integ.rows if not (row.integrable and row.matches_weight)]
    detail = f"failures={failing}" if failing else "exponents at 0 match the doubled weights"
    rows.append(CheckRow("integrability", integ.passed, detail, ""))
    cdata = characteristic_data(config)
    values = [(e, cdata.indicial(e)) for e in bundle.forms[0].exponents]
    off_roots = [f"P({format_fraction(e)}) = {format_fraction(v)}" for e, v in values if v]
    if off_roots:
        detail = f"F_1 exponents off the roots of P: {', '.join(off_roots)}"
    else:
        detail = f"w = [{', '.join(map(format_fraction, cdata.w))}]"
    rows.append(CheckRow("w-symmetry", not off_roots, detail, ""))
    if config.family == "A":
        acase = a_case_form(bundle)
        if acase.passed:
            detail = f"product={format_fraction(acase.product)}"
        else:
            detail = f"product of normalized weights is {acase.product}, expected {acase.product_expected}"
        rows.append(CheckRow("monic-form", acase.passed, detail, ""))
    return VerifyReport(tuple(rows), mono, integ)
