"""Assembly and verification of singular Toda solutions for A/C/B.

A solution is determined by the weights gamma, a positive diagonal matrix
and a unipotent lower-triangular group element C.  With B the product of
the diagonal and C, and H = B^dag B, the unknowns of the ambient A-side
system are

    F_m = leading m x m principal minor of  W^dag H W,   1 <= m <= k-1,

where W is the Wronskian matrix of the holomorphic basis.  By Cauchy-Binet
F_m = sum_R lambda_R^2 |g_R|^2, where g_R is the holomorphic m-minor of C W
on the row set R, and again by Cauchy-Binet g_R = sum_{S <= R} C[R,S] W[S],
with C[R,S] read from the minor table of C (groups) and W[S], the minor on
rows S and the first m columns, a closed-form monomial (basis.column_minor).
Every F_m is a conjugation-invariant sum of monomials in z and conj(z).

For the C and B families the first n unknowns carry the reduction back to
the family's own system, with the exact power-of-two normalization for B.
The verification operations check the left/right symmetry of the F's, the
monodromy conditions (algebraically on C and analytically on F_1), the
numeric PDE residual at off-cut points, the integrability exponents at 0
and infinity, and the Cauchy-Euler characteristic data of the family.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Sequence

from .basis import (
    NuVector,
    StructureError,
    WronskianMatrix,
    column_minor,
    nu_vector,
    wronskian,
)
from .config import TodaConfig
from .exact import (
    ExactScalar,
    FirstOrderOp,
    Monomial,
    OrdinaryOp,
    ZExpr,
    as_fraction,
    compose,
)
from .groups import (
    GroupElement,
    UnipotentCoords,
    _minor_lookup,
    diagonal_element,
    paired_diagonal,
    unipotent_from_coords,
)
from .lie import Algebra, cartan, monodromy_element, slot_name

__all__ = [
    "SolutionParams",
    "SolutionBundle",
    "ReducedUnknown",
    "CharacteristicData",
    "MonodromyViolation",
    "ResidualExceeded",
    "ProductConditionViolation",
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
]


class MonodromyViolation(ValueError):
    """The element C has a nonzero coordinate outside the integral subgroup."""

    def __init__(self, offenders):
        super().__init__(f"monodromy violated at entries {offenders}")
        self.offenders = offenders


class ResidualExceeded(AssertionError):
    """A PDE residual exceeded the tolerance; carries (index, point, value)."""

    def __init__(self, index, point, value):
        super().__init__(f"residual {value:.3e} at unknown {index}, point {point}")
        self.index = index
        self.point = point
        self.value = value


class ProductConditionViolation(ValueError):
    """The product of the diagonal weights violates the determinant-1 condition."""


@dataclass(frozen=True)
class SolutionParams:
    """Diagonal weights (the free half for C/B, all k for A) plus coordinates."""

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


@dataclass(frozen=True)
class ReducedUnknown:
    """Family unknown U_index through e^(-U) = (multiplier * F_index)^power.

    ``value_from`` turns an already evaluated value of F_index into e^(-U):
    it scales the real part by the multiplier, rejects a non-positive result
    and raises it to the power.
    """

    index: int
    multiplier: Fraction
    power: Fraction
    ln2_coefficient: Fraction

    def value_from(self, f_value: complex) -> float:
        scaled = float(self.multiplier) * f_value.real
        if scaled <= 0:
            raise ValueError(f"non-positive value {scaled} for unknown {self.index}")
        return scaled ** float(self.power)


@dataclass(frozen=True)
class SolutionBundle:
    config: TodaConfig
    params: SolutionParams
    nu: NuVector
    wronskian: WronskianMatrix
    F: tuple[ZExpr, ...]
    reduced: tuple[ReducedUnknown, ...] | None
    H: GroupElement
    C: GroupElement
    lambdas: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return self.config.k


def assemble(config: TodaConfig, params: SolutionParams) -> SolutionBundle:
    """Build the exact unknowns F_1..F_{k-1} from (gamma, diagonal, C).

    Each F_m is the leading principal minor of W^dag H W.  With H = B^dag B
    and B = Lambda C, Cauchy-Binet turns it into sum_R lambda_R^2 |g_R|^2,
    where g_R is the holomorphic minor of G = C W on the m rows R and the
    first m columns.  A second Cauchy-Binet sum gives
    g_R = sum_S C[R,S] column_minor(W, S); C is lower unipotent, so only
    row sets S <= R (entrywise) contribute.  Every C[R,S] comes from one
    minor table of C.  Every F_m is verified conjugation-invariant, and F_1
    is cross-checked against nu^dag H nu, which reads H directly.
    """
    nu = nu_vector(config)
    w = wronskian(nu)
    k = config.k
    c = unipotent_from_coords(config.algebra, params.coords)
    lams = full_lambda(config, params)
    b = diagonal_element(lams) @ c
    h = GroupElement((b.conj_transpose() @ b).entries)
    c_minor = _minor_lookup(c)

    fs: list[ZExpr] = []
    for m in range(1, k):
        # Each W minor is one monomial, keyed by its row set S.
        w_minors = [
            (cols, column_minor(w, cols).single_monomial())
            for cols in combinations(range(k), m)
        ]
        acc: dict[tuple[Fraction, Fraction], ExactScalar] = {}
        for rows in combinations(range(k), m):
            g: dict[Fraction, ExactScalar] = {}
            for cols, wt in w_minors:
                # C is lower unipotent: C[R, S] vanishes unless S <= R entrywise.
                if any(j > i for i, j in zip(rows, cols)):
                    continue
                cm = c_minor(rows, cols)
                if not cm.is_zero:
                    _add_term(g, wt.exp_z, cm * wt.coeff)
            weight = prod(lams[r] * lams[r] for r in rows)
            conj = [(e, v.conjugate()) for e, v in g.items()]
            for a, ca in g.items():
                scaled = ExactScalar(ca.re * weight, ca.im * weight)
                for bb, cb in conj:
                    _add_term(acc, (a, bb), scaled * cb)
        f = ZExpr.from_terms(Monomial(cv, a, bb) for (a, bb), cv in acc.items())
        if not f.is_real:
            raise StructureError(f"unknown F_{m} is not conjugation-invariant")
        fs.append(f)

    _check_first_unknown(fs[0], nu, h)
    reduced = reduced_unknowns(config)
    return SolutionBundle(config, params, nu, w, tuple(fs), reduced, h, c, lams)


def _add_term(acc: dict, key, value: ExactScalar) -> None:
    cur = acc.get(key)
    acc[key] = value if cur is None else cur + value


def _check_first_unknown(f1: ZExpr, nu: NuVector, h: GroupElement) -> None:
    # F_1 = nu^dag H nu: entry H_ab carries conj(nu_a) nu_b = chi_a chi_b zb^beta_a z^beta_b.
    k = nu.k
    direct = ZExpr.from_terms(
        Monomial(h.entries[a][b] * (nu.chi[a] * nu.chi[b]), nu.beta[b], nu.beta[a])
        for a in range(k)
        for b in range(k)
    )
    if direct != f1:
        raise StructureError("principal-minor F_1 disagrees with nu^dag H nu")


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


@dataclass(frozen=True)
class SymmetryReport:
    passed: bool
    failures: tuple[int, ...]


def verify_symmetry(bundle: SolutionBundle) -> SymmetryReport:
    """Exact check that F_m = F_{k-m} for every m."""
    k = bundle.k
    failures = []
    for m in range(1, k):
        if bundle.F[m - 1] != bundle.F[k - m - 1]:
            failures.append(m)
    return SymmetryReport(not failures, tuple(failures))


@dataclass(frozen=True)
class MonodromyReport:
    passed: bool
    algebraic_ok: bool
    analytic_ok: bool
    agree: bool
    algebraic_offenders: tuple[tuple[int, int], ...]
    analytic_offenders: tuple[str, ...]


def verify_monodromy(bundle: SolutionBundle, *, strict: bool = False) -> MonodromyReport:
    """Two independent single-valuedness checks on an assembled bundle that must agree.

    Algebraic: every nonzero entry of the bundle's C sits on a slot fixed by
    conjugation with the monodromy element (integer exponent difference).
    Analytic: every term of the bundle's F_1 has an integer difference of
    z and conj(z) exponents, hence is single-valued off the origin.
    """
    config = bundle.config
    mono = monodromy_element(config.algebra, config.gamma)
    c = bundle.C
    k = config.k
    alg_offenders = tuple(
        (i, j)
        for i in range(k)
        for j in range(i)
        if not c.entries[i][j].is_zero and not mono.fixes_slot(i, j)
    )
    ana_offenders = tuple(
        f"z^{t.exp_z} zb^{t.exp_zbar}"
        for t in bundle.F[0].terms
        if (t.exp_z - t.exp_zbar).denominator != 1
    )
    a_ok = not alg_offenders
    b_ok = not ana_offenders
    if strict and not (a_ok and b_ok):
        raise MonodromyViolation(alg_offenders or ana_offenders)
    return MonodromyReport(a_ok and b_ok, a_ok, b_ok, a_ok == b_ok, alg_offenders, ana_offenders)


@dataclass(frozen=True)
class CharacteristicData:
    """Cauchy-Euler data: coefficients w_j of z^-(j+1) and indicial exponents."""

    w: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    operator: OrdinaryOp


def characteristic_data(config: TodaConfig) -> CharacteristicData:
    """Compose the first-order factors and read off the pure-power coefficients.

    The factor shifts are successive differences of the A-side alphas over z.
    Every composed coefficient of order j must be a single w_j * z^-(j+1)
    monomial, and the operator must annihilate each basis power z^beta_i.
    """
    at = config.alpha_tilde
    k = config.k
    padded = (Fraction(0),) + tuple(at) + (Fraction(0),)
    # Left-to-right factors: shift of factor i is (at[k-i] - at[k-1-i]) / z.
    ops = [
        FirstOrderOp(ZExpr.monomial(padded[k - i] - padded[k - 1 - i], Fraction(-1)))
        for i in range(k)
    ]
    op = compose(ops)
    coeffs = op.coefficients
    if not coeffs[1].is_zero:
        raise StructureError("order k-1 coefficient must vanish (shifts telescope)")
    ws = []
    for idx in range(2, k + 1):
        c = coeffs[idx]
        if c.is_zero:
            ws.append(Fraction(0))
            continue
        mono = c.single_monomial()
        if mono.exp_zbar != 0 or mono.exp_z != -idx or not mono.coeff.is_real:
            raise StructureError(f"coefficient {idx} is not a pure z^-{idx} monomial: {c}")
        ws.append(mono.coeff.re)
    beta0 = -at[0]
    betas = [beta0]
    acc = beta0
    for m in config.mu_tilde:
        acc += m
        betas.append(acc)
    for bexp in betas:
        if not op.apply(ZExpr.z_pow(bexp)).is_zero:
            raise StructureError(f"operator does not annihilate z^{bexp}")
    return CharacteristicData(tuple(ws), tuple(betas), op)


def annulus_points(
    count: int, seed: int = 7, rmin: float = 0.3, rmax: float = 3.0, sector: float = 0.2
) -> tuple[complex, ...]:
    """Deterministic off-cut sample points in an annulus avoiding the cut."""
    rng = random.Random(seed)
    pts = []
    half = sector / 2.0
    for _ in range(count):
        r = rng.uniform(rmin, rmax)
        theta = rng.uniform(-cmath.pi + half, cmath.pi - half)
        pts.append(r * cmath.exp(1j * theta))
    return tuple(pts)


@dataclass(frozen=True)
class PdeReport:
    passed: bool
    max_residual: float
    worst: tuple[int, complex] | None
    points_checked: int
    reduced_checked: bool


def verify_pde(
    bundle: SolutionBundle,
    points: Sequence[complex] | None = None,
    *,
    count: int = 20,
    tol: float = 1e-9,
    seed: int = 7,
    strict: bool = False,
) -> PdeReport:
    """Numeric residual of the coupled log-Laplacian equations at off-cut points.

    Each point gets one table row: F_m, d_z F_m, d_zbar F_m and d_z d_zbar F_m
    are evaluated once for every m, from exact symbolic derivatives, and give
    the values F_m and the log-Laplacians d_z d_zbar log F_m.  One residual
    routine compares a log-Laplacian with its Cartan product in relative
    terms.  The A-side system d_z d_zbar log F_m = prod_j F_j^(-a_mj) is
    checked at every point as its row is built.  For C/B bundles the family
    system for m <= n is then checked on the same rows, each reduced unknown
    U_i scaled from the value of F_i already in the row.
    """
    config = bundle.config
    pts = tuple(points) if points is not None else annulus_points(count, seed)
    derivs = []
    for f in bundle.F:
        fz = f.diff_z()
        derivs.append((fz, f.diff_zbar(), fz.diff_zbar()))
    max_res = 0.0
    worst = None

    def residual(m: int, z: complex, lhs: complex, values: list, row: Sequence[int], unit) -> None:
        # The Cartan product starts from the unit of the values' type:
        # complex for the F values, float for the reduced unknowns.
        nonlocal max_res, worst
        rhs = unit
        for a, v in zip(row, values):
            if a != 0:
                rhs *= v ** (-a)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        if rel > max_res:
            max_res, worst = rel, (m, z)
        if strict and rel > tol:
            raise ResidualExceeded(m, z, rel)

    amat = cartan(Algebra("A", config.k - 1)).matrix
    rows = []
    for z in pts:
        values = [f.evaluate(z) for f in bundle.F]
        laps = []
        for m, (fv, (fz, fzb, fzzb)) in enumerate(zip(values, derivs), start=1):
            laps.append((fv * fzzb.evaluate(z) - fz.evaluate(z) * fzb.evaluate(z)) / (fv * fv))
            residual(m, z, laps[-1], values, amat[m - 1], 1.0 + 0.0j)
        rows.append((z, values, laps))

    if bundle.reduced is not None:
        fam_matrix = cartan(config.algebra).matrix
        for z, values, laps in rows:
            red_vals = [r.value_from(v) for r, v in zip(bundle.reduced, values)]
            for m, r in enumerate(bundle.reduced, start=1):
                residual(m, z, float(r.power) * laps[m - 1], red_vals, fam_matrix[m - 1], 1.0)
    return PdeReport(max_res <= tol, max_res, worst, len(pts), bundle.reduced is not None)


@dataclass(frozen=True)
class IntegrabilityRow:
    index: int
    exponent_at_zero: Fraction
    exponent_at_infinity: Fraction
    integrable: bool
    matches_weight: bool


@dataclass(frozen=True)
class IntegrabilityReport:
    passed: bool
    rows: tuple[IntegrabilityRow, ...]


def verify_integrability(bundle: SolutionBundle) -> IntegrabilityReport:
    """Leading |z|-exponents of each density at 0 and infinity, exactly.

    The density for unknown m scales like |z|^(2 gamma_tilde_m) at the
    origin; integrability needs the exponent at 0 above -2 and at infinity
    below -2.
    """
    config = bundle.config
    k = config.k
    amat = cartan(Algebra("A", k - 1)).matrix
    mins = [f.min_total_degree() for f in bundle.F]
    maxs = [f.max_total_degree() for f in bundle.F]
    rows = []
    ok = True
    for m in range(1, k):
        at0 = -sum((Fraction(amat[m - 1][j - 1]) * mins[j - 1] for j in range(1, k)), Fraction(0))
        atinf = -sum((Fraction(amat[m - 1][j - 1]) * maxs[j - 1] for j in range(1, k)), Fraction(0))
        integrable = at0 > -2 and atinf < -2
        matches = at0 == 2 * config.gamma_tilde[m - 1]
        ok = ok and integrable and matches
        rows.append(IntegrabilityRow(m, at0, atinf, integrable, matches))
    return IntegrabilityReport(ok, tuple(rows))


@dataclass(frozen=True)
class ACaseReport:
    lambda_hat: tuple[Fraction, ...]
    product: Fraction
    product_expected: Fraction
    monic_coefficients: tuple[dict, ...]
    forbidden_slots: tuple[str, ...]
    forbidden_violations: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.product == self.product_expected and not self.forbidden_violations


def a_case_form(config: TodaConfig, params: SolutionParams) -> ACaseReport:
    """Re-express F_1 of an A-family solution in monic-polynomial form.

    Writes F_1 = |z|^(-2 alpha_1) (lhat_0 + sum lhat_i |P_i|^2) with monic
    P_i, checks the exact product condition on the lhat against the product
    of inverse squared exponent sums (equivalent to det H = 1), and lists the
    coordinates whose exponent sums are non-integral (these must vanish).
    """
    if config.family != "A":
        raise ValueError("monic form applies to the A family")
    nu = nu_vector(config)
    lams = full_lambda(config, params)
    chi = nu.chi
    k = config.k
    mu = config.mu_tilde
    lam_hat = tuple(lams[i] ** 2 * chi[i] ** 2 for i in range(k))
    product = Fraction(1)
    for x in lam_hat:
        product *= x
    expected = Fraction(1)
    for i in range(1, k):
        for j in range(i, k):
            expected /= sum(mu[i - 1:j], Fraction(0)) ** 2
    if product != expected:
        raise ProductConditionViolation(
            f"product of normalized weights is {product}, expected {expected}"
        )
    coeffs = []
    for i in range(1, k):
        row = {}
        for j in range(i):
            val = params.coords.get(i, j)
            if not val.is_zero:
                row[slot_name(i, j)] = val * (chi[j] / chi[i])
        coeffs.append(row)
    forbidden = []
    violations = []
    for i in range(1, k):
        for j in range(i):
            span = sum(mu[j:i], Fraction(0))
            if span.denominator != 1:
                name = slot_name(i, j)
                forbidden.append(name)
                if not params.coords.get(i, j).is_zero:
                    violations.append(name)
    return ACaseReport(lam_hat, product, expected, tuple(coeffs), tuple(forbidden), tuple(violations))
