"""Holomorphic basis vector, its Wronskian matrix and pairing normalization.

From exponents mu_1..mu_{k-1} (all > 0) the closed-form nested antiderivatives
of the power integrands are single monomials

    sigma_0 = 1,
    sigma_i = z^(mu_1+...+mu_i) / (mu_i (mu_i+mu_{i-1}) ... (mu_i+...+mu_1)),

and the basis entries nu_i = sigma_i / z^(xi_exponent) are monomials
chi_i * z^(beta_i) with strictly increasing exponents beta, held as those
rationals (NuVector.chi, .beta).  The k x k Wronskian matrix, entry (i, j)
chi_i (beta_i)_j z^(beta_i - j) (falling factorial), is held as its integer
form only (WronskianMatrix).  That one table feeds the det W = 1 check, the
assembly of G = C W, the modular certificate in solutions and the pairing
below; the Fraction table (coeffs) and the ZExpr forms of nu and of the
entries are built only on access.  The column minors are single monomials
with a Vandermonde coefficient (column_minor, an independent closed form
that tests hold the prefix minors of G against).  For palindromic mu,
beta_r + beta_(k-1-r) = k - 1, column t of W is homogeneous of degree -t
under the pairing: W^t J W, summed on the integer table, has an exact
zero/sign pattern, and a Gram-Schmidt pass on constant columns turns it
into J itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import prod
from typing import Sequence

from .config import TodaConfig
from .exact import ExactScalar, Monomial, Record, ZExpr, as_fraction, scale_to_ints
from .groups import GroupElement
from .linalg import leading_minors


class StructureError(AssertionError):
    """An exact structural pattern required by the construction failed."""


def _sigma_terms(mu: Sequence) -> list[tuple[Fraction, Fraction]]:
    """(coefficient, exponent) of each sigma_i, from the closed form above."""
    m = tuple(as_fraction(x) for x in mu)
    if any(x <= 0 for x in m):
        raise ValueError("all mu_i must be positive")
    out = [(Fraction(1), Fraction(0))]
    for i in range(1, len(m) + 1):
        denom = Fraction(1)
        partial = Fraction(0)
        for j in range(i - 1, -1, -1):
            partial += m[j]
            denom *= partial
        out.append((1 / denom, sum(m[:i], Fraction(0))))
    return out


class NuVector(Record):
    """Basis entries nu_i = chi_i z^(beta_i), beta strictly increasing."""

    chi: tuple[Fraction, ...]
    beta: tuple[Fraction, ...]
    xi_exponent: Fraction

    @property
    def k(self) -> int:
        return len(self.beta)

    @cached_property
    def nu(self) -> tuple[ZExpr, ...]:
        """The entries as ZExprs, built on first access."""
        return tuple(ZExpr.monomial(c, b) for c, b in zip(self.chi, self.beta))


def nu_vector(config: TodaConfig) -> NuVector:
    """Basis vector for a configuration, scaled by z^(-alpha_tilde_1)."""
    return nu_vector_from_mu(config.mu_tilde, config.alpha_tilde[0])


def nu_vector_from_mu(mu: Sequence, xi_exponent) -> NuVector:
    xi = as_fraction(xi_exponent)
    terms = _sigma_terms(mu)
    betas = tuple(e - xi for _, e in terms)
    for a, b in zip(betas, betas[1:]):
        if not a < b:
            raise StructureError("basis exponents must increase strictly")
    return NuVector(tuple(c for c, _ in terms), betas, xi)


class WronskianMatrix(Record):
    """Columns are successive z-derivatives of the basis vector; det = 1.

    Entry (s, j) is chi_s (beta_s)_j z^(beta_s - j), held in integer form:
    beta_s = exps[s] / den over one denominator den, and
    cols[j][s] = col_dens[j] chi_s (beta_s)_j, with col_dens[j] the lcm of
    the reduced denominators of column j.
    """

    den: int
    exps: tuple[int, ...]
    col_dens: tuple[int, ...]
    cols: tuple[tuple[int, ...], ...]
    nu: NuVector

    @property
    def k(self) -> int:
        return len(self.exps)

    @cached_property
    def coeffs(self) -> tuple[tuple[Fraction, ...], ...]:
        """coeffs[s][j] = chi_s (beta_s)_j as Fractions, built on first access."""
        return tuple(zip(*(
            tuple(Fraction(x, dj) for x in col) for col, dj in zip(self.cols, self.col_dens)
        )))

    @cached_property
    def entries(self) -> tuple[tuple[ZExpr, ...], ...]:
        """The entries as ZExprs, built on first access."""
        return tuple(
            tuple(ZExpr.monomial(c, b - j) for j, c in enumerate(row))
            for b, row in zip(self.nu.beta, self.coeffs)
        )


def wronskian(nu: NuVector) -> WronskianMatrix:
    """The Wronskian matrix of nu in integer form, with det W = 1 checked exactly.

    With beta_s = b_s / B, (beta_s)_j = (b_s)(b_s - B)...(b_s - (j-1)B) / B^j,
    so each entry is one Fraction of an integer falling factorial.  Entry
    (s, j) is a multiple of z^(beta_s - j), so
    det W = det[chi_s (beta_s)_j] z^(sum beta - k(k-1)/2), and the table's
    determinant is det(cols) / (D_0 ... D_(k-1)), det(cols) the last
    leading minor of the table (linalg.leading_minors, over Z).

    The elimination needs no row exchange.  Falling factorials are monic,
    so the leading m-block of cols is
    D_0 ... D_(m-1) * chi_0 ... chi_(m-1) * prod_(a<b<m) (beta_b - beta_a).
    It vanishes only if some chi_s = 0 or some beta repeats, and then W has
    a zero row or two proportional rows, so det W = 0: a leading minor of 0
    (None) is read as det W = 0.
    """
    k = nu.k
    den, exps = scale_to_ints(nu.beta)
    rows = []
    for c, b in zip(nu.chi, exps):
        row, falling = [], 1
        for j in range(k):
            row.append(Fraction(c.numerator * falling, c.denominator * den**j))
            falling *= b - j * den
        rows.append(row)
    col_dens, cols = zip(*map(scale_to_ints, zip(*rows)))
    exponent = sum(nu.beta, Fraction(0)) - Fraction(k * (k - 1), 2)
    minors = leading_minors(cols)
    d = Fraction(minors[-1] if minors else 0, prod(col_dens))
    if d != 1 or exponent != 0:
        raise StructureError(f"Wronskian determinant is {ZExpr.monomial(d, exponent)}, expected 1")
    return WronskianMatrix(den, exps, col_dens, cols, nu)


def column_minor(w: WronskianMatrix, rows: Sequence[int]) -> ZExpr:
    """Minor over 0-based `rows` and the first len(rows) columns, closed form.

    Each basis entry is a monomial chi_r (beta_r)_j z^(beta_r - j), so the
    minor collapses to the product of the chi_r, the Vandermonde product of
    the beta_r and one power of z.
    """
    nu, rows = w.nu, tuple(rows)
    coeff = prod((nu.chi[r] for r in rows), start=Fraction(1))
    for a, b in combinations(rows, 2):
        coeff *= nu.beta[b] - nu.beta[a]
    m = len(rows)
    return ZExpr.monomial(coeff, sum((nu.beta[r] for r in rows), Fraction(-m * (m - 1), 2)))


def _form_products(w: WronskianMatrix, j: GroupElement, cols, dens) -> tuple[tuple[ZExpr, ...], ...]:
    """V^t j V for V[r][t] = cols[t][r] / dens[t] z^(beta_r - t) (ints, or Fractions over 1).

    Entry (a, b) sums cols[a][r] j_rs cols[b][s] z^(beta_r + beta_s - a - b) over
    the nonzero j_rs, grouped by the int exponent exps[r] + exps[s], in one ZExpr.
    """
    if j.dim != w.k:
        raise ValueError("form dimension mismatch")
    nonzero = [
        (r, s, x, y)
        for r, (re, im) in enumerate(zip(j.re, j.im))
        for s, (x, y) in enumerate(zip(re, im))
        if x or y
    ]

    def entry(a: int, b: int) -> ZExpr:
        acc: dict[int, list] = {}
        for r, s, x, y in nonzero:
            c = cols[a][r] * cols[b][s]
            if c:
                part = acc.setdefault(w.exps[r] + w.exps[s], [0, 0])
                part[0] += c * x
                part[1] += c * y
        d = dens[a] * dens[b] * j.den
        return ZExpr.from_terms(
            Monomial(ExactScalar(Fraction(re, d), Fraction(im, d)), Fraction(e, w.den) - a - b)
            for e, (re, im) in acc.items()
        )

    return tuple(tuple(entry(a, b) for b in range(w.k)) for a in range(w.k))


def pairing_matrix(w: WronskianMatrix, j: GroupElement) -> tuple[tuple[ZExpr, ...], ...]:
    """P = W^t J W with the exact zero / (-1)^i / zero pattern enforced.

    Entries above the secondary diagonal vanish, the secondary diagonal
    alternates +1/-1 down from the top-right corner, and the first band
    below it vanishes as well: for palindromic exponents column t of W is
    homogeneous of degree -t, so P[a][b] is a constant times z^(k-1-a-b).
    A violation (non-palindromic exponent data) raises StructureError.
    """
    k = w.k
    p = _form_products(w, j, w.cols, w.col_dens)
    for a in range(k):
        for b in range(min(k, k + 1 - a)):  # a + b <= k
            want = ZExpr.const((-1) ** a) if a + b == k - 1 else ZExpr.zero()
            if p[a][b] != want:
                should = f"be {want}" if want else "vanish"
                raise StructureError(f"pairing entry ({a},{b}) should {should}, got {p[a][b]}")
    return p


def gram_schmidt_normalizer(
    w: WronskianMatrix, j: GroupElement
) -> tuple[tuple[ZExpr, ...], ...]:
    """Unipotent upper-triangular U with (WU)^t J (WU) = J, exactly.

    Works plane by plane from the outermost pair of columns inward: first
    normalize the self-pairing of the high column against the low one, then
    clear the pairing of every middle column against the high column.  All
    corrections add multiples of earlier columns only, so U stays unipotent
    upper-triangular; divisions are by the constant +-1 pairings of the
    secondary diagonal.  Column t of W is homogeneous of degree -t, so a
    step adds f z^(s-t) times column s to column t and U[a][b] = u_ab z^(a-b):
    the steps run in Fractions on the constant columns c_t (coeffs), each
    stacked on its column of the identity, which becomes u.

    Only the final identity is checked; the steps cannot fail.  With pair
    the form of j on constant columns, pairing_matrix (run first) pins
    pair(c_a, c_b) to 0 for a + b <= k - 2 and to (-1)^a for a + b = k - 1.
    pair reads j's secondary diagonal only, and the pattern leaves j no
    other entry: J_rs with r + s != k - 1 lands in P[a][0] at the power
    z^(beta_r + beta_s - a), not z^(k-1-a) (palindromic, distinct beta), so
    for a < k the J_rs of one power solve sum J_rs chi_r chi_s (beta_r)_a = 0
    over distinct beta_r, a Vandermonde system: each is 0, as no chi_r is
    (det W = 1).  The same system at z^(k-1-a) makes the diagonal real.
    Before plane lo, column t in [lo, hi] is c_t plus multiples of
    c_0..c_(lo-1).  So pair(lo, hi) = (-1)^lo, and once column mid has its
    multiple of column lo, pair(mid, lo) sums only pairings of c_a, c_b
    with a + b <= mid + lo < k - 1: it is 0.
    """
    k = w.k
    pairing_matrix(w, j)  # rejects non-palindromic exponent data up front
    if any(w.exps[r] + w.exps[k - 1 - r] != (k - 1) * w.den for r in range(k)):
        raise StructureError("basis exponents are not palindromic")
    cols = [list(col) + [int(t == a) for a in range(k)] for t, col in enumerate(zip(*w.coeffs))]
    secondary = [Fraction(j.re[r][k - 1 - r], j.den) for r in range(k)]

    def pair(x: list[Fraction], y: list[Fraction]) -> Fraction:
        return sum(jr * x[r] * y[k - 1 - r] for r, jr in enumerate(secondary))

    def add_multiple(target: int, source: int, factor: Fraction):
        # column[target] += factor * column[source]; source < target keeps U upper.
        cols[target] = [x + factor * y for x, y in zip(cols[target], cols[source])]

    for lo in range(k // 2):
        hi = k - 1 - lo
        e = 1 if lo % 2 == 0 else -1  # pair(cols[lo], cols[hi])
        add_multiple(hi, lo, pair(cols[hi], cols[hi]) / (-2 * e))
        for mid in range(lo + 1, hi):
            add_multiple(mid, lo, pair(cols[mid], cols[hi]) / -e)
    # Exact verification of the final identity.
    form = tuple(tuple(ZExpr.const(x) for x in row) for row in j.entries)
    if _form_products(w, j, cols, (1,) * k) != form:
        raise StructureError("normalized columns do not reproduce the form")
    return tuple(tuple(ZExpr.monomial(cols[b][k + a], a - b) for b in range(k)) for a in range(k))
