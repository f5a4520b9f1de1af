import random
from fractions import Fraction

from toda import SolutionParams
from toda.basis import _sigma_terms
from toda.exact import SCALAR_ONE, SCALAR_ZERO, ExactScalar, Monomial, ZExpr
from toda.groups import (
    GroupElement,
    UnipotentCoords,
    diagonal_element,
    is_in_group,
    random_coords,
    random_paired_diagonal,
    restrict_to_ngamma,
    unipotent_from_coords,
)
from toda.lie import Algebra, coordinate_map, delta_gamma


class GaussInt:
    """Gaussian integer re + im*i with int parts: the oracle ring of integer minor tables.

    Only +, -, *, equality and truthiness, what linalg.minor_table and
    linalg.det use; a minor over it needs no modulus and no gcd.
    """

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0):
        self.re = re
        self.im = im

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __add__(self, other):
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        return GaussInt(self.re * other.re - self.im * other.im, self.re * other.im + self.im * other.re)

    def __eq__(self, other) -> bool:
        return isinstance(other, GaussInt) and (self.re, self.im) == (other.re, other.im)

    def __repr__(self) -> str:
        return f"GaussInt({self.re}, {self.im})"


GAUSS_ZERO = GaussInt(0)
GAUSS_ONE = GaussInt(1)


def replace(record, **changes):
    """A copy of a toda Record with the named fields changed; the constructor runs again."""
    values = {name: getattr(record, name) for name in record._fields}
    values.update(changes)
    return type(record)(**values)


def gauss_rows(g: GroupElement) -> tuple[tuple[GaussInt, ...], ...]:
    """The integer form re + i*im of a group element as a matrix of GaussInts."""
    return tuple(tuple(map(GaussInt, a, b)) for a, b in zip(g.re, g.im))


def zbar_pow(exp) -> ZExpr:
    """The monomial conj(z)^exp."""
    return ZExpr.monomial(1, 0, exp)


def diff_z(f: ZExpr) -> ZExpr:
    """The derivative of f in z, term by term."""
    return ZExpr.from_terms(
        Monomial(t.coeff * t.exp_z, t.exp_z - 1, t.exp_zbar) for t in f.terms if t.exp_z != 0
    )


def diff_zbar(f: ZExpr) -> ZExpr:
    """The derivative of f in conj(z), term by term."""
    return ZExpr.from_terms(
        Monomial(t.coeff * t.exp_zbar, t.exp_z, t.exp_zbar - 1) for t in f.terms if t.exp_zbar != 0
    )


def sigma_vector(mu) -> tuple[ZExpr, ...]:
    """The nested antiderivatives sigma_i of the powers z^(mu_i - 1), as ZExprs."""
    return tuple(ZExpr.monomial(c, e) for c, e in _sigma_terms(mu))


def falling(x: Fraction, n: int) -> Fraction:
    """The falling factorial (x)_n = x (x - 1) ... (x - n + 1)."""
    out = Fraction(1)
    for i in range(n):
        out *= x - i
    return out


def cauchy_euler_shifts(config) -> tuple[Fraction, ...]:
    """Shifts s_t of the factors d/dz + s_t/z of the Cauchy-Euler operator L.

    s_t is the difference of consecutive A-side alphas, padded with 0 on
    both ends; the factor of s_0 acts first.
    """
    padded = (Fraction(0),) + tuple(config.alpha_tilde) + (Fraction(0),)
    return tuple(b - a for a, b in zip(padded, padded[1:]))


def apply_factors(shifts, f: ZExpr) -> ZExpr:
    """Oracle for the Cauchy-Euler operator: apply d/dz + s/z for each shift in turn, on ZExpr."""
    for s in shifts:
        f = diff_z(f) + ZExpr.monomial(s, -1) * f
    return f


def fraction_unipotent_from_coords(algebra: Algebra, coords: UnipotentCoords) -> GroupElement:
    """Oracle for groups.unipotent_from_coords: the same solve on ExactScalars.

    Dependent entries are solved by forward substitution in increasing band
    i-j: each constraint row of C^t J C = J is linear in the single newest
    unknown, which is divided out in Fraction arithmetic.
    """
    k = algebra.k
    rows: list[list[ExactScalar]] = [
        [SCALAR_ONE if i == j else SCALAR_ZERO for j in range(k)] for i in range(k)
    ]
    free = {(s.row, s.col) for s in coordinate_map(algebra)}
    for (i, j), v in coords.values.items():
        rows[i][j] = v
    if algebra.family != "A":
        dependent = [(i, j) for j in range(k) for i in range(j + 1, k) if (i, j) not in free]
        dependent.sort(key=lambda ij: (ij[0] - ij[1], ij[1]))
        for (i, j) in dependent:
            p, q = k - 1 - i, j
            coeff = SCALAR_ZERO
            const = SCALAR_ZERO
            for r in range(p, k - q):
                sign = -1 if r % 2 else 1
                left = (r, p)
                right = (k - 1 - r, q)
                if left == (i, j):
                    coeff = coeff + sign * rows[right[0]][right[1]]
                elif right == (i, j):
                    coeff = coeff + sign * rows[left[0]][left[1]]
                else:
                    const = const + sign * rows[left[0]][left[1]] * rows[right[0]][right[1]]
            # Target is J[p][q]; here p + q < k - 1 always, so the target is 0.
            rows[i][j] = (-const) / coeff
    return GroupElement.from_rows(rows)


def sample_positive_hermitian(algebra: Algebra, seed: int, bound: int = 3) -> GroupElement:
    """Seeded Hermitian positive-definite group element H = B^dag B, B = diag * unip."""
    rng = random.Random(seed)
    c = unipotent_from_coords(algebra, random_coords(algebra, rng, bound))
    lam = diagonal_element(random_paired_diagonal(algebra.k, rng, bound))
    b = lam @ c
    h = b.conj_transpose() @ b
    if not is_in_group(h):
        raise ArithmeticError("Hermitian sample left the group")
    return h


def random_gamma(rng: random.Random, rank: int, max_den: int = 4) -> tuple[Fraction, ...]:
    """Rational weights > -1 with small denominators."""
    out = []
    for _ in range(rank):
        den = rng.randint(1, max_den)
        num = rng.randint(-den + 1, 2 * den)
        out.append(Fraction(num, den))
    return tuple(out)


def random_palindromic_gamma(rng: random.Random, rank: int) -> tuple[Fraction, ...]:
    """A-family weights whose symmetrized vector is itself (palindrome)."""
    g = list(random_gamma(rng, (rank + 1) // 2))
    full = g + list(reversed(g[: rank // 2]))
    return tuple(full)


def random_params(config, rng: random.Random, bound: int = 2, restrict: bool = True) -> SolutionParams:
    """Random positive diagonal weights and (optionally restricted) coordinates."""
    alg = config.algebra
    if config.family == "A":
        lams = [Fraction(rng.randint(1, bound + 1), rng.randint(1, bound + 1)) for _ in range(config.k - 1)]
        prod = Fraction(1)
        for x in lams:
            prod *= x
        lams.append(1 / prod)
        coords = random_coords(alg, rng, bound)
    else:
        lams = [Fraction(rng.randint(1, bound + 1), rng.randint(1, bound + 1)) for _ in range(config.k // 2)]
        coords = random_coords(alg, rng, bound)
    if restrict:
        coords, _ = restrict_to_ngamma(coords, delta_gamma(alg, config.gamma))
    return SolutionParams.of(lams, coords)
