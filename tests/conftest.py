import random
from fractions import Fraction

from toda import SolutionParams
from toda.exact import Monomial, ZExpr
from toda.groups import (
    GroupElement,
    diagonal_element,
    is_in_group,
    random_coords,
    random_paired_diagonal,
    restrict_to_ngamma,
    unipotent_from_coords,
)
from toda.lie import Algebra, delta_gamma


def zbar_pow(exp) -> ZExpr:
    """The monomial conj(z)^exp."""
    return ZExpr.monomial(1, 0, exp)


def diff_zbar(f: ZExpr) -> ZExpr:
    """The derivative of f in conj(z), term by term."""
    return ZExpr.from_terms(
        Monomial(t.coeff * t.exp_zbar, t.exp_z, t.exp_zbar - 1) for t in f.terms if t.exp_zbar != 0
    )


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
