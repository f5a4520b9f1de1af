"""Problem configuration: algebra family, rank and singularity weights.

A TodaConfig derives everything downstream code needs from (family, rank,
gamma): the ambient size k, the palindromic A-side weights, the shifted
exponents mu, both alpha vectors (the family's own and the ambient A-side
one) and the differences of the A-side one, ``shifts``, read both as the
monodromy exponents and as the Cauchy-Euler shifts.  The cross-family
relations between the two alpha vectors are verified exactly at
construction time.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .exact import Record, as_fraction
from .lie import (
    Algebra,
    a_side_alpha,
    alpha_differences,
    alpha_from_gamma,
    check_gamma,
    symmetrized_gamma,
)


class TodaConfig(Record):
    algebra: Algebra
    gamma: tuple[Fraction, ...]

    # Derived in __post_init__ as plain attributes, not fields: the Fraction
    # tuples gamma_tilde, mu_tilde, alpha, alpha_tilde and shifts.  They are
    # functions of the fields, so equality and hash read the fields alone.

    def __post_init__(self):
        g = check_gamma(self.algebra, self.gamma)
        object.__setattr__(self, "gamma", g)
        gt = symmetrized_gamma(self.algebra, g)
        object.__setattr__(self, "gamma_tilde", gt)
        object.__setattr__(self, "mu_tilde", tuple(x + 1 for x in gt))
        alpha = alpha_from_gamma(self.algebra, g)
        object.__setattr__(self, "alpha", alpha)
        at = a_side_alpha(gt)
        object.__setattr__(self, "alpha_tilde", at)
        object.__setattr__(self, "shifts", alpha_differences(at))
        self._check_alpha_relations()

    def _check_alpha_relations(self):
        n = self.algebra.rank
        fam = self.algebra.family
        at, alpha = self.alpha_tilde, self.alpha
        if fam == "A":
            if at != alpha:
                raise ArithmeticError("A-side alphas disagree with the family alphas")
            return
        if fam == "C":
            expected = [alpha[i] for i in range(n)]
        else:
            expected = [(2 if i == n - 1 else 1) * alpha[i] for i in range(n)]
        for i in range(n):
            if at[i] != expected[i]:
                raise ArithmeticError(f"alpha relation fails at index {i + 1}")
        for i in range(len(at)):
            if at[i] != at[len(at) - 1 - i]:
                raise ArithmeticError("A-side alpha vector must be palindromic")

    @property
    def k(self) -> int:
        return self.algebra.k

    @property
    def rank(self) -> int:
        return self.algebra.rank

    @property
    def family(self) -> str:
        return self.algebra.family


def make_config(family: str, rank: int, gamma: Sequence) -> TodaConfig:
    return TodaConfig(Algebra(family, rank), tuple(as_fraction(x) for x in gamma))
