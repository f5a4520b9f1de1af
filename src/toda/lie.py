"""Cartan matrices, positive root systems and singularity data for A/C/B.

Roots are stored as nonnegative integer coefficient vectors over the simple
roots tau_1..tau_n, so pairing a root against a rational weight vector is a
plain dot product.  The lower-triangular coordinate slots of the unipotent
group and their root labels follow the convention where the free slot
(i, j), 0-indexed with j < i, covers rows down to the secondary diagonal.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .exact import Record, as_fraction, format_fraction
from .linalg import invert_fraction_matrix

FAMILIES = ("A", "C", "B")


class Algebra(Record):
    """One of the families A_n, C_n, B_n."""

    __slots__ = ("family", "rank")
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}, expected one of {FAMILIES}")
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")

    @property
    def k(self) -> int:
        """Ambient matrix size: n+1 for A_n, 2n for C_n, 2n+1 for B_n."""
        n = self.rank
        return {"A": n + 1, "C": 2 * n, "B": 2 * n + 1}[self.family]

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class CartanData(Record):
    matrix: tuple[tuple[int, ...], ...]
    inverse: tuple[tuple[Fraction, ...], ...]


@lru_cache(maxsize=None)
def cartan(algebra: Algebra) -> CartanData:
    """Cartan matrix and its exact inverse."""
    n = algebra.rank
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 2
        if i + 1 < n:
            rows[i][i + 1] = -1
        if i - 1 >= 0:
            rows[i][i - 1] = -1
    if n >= 2:
        if algebra.family == "C":
            rows[n - 1][n - 2] = -2
        elif algebra.family == "B":
            rows[n - 2][n - 1] = -2
    matrix = tuple(tuple(r) for r in rows)
    inverse = invert_fraction_matrix(matrix)
    # a * a_inv must be the exact identity.
    for i in range(n):
        for j in range(n):
            acc = sum(Fraction(matrix[i][l]) * inverse[l][j] for l in range(n))
            if acc != (1 if i == j else 0):
                raise ArithmeticError("Cartan inverse failed exactness check")
    return CartanData(matrix, inverse)


def check_gamma(algebra: Algebra, gamma: Sequence) -> tuple[Fraction, ...]:
    g = tuple(as_fraction(x) for x in gamma)
    if len(g) != algebra.rank:
        raise ValueError(f"need {algebra.rank} weights for {algebra}, got {len(g)}")
    for x in g:
        if x <= -1:
            raise ValueError(f"weights must be > -1, got {x}")
    return g


def alpha_from_gamma(algebra: Algebra, gamma: Sequence) -> tuple[Fraction, ...]:
    """alpha = (inverse Cartan matrix) . gamma, exact."""
    g = check_gamma(algebra, gamma)
    inv = cartan(algebra).inverse
    return tuple(sum((row[j] * g[j] for j in range(len(g))), Fraction(0)) for row in inv)


class Root(Record):
    """Positive root as coefficients over the simple roots."""

    __slots__ = ("coeffs",)
    coeffs: tuple[int, ...]

    def value(self, gamma: Sequence[Fraction]) -> Fraction:
        """Pairing against a weight vector: sum of m_i * gamma_i."""
        return sum((m * g for m, g in zip(self.coeffs, gamma)), Fraction(0))

    def __str__(self) -> str:
        bits = []
        for i, m in enumerate(self.coeffs, start=1):
            if m == 0:
                continue
            bits.append(f"tau{i}" if m == 1 else f"{m}*tau{i}")
        return "+".join(bits) if bits else "0"

    def __add__(self, other: Root) -> Root:
        return Root(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


def _interval(n: int, lo: int, hi: int) -> list[int]:
    # Indicator vector of tau_lo..tau_hi (1-based, inclusive; empty if lo > hi).
    return [1 if lo <= l <= hi else 0 for l in range(1, n + 1)]


def _vec_add(a: list[int], b: list[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def positive_roots(algebra: Algebra) -> tuple[Root, ...]:
    """All positive roots: n(n+1)/2 for A_n, n^2 for C_n and B_n."""
    n = algebra.rank
    roots: list[Root] = []
    if algebra.family == "A":
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                roots.append(Root(tuple(_interval(n, i, j))))
    elif algebra.family == "C":
        for i in range(1, n + 1):          # L_i - L_j, i < j
            for j in range(i + 1, n + 1):
                roots.append(Root(tuple(_interval(n, i, j - 1))))
        for i in range(1, n + 1):          # L_i + L_j, i <= j
            for j in range(i, n + 1):
                roots.append(Root(_vec_add(_interval(n, i, n - 1), _interval(n, j, n))))
    else:                                   # B
        for i in range(1, n + 1):          # L_i - L_{j+1}, i <= j  (L_{n+1} = 0)
            for j in range(i, n + 1):
                roots.append(Root(tuple(_interval(n, i, j))))
        for i in range(1, n + 1):          # L_i + L_j, i < j
            for j in range(i + 1, n + 1):
                roots.append(Root(_vec_add(_interval(n, i, n), _interval(n, j, n))))
    return tuple(roots)


def slot_name(i: int, j: int) -> str:
    """Coordinate name of slot (i, j): "c{i}{j}", or "c{i}_{j}" once an index is >= 10."""
    if i >= 10 or j >= 10:
        return f"c{i}_{j}"
    return f"c{i}{j}"


class CoordinateSlot(Record):
    """Free lower-triangular coordinate (row, col) with its root label."""

    __slots__ = ("row", "col", "root")
    row: int
    col: int
    root: Root

    @property
    def name(self) -> str:
        return slot_name(self.row, self.col)


def _slot_root(algebra: Algebra, i: int, j: int) -> Root:
    n = algebra.rank
    if algebra.family == "A":
        return Root(tuple(_interval(n, j + 1, i)))
    if algebra.family == "C":
        if i <= n - 1:
            return Root(tuple(_interval(n, j + 1, i)))
        p, q = j + 1, 2 * n - i
        return Root(_vec_add(_interval(n, p, n - 1), _interval(n, q, n)))
    # B
    if i <= n:
        return Root(tuple(_interval(n, j + 1, i)))
    p, q = j + 1, 2 * n + 1 - i
    return Root(_vec_add(_interval(n, p, n), _interval(n, q, n)))


@lru_cache(maxsize=None)
def coordinate_map(algebra: Algebra) -> tuple[CoordinateSlot, ...]:
    """Free coordinates of the unipotent lower-triangular group, with roots.

    For C_n and B_n the free slots are (i, j) with j < i <= 2n-1-j and the
    map onto the n^2 positive roots is a bijection; for A_n every strictly
    lower slot is free.  Slots are ordered by band i-j, then by column.
    """
    n = algebra.rank
    k = algebra.k
    slots: list[CoordinateSlot] = []
    for band in range(1, k):
        for j in range(0, k - band):
            i = j + band
            limit = k - 1 if algebra.family == "A" else 2 * n - 1 - j
            if i <= limit:
                slots.append(CoordinateSlot(i, j, _slot_root(algebra, i, j)))
    expected = {"A": n * (n + 1) // 2, "C": n * n, "B": n * n}[algebra.family]
    if len(slots) != expected:
        raise ArithmeticError("free-slot count mismatch")
    if {s.root.coeffs for s in slots} != {r.coeffs for r in positive_roots(algebra)}:
        raise ArithmeticError("slot-to-root map is not a bijection onto the positive roots")
    return tuple(slots)


def delta_gamma(algebra: Algebra, gamma: Sequence) -> tuple[Root, ...]:
    """Positive roots whose pairing with gamma is an integer.

    The returned set is closed under addition inside the positive roots.
    """
    g = check_gamma(algebra, gamma)
    members = tuple(r for r in positive_roots(algebra) if r.value(g).denominator == 1)
    all_pos = {r.coeffs for r in positive_roots(algebra)}
    chosen = {r.coeffs for r in members}
    for a in members:
        for b in members:
            s = tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
            if s in all_pos and s not in chosen:
                raise ArithmeticError("integral root set is not closed under addition")
    return members


def symmetrized_gamma(algebra: Algebra, gamma: Sequence) -> tuple[Fraction, ...]:
    """Length k-1 palindromic weight vector realizing C/B inside A_{k-1}.

    For A the input is returned unchanged (no palindrome requirement).
    """
    g = check_gamma(algebra, gamma)
    n = algebra.rank
    if algebra.family == "A":
        return g
    if algebra.family == "C":
        return g + tuple(reversed(g[: n - 1]))
    return g + tuple(reversed(g))


def a_side_alpha(gamma_tilde: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """alpha vector of the ambient A-family system for given weights."""
    m = len(gamma_tilde)
    return alpha_from_gamma(Algebra("A", m), gamma_tilde)


class MonodromyElement(Record):
    """Diagonal monodromy action of z -> e^(-2 pi i) z on the basis vector.

    Stored exactly as the rational exponent vector d: the matrix is
    diag(exp(2 pi i d_0), ..., exp(2 pi i d_{k-1})).  Conjugation by the
    element fixes the (i, j) matrix slot iff d_i - d_j is an integer, so
    equality and commutation tests reduce to integer tests on exponent
    differences.
    """

    exponents: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.exponents)

    def fixes_slot(self, i: int, j: int) -> bool:
        return (self.exponents[i] - self.exponents[j]).denominator == 1


def alpha_differences(alpha_tilde: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """The k differences (at1, at2-at1, ..., -at_{k-1}) of (0, alpha_tilde, 0).

    They are both the monodromy exponents and the shifts of the factors of
    the Cauchy-Euler operator; TodaConfig.shifts holds them once per config.
    They telescope: their sum is 0.
    """
    padded = (Fraction(0), *alpha_tilde, Fraction(0))
    return tuple(b - a for a, b in zip(padded, padded[1:]))


def format_root_table(algebra: Algebra, gamma: Sequence) -> list[dict]:
    """Rows pairing each free slot with its root, pairing value and membership.

    Membership is read from delta_gamma, which also checks that the integral
    roots are closed under addition.
    """
    g = check_gamma(algebra, gamma)
    member = {r.coeffs for r in delta_gamma(algebra, gamma)}
    rows = []
    for slot in coordinate_map(algebra):
        rows.append(
            {
                "slot": slot.name,
                "root": list(slot.root.coeffs),
                "root_str": str(slot.root),
                "value": format_fraction(slot.root.value(g)),
                "integral": slot.root.coeffs in member,
            }
        )
    return rows
