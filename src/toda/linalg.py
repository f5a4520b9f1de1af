"""Small generic matrix helpers over exact coefficient rings.

Matrices are sequences of row sequences whose entries support +, -, * (and,
for inversion, /).  Everything here works for both ExactScalar and ZExpr
entries; nothing is numeric.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, TypeVar

T = TypeVar("T")

Matrix = Sequence[Sequence[T]]


def transpose(m: Matrix) -> tuple[tuple, ...]:
    return tuple(zip(*[tuple(row) for row in m]))


def mat_mul(a: Matrix, b: Matrix, zero: T) -> tuple[tuple, ...]:
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def det(m: Matrix, zero: T, one: T) -> T:
    """Exact determinant by expansion over column subsets.

    Processes columns left to right; state is the set of used rows, so the
    cost is O(2^k * k) ring multiplications.  Works over any commutative
    ring.
    """
    k = len(m)
    if k == 0:
        return one
    rows = [tuple(row) for row in m]
    if any(len(row) != k for row in rows):
        raise ValueError("determinant of a non-square matrix")
    # state[mask] = signed sum over row subsets `mask` of the minor built
    # from the first popcount(mask) columns.
    state = {0: one}
    for col in range(k):
        new_state: dict[int, T] = {}
        for mask, val in state.items():
            for r in range(k):
                bit = 1 << r
                if mask & bit:
                    continue
                entry = rows[r][col]
                # Parity flips once per already-used row below row r.
                flips = bin(mask >> (r + 1)).count("1")
                term = val * entry if flips % 2 == 0 else -(val * entry)
                key = mask | bit
                cur = new_state.get(key)
                new_state[key] = term if cur is None else cur + term
        state = new_state
    return state[(1 << k) - 1]


def invert_fraction_matrix(m: Matrix) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square matrix with int/Fraction entries."""
    k = len(m)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(k)]
         for i, row in enumerate(m)]
    for col in range(k):
        pivot = next((r for r in range(col, k) if a[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular matrix")
        a[col], a[pivot] = a[pivot], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(k):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return tuple(tuple(row[k:]) for row in a)


def identity_rows(k: int, zero: T, one: T) -> tuple[tuple, ...]:
    return tuple(
        tuple(one if i == j else zero for j in range(k)) for i in range(k)
    )
