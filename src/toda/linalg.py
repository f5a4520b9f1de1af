"""Small generic matrix helpers over exact coefficient rings.

Matrices are sequences of row sequences with entries that support +, - and
*: ExactScalar, ZExpr or int, save that invert_fraction_matrix takes
int/Fraction entries and leading_minors ints.  Nothing is numeric.
leading_minors gives det W on the Wronskian's table and the symmetry
certificate its minors mod p.  minor_table also runs on ints reduced mod a
modulus: a group element of dim 9 or more keeps one such lazy table over
its integer form d*A = re + i*im, holding each entry a + b*i as the one int
a + b*2^w, a balanced residue mod 2^(2w) + 1, with w wide enough by
Hadamard's bound that every value it is read for is exact (exact.pack and
exact.unpack).  Smaller elements keep a dense table of every minor,
built in groups instead; groups.ul_cholesky reads its leading minors from
a one-off lazy table of this kind at every dim.
mat_mul and det have no program caller; they serve the tests as oracles of
products and determinants.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence, TypeVar

T = TypeVar("T")

Matrix = Sequence[Sequence[T]]


def transpose(m: Matrix) -> tuple[tuple, ...]:
    return tuple(zip(*[tuple(row) for row in m]))


def mat_mul(a: Matrix, b: Matrix, zero: T) -> tuple[tuple, ...]:
    """Exact product a @ b; a product with an `is_zero` factor is skipped."""
    bt = transpose(b)
    out = []
    for row in a:
        out_row = []
        for col in bt:
            acc = zero
            for x, y in zip(row, col):
                if not (x.is_zero or y.is_zero):
                    acc = acc + x * y
            out_row.append(acc)
        out.append(tuple(out_row))
    return tuple(out)


def minor_table(m: Matrix, zero: T, one: T, modulus: int = 0) -> MinorTable:
    """Memoized minors of `m`, looked up by same-size 0-based row and column sets.

    Entries may be ExactScalar, ZExpr or ints; with a nonzero `modulus`,
    ints reduced mod it.
    Each minor is the Laplace expansion along its last column over minors
    one size smaller, computed on first read and once per table; falsy
    (zero) entries are skipped.  A full determinant costs O(2^k * k) ring
    multiplications, every minor O(sum_j j * C(k,j)^2).  The empty minor is
    `one`.

    The table has two entry points: a call table(rows, cols) takes index
    sets and checks that their sizes agree; table.mask(rmask, cmask) takes
    the sets as bit masks (bit i set for row or column i) and checks
    nothing, for loops that already walk masks.  Both read one memo keyed
    by one int, rmask << c | cmask with c the column count: one small int
    per entry instead of a tuple of two, for tables shared by thousands of
    lookups.

    `modulus` is internal to groups: the tables of its elements of dim 9 or
    more, and the one-off table of ul_cholesky, hold the packed entries of
    d*A = re + i*im, ints mod
    n = 2^(2w) + 1 (exact.pack), and pass n.  Each minor is then reduced once, when
    stored, to its balanced residue in (-n/2, n/2], so stored minors do not
    grow with their size and a minor with small parts stays a short int;
    the width w makes every value read back exact (exact.unpack).  With the
    default 0 nothing is reduced.
    """
    return MinorTable(m, zero, one, modulus)


class MinorTable:
    """The memo of minor_table and its two entry points; see there."""

    def __init__(self, m: Matrix, zero: T, one: T, modulus: int = 0):
        self._m = m
        self._zero = zero
        self._modulus = modulus
        self._width = len(m[0]) if m else 0
        self._memo = {0: one}

    def __call__(self, rows: Iterable[int], cols: Iterable[int]) -> T:
        rmask = sum(1 << r for r in rows)
        cmask = sum(1 << c for c in cols)
        if rmask.bit_count() != cmask.bit_count():
            raise ValueError("row and column index sets differ in size")
        return _minor(self._m, self._memo, self._zero, self._modulus, self._width, rmask, cmask)

    def mask(self, rmask: int, cmask: int) -> T:
        """The minor on the rows of rmask and the columns of cmask (same bit count)."""
        val = self._memo.get(rmask << self._width | cmask)
        if val is None:
            val = _minor(self._m, self._memo, self._zero, self._modulus, self._width, rmask, cmask)
        return val


def _minor(m: Matrix, memo: dict, zero: T, modulus: int, width: int, rmask: int, cmask: int) -> T:
    # Module-level recursion: a recursive closure would make each table a
    # reference cycle, freed only by the cyclic garbage collector.  Memo hits
    # of the smaller minors are read inline, before any recursive call.
    key = rmask << width | cmask
    val = memo.get(key)
    if val is None:
        col = cmask.bit_length() - 1
        sub = cmask ^ (1 << col)
        negate = rmask.bit_count() % 2 == 0  # sign (-1)^(pos + size - 1)
        val, rest = zero, rmask
        while rest:
            bit = rest & -rest
            rest ^= bit
            entry = m[bit.bit_length() - 1][col]
            if entry:
                rows = rmask ^ bit
                below = memo.get(rows << width | sub)
                if below is None:
                    below = _minor(m, memo, zero, modulus, width, rows, sub)
                term = entry * below
                val = val - term if negate else val + term
            negate = not negate
        if modulus:
            val %= modulus
            if val > modulus >> 1:
                val -= modulus
        memo[key] = val
    return val


def det(m: Matrix, zero: T, one: T) -> T:
    """Exact determinant: the full minor of a fresh `minor_table`.

    Raises ValueError on a non-square matrix; the 0x0 determinant is `one`.
    """
    k = len(m)
    if any(len(row) != k for row in m):
        raise ValueError("determinant of a non-square matrix")
    return minor_table(m, zero, one)(range(k), range(k))


def leading_minors(m: Sequence[Sequence[int]], modulus: int = 0) -> list[int] | None:
    """Every leading principal minor of a square int matrix, or None if one is 0.

    Bareiss elimination without row exchanges: step t sets
    a[i][j] = (a[i][j] a[t][t] - a[i][t] a[t][j]) / p for i, j > t, p the
    pivot of step t - 1 (1 at t = 0), and its pivot a[t][t] is the leading
    minor of size t + 1.  With modulus 0 the division is exact over Z; with
    a prime modulus, entries are residues and p is inverted mod it.  The
    input is not changed.  Raises ValueError on a non-square matrix.
    """
    k = len(m)
    if any(len(row) != k for row in m):
        raise ValueError("leading minors of a non-square matrix")
    a = [[x % modulus for x in row] if modulus else list(row) for row in m]
    out, prev = [], 1
    for t, pivot_row in enumerate(a):
        pivot = pivot_row[t]
        if not pivot:
            return None
        out.append(pivot)
        inverse = pow(prev, -1, modulus) if modulus else 0
        for row in a[t + 1:]:
            f = row[t]
            for j in range(t + 1, k):
                x = row[j] * pivot - f * pivot_row[j]
                row[j] = x * inverse % modulus if modulus else x // prev
        prev = pivot
    return out


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
