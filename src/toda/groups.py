"""Secondary-diagonal bilinear forms, symplectic/orthogonal matrices, minors.

The form J_k has entries (J_k)[i][k-1-i] = (-1)^i (0-indexed rows top-down);
it is skew for even k and symmetric for odd k, with J^-1 = (-1)^(k-1) J.
A matrix A belongs to the group when A^t J A = J and det A = 1; the even
case is the symplectic group, the odd case the special orthogonal group.

A GroupElement stores only its integer form: the triple (den, re, im),
with d*A = re + i*im for two int matrices re and im and d the lcm of the
entry denominators, kept in lowest terms.  Products, membership,
determinants and minors run on it; the ExactScalar entries are built only
when read.  A product is (d_a*d_b, (d_a A)(d_b B)), reduced by the gcd of
its parts.  Each element caches one minor table over d*A (_packed_minors),
built on first use and shared by the membership test, det, minor,
all_minors, classify_by_minors and the minor-identity check;
ul_cholesky, which reads only the k leading principal minors, builds a
one-off lazy table instead.
Up to dim _DENSE_DIM = 8 it is one dense table of all the minors, built
level by level (_DenseMinorTable); from dim 9, where the identity check
reads a sample and a dense build costs more than the minors it reads, it
is the lazy memo of linalg.minor_table, which computes only the minors
read.  The table is over packed rows: each Gaussian integer a + b*i is
the one int a + b*2^w mod n = 2^(2w) + 1, a ring homomorphism since
(2^w)^2 = -1 mod n, with w from Hadamard's bound on the rows (exact.pack).
Entries and minors are stored as balanced residues, in (-n/2, n/2], so a
minor with small parts stays a short int.  At that width every minor, and
every difference the checks compare, has parts below 2^(w-1): a difference
is 0 mod n only if it is 0, and exact.unpack recovers a minor from its
residue.  A minor is unpacked and converted to ExactScalar only when
returned (divided by d^m for size m); the identity check and
classify_by_minors compare residues and unpack only a failing pair.  The
membership test checks (dA)^t J (dA) = d^2 J on the int parts and
det(dA) = d^k, once per element.

Every dense table of one dimension shares one plan (_minor_plan: the subsets
of each size, the position of each bit mask, the Laplace expansion lists
and the position of each set's mirror iota(comp S)), read by its build and
by the exhaustive minor-identity walk, which compares the level lists of
sizes m <= k // 2 with those of k - m by position.  Beyond dim
_EXHAUSTIVE_DIM = 7 the walk reads 2000 mask pairs (S, iota(comp S)),
drawn once per dimension as a size, then S, then T by
random.Random(0).choice (_identity_pairs), from the dense table at dim 8
and from the lazy one beyond.

Also here: the two-sided minor characterization of group membership, the
reversed Cholesky factorization H = B^dag B with B lower-triangular, the
diagonal/unipotent split, the constraint solver filling a unipotent group
element from its free coordinates, and a seeded sampler of exact group
elements.  The solver runs on Gaussian integers: with delta = d (A, C) or
2d (B), d the lcm of the coordinate denominators, each entry scaled to
X[i][j] = delta^(i-j) C[i][j] is a Gaussian integer, each constraint is
homogeneous in that grading, each dependent entry is one exact division by
+-1 or +-2, and the element is (delta^(k-1), X[i][j] delta^(k-1-(i-j))).

Index sets for the public minor API are 1-based sorted tuples, matching the
inversion iota(j) = k+1-j.
"""

from __future__ import annotations

import random
from functools import cached_property, lru_cache
from fractions import Fraction
from itertools import combinations
from math import comb, gcd, lcm
from typing import Iterable, Mapping, Sequence

from .exact import (
    CheckFailed,
    ExactScalar,
    IntRows,
    SCALAR_ONE,
    SCALAR_ZERO,
    Record,
    as_fraction,
    pack,
    packing_modulus,
    scalar_over,
    scale_to_gaussian,
    scale_to_ints,
    sqrt_fraction,
    unpack,
)
from .lie import Algebra, Root, coordinate_map, slot_name
from .linalg import identity_rows, minor_table, transpose


class CardinalityError(ValueError):
    """Row and column index sets must have the same size."""


class IdentityViolation(AssertionError):
    """A minor identity required of group elements failed; carries (S, T)."""

    def __init__(self, S, T, lhs, rhs):
        super().__init__(f"minor identity fails at S={S}, T={T}: {lhs} != {rhs}")
        self.witness = (S, T)
        self.lhs = lhs
        self.rhs = rhs


class NotPositiveDefinite(CheckFailed):
    """Hermitian input has a non-positive leading principal minor."""

    def __init__(self, order, value):
        super().__init__(f"leading principal minor of order {order} is {value}")
        self.order = order
        self.value = value


class SingularDiagonal(CheckFailed):
    """Lower-triangular matrix has a zero diagonal entry."""


class NonzeroForbiddenCoordinate(CheckFailed):
    """A supplied coordinate is nonzero but its root is not integral."""

    def __init__(self, slot_name, value):
        super().__init__(f"coordinate {slot_name} = {value} must vanish")
        self.slot_name = slot_name


MatrixRows = tuple[tuple[ExactScalar, ...], ...]


class GroupElement(Record):
    """Square matrix A over the Gaussian rationals, stored as its integer form.

    ``re`` and ``im`` are int matrices with d*A = re + i*im, and ``den`` is
    d > 0.  Construction stores both as tuples of int tuples and divides den
    and every entry by their gcd, so d is the lcm of the entry denominators,
    (den, re, im) is what exact.scale_to_gaussian returns for A, and
    elements are equal (and hash the same) iff their matrices are.  The
    ExactScalar rows ``entries`` are built only when read.
    """

    den: int
    re: IntRows
    im: IntRows

    def __post_init__(self):
        k = len(self.re)
        if len(self.im) != k or any(len(row) != k for part in (self.re, self.im) for row in part):
            raise ValueError("matrix must be square")
        if self.den <= 0:
            raise ValueError("denominator must be positive")
        g = gcd(self.den, *(x for part in (self.re, self.im) for row in part for x in row))
        for name in ("re", "im"):
            rows = getattr(self, name)
            if g > 1:
                rows = [[x // g for x in row] for row in rows]
            object.__setattr__(self, name, tuple(map(tuple, rows)))
        object.__setattr__(self, "den", self.den // g)

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> GroupElement:
        """The element with int, Fraction or ExactScalar entries ``rows``."""
        return GroupElement(*scale_to_gaussian([
            [x if isinstance(x, ExactScalar) else ExactScalar.of(as_fraction(x)) for x in row]
            for row in rows
        ]))

    @staticmethod
    def identity(k: int) -> GroupElement:
        return GroupElement(1, identity_rows(k, 0, 1), ((0,) * k,) * k)

    @cached_property
    def entries(self) -> MatrixRows:
        """The matrix A as ExactScalar rows, built on first read."""
        den = self.den
        return tuple(
            tuple(scalar_over(x, y, den) for x, y in zip(a, b)) for a, b in zip(self.re, self.im)
        )

    @property
    def dim(self) -> int:
        return len(self.re)

    def __getitem__(self, ij: tuple[int, int]) -> ExactScalar:
        return self.entries[ij[0]][ij[1]]

    def __matmul__(self, other: GroupElement) -> GroupElement:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")
        return GroupElement(self.den * other.den, *_gauss_product(self, other))

    def transpose(self) -> GroupElement:
        return GroupElement(self.den, transpose(self.re), transpose(self.im))

    def conj_transpose(self) -> GroupElement:
        conj = [[-y for y in col] for col in zip(*self.im)]
        return GroupElement(self.den, transpose(self.re), conj)

    @cached_property
    def _packed_minors(self):
        """(w, table): the one minor table of d*A, packed at width w (exact.pack).

        table(rows, cols), over same-size 0-based sets that are not
        validated, or table.mask(rmask, cmask) over their bit masks, is the
        balanced residue, in (-n/2, n/2], of the packed Gaussian integer
        minor(dA; rows, cols) = d^|rows| * minor(A; rows, cols) mod
        n = 2^(2w) + 1; unpack(value, w) gives it back exactly.  By
        Hadamard's bound (exact.pack), d^(k-m) times any size-m minor has
        parts of at most H < 2^(w-2), so a difference of two such products
        is 0 iff it is 0 mod n.  For k <= _DENSE_DIM the table is a
        _DenseMinorTable of all C(2k, k) minors, whose plan and level lists
        the exhaustive identity walk reads by position (and the sampled
        walk at dim 8 by mask), else a lazy linalg.minor_table.
        """
        w, rows = pack(self.den, self.re, self.im)
        n = packing_modulus(w)
        if self.dim <= _DENSE_DIM:
            return w, _DenseMinorTable(rows, n)
        return w, minor_table(rows, 0, 1, n)

    @cached_property
    def _in_group(self) -> bool:
        """Verdict of is_in_group, computed once per element."""
        return _preserves_form(self) and self.det() == SCALAR_ONE

    def det(self) -> ExactScalar:
        w, table = self._packed_minors
        full = (1 << self.dim) - 1
        return scalar_over(*unpack(table.mask(full, full), w), self.den ** self.dim)

    def is_hermitian(self) -> bool:
        return self.conj_transpose() == self


def _gauss_product(a: GroupElement, b: GroupElement) -> tuple[list[list[int]], list[list[int]]]:
    """(re, im) of the product of the integer forms of a and b, summed on int parts.

    The zero entries of each row of a are skipped.
    """
    cols = [list(zip(c, e)) for c, e in zip(zip(*b.re), zip(*b.im))]
    re_out, im_out = [], []
    for re_row, im_row in zip(a.re, a.im):
        terms = [(r, p, q) for r, (p, q) in enumerate(zip(re_row, im_row)) if p or q]
        re_part, im_part = [], []
        for col in cols:
            re = im = 0
            for r, p, q in terms:
                c, e = col[r]
                re += p * c - q * e
                im += p * e + q * c
            re_part.append(re)
            im_part.append(im)
        re_out.append(re_part)
        im_out.append(im_part)
    return re_out, im_out


def form_matrix(k: int) -> GroupElement:
    """The secondary-diagonal form J_k with alternating signs."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return GroupElement(1, [
        [(-1) ** i if i + j == k - 1 else 0 for j in range(k)] for i in range(k)
    ], ((0,) * k,) * k)


def expected_tag(k: int) -> str:
    return "Sp" if k % 2 == 0 else "SO"


def _preserves_form(g: GroupElement) -> bool:
    """(dA)^t J (dA) == d^2 J on the integer form (d, dA) of g, i.e. A^t J A = J.

    Both sides are J-symmetric, M^t = (-1)^(k-1) M, since J^t = (-1)^(k-1) J;
    so the entries p <= q decide.  Sums run on int parts, skipping the zero
    entries of column p.
    """
    k, d = g.dim, g.den
    rows = [list(zip(a, b)) for a, b in zip(g.re, g.im)]
    # Row r of J (dA) is (-1)^r times row k-1-r of dA.
    flipped = [
        rows[k - 1 - r] if r % 2 == 0 else [(-x, -y) for x, y in rows[k - 1 - r]]
        for r in range(k)
    ]
    for p in range(k):
        column = [(r, a, b) for r, (a, b) in enumerate(row[p] for row in rows) if a or b]
        for q in range(p, k):
            re = im = 0
            for r, a, b in column:
                c, e = flipped[r][q]
                re += a * c - b * e
                im += a * e + b * c
            # J[p][q] is (-1)^p on the secondary diagonal p + q = k-1, else 0.
            target = 0 if p + q != k - 1 else (d * d if p % 2 == 0 else -d * d)
            if im or re != target:
                return False
    return True


def is_in_group(a: GroupElement) -> bool:
    """Exact test of A^t J A = J together with det A = 1, run once per element."""
    return a._in_group


# -- index sets (1-based, sorted) --------------------------------------


def _check_index_set(s: Sequence[int], k: int) -> tuple[int, ...]:
    t = tuple(s)
    if any(not 1 <= x <= k for x in t) or list(t) != sorted(set(t)):
        raise ValueError(f"index set {s} must be strictly increasing within 1..{k}")
    return t


def complement(s: Sequence[int], k: int) -> tuple[int, ...]:
    inside = set(s)
    return tuple(x for x in range(1, k + 1) if x not in inside)


def iota(s: Sequence[int], k: int) -> tuple[int, ...]:
    """Index inversion j -> k+1-j, re-sorted increasing."""
    return tuple(sorted(k + 1 - x for x in s))


class _MinorPlan:
    """The index lists of every minor of a k x k matrix, built once per dimension (_minor_plan).

    Level m of a table lists the size-m subsets of range(k) in
    itertools.combinations order, ``sets[m]``; a set's place in that list
    is its position, ``pos[mask]`` for its bit mask.  Per level m >= 1:
    ``steps[m]`` holds, for each column set T, its last column c and the
    position of T - {c}; ``expansions[m]`` holds, for each row set S, the
    Laplace terms (r, position of S - {r}) over r in S, split into the +
    terms and the - terms (the term at place p of S has the sign
    (-1)^(p + m - 1)).  ``mirrors[m]`` holds, for each set S of size m, the
    position of its mirror iota(comp S) (i -> k-1-i, complemented) in
    level k - m.  The build of the table reads steps and expansions; the
    minor-identity walk reads sets and mirrors.
    """

    __slots__ = ("sets", "pos", "steps", "expansions", "mirrors")

    def __init__(self, k: int):
        bits = [1 << i for i in range(k)]
        sets = [list(combinations(range(k), m)) for m in range(k + 1)]
        # Combinations of the bit values i -> 2^i (or, for the mirrors, of
        # i -> 2^(k-1-i)) come in the order of the index sets.
        masks = [list(map(sum, combinations(bits, m))) for m in range(k + 1)]
        pos = [0] * (1 << k)
        for level in masks:
            for p, x in enumerate(level):
                pos[x] = p
        steps, expansions = [[]], [[]]
        for m in range(1, k + 1):
            steps.append([(s[-1], pos[x ^ bits[s[-1]]]) for s, x in zip(sets[m], masks[m])])
            level = []
            for s, x in zip(sets[m], masks[m]):
                terms = [(r, pos[x ^ bits[r]]) for r in s]
                level.append((terms[(m - 1) % 2::2], terms[m % 2::2]))
            expansions.append(level)
        full = (1 << k) - 1
        self.sets = sets
        self.pos = pos
        self.steps = steps
        self.expansions = expansions
        self.mirrors = [
            [pos[full ^ x] for x in map(sum, combinations(bits[::-1], m))] for m in range(k + 1)
        ]


@lru_cache(maxsize=None)
def _minor_plan(k: int) -> _MinorPlan:
    """The one plan of dimension k, shared by every dense table of that dimension; read only."""
    return _MinorPlan(k)


class _DenseMinorTable:
    """Every minor of a square matrix of ints mod n, built level by level.

    ``levels[m]`` is a list with one entry per size-m column set, each a
    list with one entry per size-m row set, both in the order of the
    table's _MinorPlan (itertools.combinations order).  An entry is one
    Laplace step along the last column of its column set over level m - 1,
    read by list position, and reduced to its balanced residue in
    (-n/2, n/2], so that a minor with small parts stays a short int.  The
    plan (``plan``), one per dimension, is read by the build and by the
    minor-identity walk, which compares the level lists by position.  Reads are those of linalg.MinorTable:
    table(rows, cols) over same-size 0-based index sets, which checks their
    sizes, and table.mask(rmask, cmask) over their bit masks, which checks
    nothing.  A table of dim k holds all C(2k, k) minors,
    O(sum_m m * C(k, m)^2) products, so it is for the dims up to
    _DENSE_DIM: there it costs less than the lazy memo, at dim 8 even when
    only the 2000 sampled pairs are read; at dim 9 it costs more.
    """

    __slots__ = ("plan", "levels")

    def __init__(self, rows: Sequence[Sequence[int]], modulus: int):
        plan = _minor_plan(len(rows))
        half = modulus >> 1
        columns = list(zip(*rows))
        levels = [[[1]]]
        for steps, expansions in zip(plan.steps[1:], plan.expansions[1:]):
            below_level = levels[-1]
            level = []
            for c, p in steps:
                col, below = columns[c], below_level[p]
                entries = []
                for plus, minus in expansions:
                    # Started at half, so val % modulus - half is the balanced residue.
                    val = half
                    for r, j in plus:
                        val += col[r] * below[j]
                    for r, j in minus:
                        val -= col[r] * below[j]
                    entries.append(val % modulus - half)
                level.append(entries)
            levels.append(level)
        self.plan = plan
        self.levels = levels

    def __call__(self, rows: Iterable[int], cols: Iterable[int]) -> int:
        rmask = sum(1 << r for r in rows)
        cmask = sum(1 << c for c in cols)
        if rmask.bit_count() != cmask.bit_count():
            raise ValueError("row and column index sets differ in size")
        return self.mask(rmask, cmask)

    def mask(self, rmask: int, cmask: int) -> int:
        """The minor on the rows of rmask and the columns of cmask (same bit count)."""
        pos = self.plan.pos
        return self.levels[cmask.bit_count()][pos[cmask]][pos[rmask]]


def _minor_lookup(a: GroupElement):
    """Minors of A as ExactScalars, by same-size 0-based row and column sets.

    Reads the element's cached table (_packed_minors): a lookup unpacks and
    converts only the minor it returns, as minor(A; S, T) = minor(dA; S, T) / d^|S|.
    """
    d = a.den
    w, table = a._packed_minors

    def lookup(rows: Sequence[int], cols: Sequence[int]) -> ExactScalar:
        return scalar_over(*unpack(table(rows, cols), w), d ** len(rows))

    return lookup


def minor(a: GroupElement, rows: Sequence[int], cols: Sequence[int]) -> ExactScalar:
    """Exact determinant of the submatrix with 1-based row/column sets."""
    k = a.dim
    s = _check_index_set(rows, k)
    t = _check_index_set(cols, k)
    if len(s) != len(t):
        raise CardinalityError(f"|rows|={len(s)} but |cols|={len(t)}")
    return _minor_lookup(a)([i - 1 for i in s], [j - 1 for j in t])


def all_minors(a: GroupElement) -> dict[tuple[tuple[int, ...], tuple[int, ...]], ExactScalar]:
    """Every minor of A, keyed by 1-based (rows, cols) sorted tuples.

    Filled size by size from one minor table: one Laplace step per minor,
    O(sum_m m * C(k,m)^2) scalar operations in all.
    """
    k = a.dim
    lookup = _minor_lookup(a)
    return {
        (tuple(i + 1 for i in s), tuple(j + 1 for j in t)): lookup(s, t)
        for m in range(k + 1)
        for s in combinations(range(k), m)
        for t in combinations(range(k), m)
    }


class MinorIdentityReport(Record):
    dim: int
    tag: str
    pairs_checked: int
    exhaustive: bool


_EXHAUSTIVE_DIM = 7  # check_minor_identity walks every pair up to this dim
_SAMPLED_PAIRS = 2000  # pairs drawn by check_minor_identity beyond _EXHAUSTIVE_DIM
_DENSE_DIM = 8  # elements up to this dim keep a _DenseMinorTable, beyond a lazy one


def _mask_pair(indices: Iterable[int], k: int) -> tuple[int, int]:
    """Bit masks of a 0-based index set S and of its mirror iota(comp S) (i -> k-1-i)."""
    mask = reflected = 0
    for i in indices:
        mask |= 1 << i
        reflected |= 1 << (k - 1 - i)
    return mask, reflected ^ ((1 << k) - 1)


@lru_cache(maxsize=None)
def _identity_pairs(k: int) -> tuple[tuple[int, tuple[int, int], tuple[int, int]], ...]:
    """The pairs (m, (S, S'), (T, T')) drawn by the sampled walk of check_minor_identity.

    |S| = |T| = m; S, T and their mirrors S', T' are bit masks.  The mask
    pairs of each size are listed in the order of itertools.combinations.
    _SAMPLED_PAIRS pairs are drawn by random.Random(0).choice: a size m
    uniform in 1..k-1, then S and T uniform in the size-m list.  A pure
    function of k, like _minor_plan: drawn once per dimension and shared,
    read only, by every check of that dimension.
    """
    levels = [[_mask_pair(c, k) for c in combinations(range(k), m)] for m in range(k)]
    choice = random.Random(0).choice
    sizes = range(1, k)
    pairs = []
    for _ in range(_SAMPLED_PAIRS):
        m = choice(sizes)
        masks = levels[m]
        pairs.append((m, choice(masks), choice(masks)))
    return tuple(pairs)


def _mask_indices(x: int, k: int) -> tuple[int, ...]:
    """The 1-based sorted index set of a bit mask."""
    return tuple(i + 1 for i in range(k) if x >> i & 1)


def _violation(s, t, v1: int, v2: int, w: int, low: int, high: int) -> IdentityViolation:
    """The failure at (S, T): v1, v2 are the residues of d^m A[S,T] and d^(k-m) A[S',T']."""
    lhs, rhs = scalar_over(*unpack(v1, w), low), scalar_over(*unpack(v2, w), high)
    return IdentityViolation(s, t, lhs, rhs)


def check_minor_identity(a: GroupElement) -> MinorIdentityReport:
    """Verify A[S,T] == A[iota(comp S), iota(comp T)] for same-size S, T.

    Exhaustive for dim <= _EXHAUSTIVE_DIM, else 2000 pairs drawn from
    per-size lists of mask pairs (see _identity_pairs).  Both walks read the
    element's cached packed minor table (see _packed_minors): with S', T'
    the mirrors, v1 and v2 the balanced residues of d^m A[S,T] and
    d^(k-m) A[S',T'] for |S| = m, the pair holds iff
    (v1 * d^(k-m) - v2 * d^m) % n == 0, n = 2^(2w) + 1.  Both products
    have parts of at most Hadamard's bound H < 2^(w-2) (exact.pack), so
    their difference vanishes mod n only if it vanishes.

    The exhaustive walk reads the dense table's level lists by position:
    the mirror of the set at position p of level m is at position
    plan.mirrors[m][p] of level k - m, so the row list of each column set
    T is compared with the row list of T', reordered by the mirror
    positions, in one pass.  The identity is symmetric under the
    involution S -> S', which maps size m to size k - m, so the walk stops
    at size k // 2, and the report still counts all C(2k, k) pairs.  A
    level with a failing pair is read again in (S, T) order, so that the
    witness is the first failing pair by size, then S, then T.  The
    sampled walk reads the table by bit mask, in draw order: the dense one
    at dim 8, the lazy one from dim 9.  The input must be exactly in its
    group; the first failing pair raises IdentityViolation with it as
    witness and both minors as ExactScalars, the only minors unpacked.
    """
    if not is_in_group(a):
        raise ValueError("input is not exactly symplectic/orthogonal")
    k = a.dim
    tag = expected_tag(k)
    d = a.den
    w, table = a._packed_minors
    n = packing_modulus(w)
    powers = [d ** j for j in range(k + 1)]
    if k > _EXHAUSTIVE_DIM:
        read = table.mask
        for m, (s, s_mirror), (t, t_mirror) in _identity_pairs(k):
            low, high = powers[m], powers[k - m]
            v1 = read(s, t)
            v2 = read(s_mirror, t_mirror)
            if (v1 * high - v2 * low) % n:
                raise _violation(_mask_indices(s, k), _mask_indices(t, k), v1, v2, w, low, high)
        return MinorIdentityReport(k, tag, _SAMPLED_PAIRS, False)
    plan, levels = table.plan, table.levels
    for m in range(k // 2 + 1):
        low, high = powers[m], powers[k - m]
        level, mirrored, mirror = levels[m], levels[k - m], plan.mirrors[m]
        # Column set T against T', every row set S against S' at once.
        if any(
            (v1 * high - v2 * low) % n
            for col, t_mirror in zip(level, mirror)
            for v1, v2 in zip(col, map(mirrored[t_mirror].__getitem__, mirror))
        ):
            sets = plan.sets[m]
            for p, s_mirror in enumerate(mirror):
                for q, t_mirror in enumerate(mirror):
                    v1, v2 = level[q][p], mirrored[t_mirror][s_mirror]
                    if (v1 * high - v2 * low) % n:
                        s, t = tuple(i + 1 for i in sets[p]), tuple(j + 1 for j in sets[q])
                        raise _violation(s, t, v1, v2, w, low, high)
    return MinorIdentityReport(k, tag, comb(2 * k, k), True)


def classify_by_minors(a: GroupElement) -> str | None:
    """Recover the group tag of a determinant-1 matrix from entry-level minors.

    Tests a[s][t] == minor over (complement of iota(s), complement of iota(t))
    for all 1 <= s, t <= k, reading the determinant and every such minor from
    the element's cached packed minor table (see _packed_minors; up to
    _DENSE_DIM the dense one, already built by the membership test):
    with (d, dA) its integer form,
    (d^(k-1) (dA)[s][t] - d * minor(dA)) % n == 0, n = 2^(2w) + 1.  The
    entry (dA)[s][t] is read as the table's 1x1 minor; both products are
    within Hadamard's bound (exact.pack), so the test is exact.  Returns
    "Sp"/"SO" by parity when all hold (and the full group relation is then
    asserted), else None.
    """
    k = a.dim
    if a.det() != SCALAR_ONE:
        raise ValueError("classification requires det A = 1")
    d = a.den
    w, table = a._packed_minors
    n = packing_modulus(w)
    read = table.mask
    full = (1 << k) - 1
    scale = d ** (k - 1)
    # 0-based, the complement of iota(s + 1) is every index but k - 1 - s.
    drop = [full ^ 1 << (k - 1 - s) for s in range(k)]
    for s in range(k):
        for t in range(k):
            if (read(1 << s, 1 << t) * scale - read(drop[s], drop[t]) * d) % n:
                return None
    tag = expected_tag(k)
    if not is_in_group(a):
        raise ArithmeticError("minor tests passed but the group relation fails")
    return tag


# -- Cholesky in the reversed orientation -------------------------------


def ul_cholesky(h: GroupElement) -> GroupElement:
    """Factor a Hermitian positive-definite H as B^dag B, B lower-triangular.

    Positive-definiteness is tested exactly through the k leading principal
    minors, read from a one-off lazy minor table over the packed rows of
    d*H (linalg.minor_table), which computes only those and their
    sub-minors; H's own cached table (_packed_minors), dense up to dim 8,
    is not built.  Elimination runs from the last row upward; each diagonal
    entry is the exact square root of a rational, so the input must be a
    B^dag B product of a rational matrix (otherwise NotASquareError
    propagates).
    """
    k = h.dim
    if not h.is_hermitian():
        raise ValueError("input must be Hermitian")
    w, packed = pack(h.den, h.re, h.im)
    table = minor_table(packed, 0, 1, packing_modulus(w))
    for m in range(1, k + 1):
        lead = scalar_over(*unpack(table(range(m), range(m)), w), h.den**m)
        if not lead.is_real or lead.re <= 0:
            raise NotPositiveDefinite(m, lead)
    rows: list[list[ExactScalar]] = [[SCALAR_ZERO] * k for _ in range(k)]
    for i in range(k - 1, -1, -1):
        acc = h.entries[i][i]
        for r in range(i + 1, k):
            acc = acc - rows[r][i].conjugate() * rows[r][i]
        diag = sqrt_fraction(acc.re)
        rows[i][i] = ExactScalar.of(diag)
        for j in range(i - 1, -1, -1):
            s = h.entries[i][j]
            for r in range(i + 1, k):
                s = s - rows[r][i].conjugate() * rows[r][j]
            rows[i][j] = s / rows[i][i]
    b = GroupElement.from_rows(rows)
    if b.conj_transpose() @ b != h:
        raise ArithmeticError("factorization failed to reproduce the input")
    return b


def split_diagonal_unipotent(b: GroupElement) -> tuple[GroupElement, GroupElement]:
    """Split lower-triangular B as (diagonal, unipotent) with B = diag * unip."""
    k = b.dim
    for i in range(k):
        for j in range(i + 1, k):
            if not b.entries[i][j].is_zero:
                raise ValueError("input must be lower-triangular")
        if b.entries[i][i].is_zero:
            raise SingularDiagonal(f"zero diagonal entry at {i}")
    diag = tuple(
        tuple(b.entries[i][i] if i == j else SCALAR_ZERO for j in range(k)) for i in range(k)
    )
    unip = tuple(
        tuple(b.entries[i][j] / b.entries[i][i] for j in range(k)) for i in range(k)
    )
    return GroupElement.from_rows(diag), GroupElement.from_rows(unip)


# -- unipotent coordinates ----------------------------------------------


class UnipotentCoords:
    """Values for the free coordinates of a unipotent lower-triangular element.

    Keys are (row, col) pairs that must be free slots of the algebra's
    coordinate map; missing slots read as zero.
    """

    def __init__(self, algebra: Algebra, values: Mapping[tuple[int, int], ExactScalar] | None = None):
        self.algebra = algebra
        free = {(s.row, s.col) for s in coordinate_map(algebra)}
        vals: dict[tuple[int, int], ExactScalar] = {}
        for key, raw in (values or {}).items():
            if key not in free:
                raise KeyError(f"{slot_name(*key)} is not a free coordinate slot of {algebra}")
            v = raw if isinstance(raw, ExactScalar) else ExactScalar.of(as_fraction(raw))
            if not v.is_zero:
                vals[key] = v
        self.values = vals

    def get(self, i: int, j: int) -> ExactScalar:
        return self.values.get((i, j), SCALAR_ZERO)

    def items(self):
        return sorted(self.values.items())

    def __eq__(self, other):
        return (
            isinstance(other, UnipotentCoords)
            and self.algebra == other.algebra
            and self.values == other.values
        )

    def __repr__(self):
        body = ", ".join(f"{slot_name(i, j)}={v}" for (i, j), v in self.items())
        return f"UnipotentCoords({self.algebra}, {body})"


def _grade_step(family: str, d: int) -> int:
    """The grading base delta of the integer solve, for coordinate denominators d.

    Families A and C take delta = d.  Family B takes 2d: there the entries on
    the anti-diagonal are divided by 2, and the factor 2^(i-j) keeps every
    entry of the grade-scaled matrix a Gaussian integer.
    """
    return 2 * d if family == "B" else d


def unipotent_from_coords(algebra: Algebra, coords: UnipotentCoords) -> GroupElement:
    """Unique unipotent lower-triangular group element extending the free slots.

    Solved on Gaussian integers.  With d the lcm of the coordinate
    denominators and delta = _grade_step(family, d), the matrix
    X[i][j] = delta^(i-j) * C[i][j] has Gaussian-integer entries.  Dependent
    entries are filled by forward substitution in increasing band i-j: the
    row (p, q) = (k-1-i, j) of C^t J C = J is homogeneous of grade i-j,
    sum_r (-1)^r X[r][p] X[k-1-r][q] = 0, and linear in X[i][j] with
    coefficient c = (-1)^p, or (-1)^p + (-1)^i = +-2 on the anti-diagonal
    of odd k.  So X[i][j] = -(the other terms) / c is an exact division; a
    nonzero remainder raises ArithmeticError.  For family A there are no
    constraints.  The element is built once from X, as the integer form
    (delta^(k-1), X[i][j] delta^(k-1-(i-j))) of C[i][j] = X[i][j] / delta^(i-j),
    and its membership is asserted on that form.
    """
    if coords.algebra != algebra:
        raise ValueError("coordinate set belongs to a different algebra")
    k = algebra.k
    values = coords.values
    d = lcm(*(x.denominator for v in values.values() for x in (v.re, v.im)))
    delta = _grade_step(algebra.family, d)
    powers = [delta ** band for band in range(k)]
    # X as two int matrices, its real and its imaginary parts.
    re = [[int(i == j) for j in range(k)] for i in range(k)]
    im = [[0] * k for _ in range(k)]
    for (i, j), v in values.items():
        scale = powers[i - j]
        re[i][j] = v.re.numerator * (scale // v.re.denominator)
        im[i][j] = v.im.numerator * (scale // v.im.denominator)
    if algebra.family != "A":
        free = {(s.row, s.col) for s in coordinate_map(algebra)}
        dependent = [
            (i, j) for j in range(k) for i in range(j + 1, k) if (i, j) not in free
        ]
        dependent.sort(key=lambda ij: (ij[0] - ij[1], ij[1]))
        for (i, j) in dependent:
            p, q = k - 1 - i, j
            # The unknown X[i][j] is still 0, so the sum holds the other terms
            # only: the unknown meets the diagonal 1 at r = p, and at r = i
            # when i + j = k - 1.  The target J[p][q] is 0 as p + q < k - 1.
            acc_re = acc_im = 0
            for r in range(p, k - q):
                a, b = re[r][p], im[r][p]
                c, e = re[k - 1 - r][q], im[k - 1 - r][q]
                if r % 2:
                    acc_re -= a * c - b * e
                    acc_im -= a * e + b * c
                else:
                    acc_re += a * c - b * e
                    acc_im += a * e + b * c
            c = (-1) ** p + ((-1) ** i if i + j == k - 1 else 0)
            re[i][j], re_rest = divmod(-acc_re, c)
            im[i][j], im_rest = divmod(-acc_im, c)
            if re_rest or im_rest:
                raise ArithmeticError(f"constraint for entry ({i},{j}) is not an exact division")
    top = k - 1
    # Entries above the diagonal are 0 (their power index would pass top).
    re, im = (
        [[x * powers[top - i + j] if j <= i else 0 for j, x in enumerate(row)]
         for i, row in enumerate(part)]
        for part in (re, im)
    )
    g = GroupElement(powers[top], re, im)
    if algebra.family != "A" and not _preserves_form(g):
        raise ArithmeticError("constraint solver produced a non-group element")
    return g


def extract_free_coords(algebra: Algebra, g: GroupElement) -> UnipotentCoords:
    """Read the free coordinates back off a unipotent lower-triangular element."""
    vals = {
        (s.row, s.col): g.entries[s.row][s.col]
        for s in coordinate_map(algebra)
        if not g.entries[s.row][s.col].is_zero
    }
    return UnipotentCoords(algebra, vals)


def restrict_to_ngamma(
    coords: UnipotentCoords, integral_roots: Iterable[Root], *, strict: bool = False
) -> tuple[UnipotentCoords, tuple[str, ...]]:
    """Zero every free coordinate whose root is outside the integral set.

    Returns the restricted coordinates and the names of the slots that were
    zeroed.  In strict mode a nonzero forbidden coordinate raises instead.
    """
    allowed = {r.coeffs for r in integral_roots}
    slots = {(s.row, s.col): s for s in coordinate_map(coords.algebra)}
    kept: dict[tuple[int, int], ExactScalar] = {}
    zeroed: list[str] = []
    for key, v in coords.items():
        slot = slots[key]
        if slot.root.coeffs in allowed:
            kept[key] = v
        else:
            if strict:
                raise NonzeroForbiddenCoordinate(slot.name, v)
            zeroed.append(slot.name)
    return UnipotentCoords(coords.algebra, kept), tuple(zeroed)


# -- sampling -------------------------------------------------------------


def _random_fraction(rng: random.Random, bound: int) -> Fraction:
    num = rng.randint(1, bound) * rng.choice((1, -1))
    den = rng.randint(1, 3)
    return Fraction(num, den)


def random_coords(algebra: Algebra, rng: random.Random, bound: int) -> UnipotentCoords:
    """Free coordinates with nonzero small rational real and imaginary parts."""
    if bound <= 0:
        return UnipotentCoords(algebra)
    vals = {
        (s.row, s.col): ExactScalar(_random_fraction(rng, bound), _random_fraction(rng, bound))
        for s in coordinate_map(algebra)
    }
    return UnipotentCoords(algebra, vals)


def paired_diagonal(half: Sequence[Fraction], k: int) -> tuple[Fraction, ...]:
    """All k entries from the first k//2: entry_i * entry_{k-1-i} = 1, middle 1 for odd k."""
    full = list(half)
    if k % 2 == 1:
        full.append(Fraction(1))
    full.extend(1 / x for x in reversed(half))
    return tuple(full)


def random_paired_diagonal(k: int, rng: random.Random, bound: int) -> tuple[Fraction, ...]:
    """Positive diagonal with entry_i * entry_{k-1-i} = 1 (middle entry 1 for odd k)."""
    half = [
        Fraction(rng.randint(1, bound), rng.randint(1, bound)) if bound > 0 else Fraction(1)
        for _ in range(k // 2)
    ]
    return paired_diagonal(half, k)


def diagonal_element(diag: Sequence[Fraction]) -> GroupElement:
    """The diagonal matrix with int or Fraction entries ``diag``."""
    return scale_rows(diag, GroupElement.identity(len(diag)))


def scale_rows(diag: Sequence[Fraction], a: GroupElement) -> GroupElement:
    """diagonal_element(diag) @ a, as a scaling of the rows of a's integer form."""
    if len(diag) != a.dim:
        raise ValueError(f"dimension mismatch: {len(diag)} vs {a.dim}")
    d, ints = scale_to_ints(diag)
    re, im = ([[x * c for x in row] for c, row in zip(ints, part)] for part in (a.re, a.im))
    return GroupElement(d * a.den, re, im)


def scale_columns(a: GroupElement, diag: Sequence[Fraction]) -> GroupElement:
    """a @ diagonal_element(diag), as a scaling of the columns of a's integer form."""
    if len(diag) != a.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {len(diag)}")
    d, ints = scale_to_ints(diag)
    re, im = ([[x * c for x, c in zip(row, ints)] for row in part] for part in (a.re, a.im))
    return GroupElement(d * a.den, re, im)


def sample_group_element(algebra: Algebra, seed: int, bound: int = 3) -> GroupElement:
    """Seeded exact group element: lower-unipotent x diagonal x upper-unipotent.

    Both unipotent factors are constraint-solved on Gaussian integers
    (unipotent_from_coords), the diagonal satisfies the pairing condition,
    c1 Lambda scales the columns of c1's integer form and the product with
    c2^t multiplies integer forms, so the product is in the group by
    construction; its membership is asserted once, and the verdict and
    minor table stay cached on the element.  With bound 0 the sample is the
    identity.
    """
    if algebra.family == "A":
        raise ValueError("sampler is defined for the C and B families")
    rng = random.Random(seed)
    c1 = unipotent_from_coords(algebra, random_coords(algebra, rng, bound))
    lam = random_paired_diagonal(algebra.k, rng, bound)
    c2 = unipotent_from_coords(algebra, random_coords(algebra, rng, bound))
    g = scale_columns(c1, lam) @ c2.transpose()
    if not is_in_group(g):
        raise ArithmeticError("sampler produced a non-group element")
    return g

