import gc
import math
import random
import weakref
from fractions import Fraction as F
from itertools import combinations, permutations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    GAUSS_ONE,
    GAUSS_ZERO,
    GaussInt,
    fraction_unipotent_from_coords,
    gauss_rows,
    sample_positive_hermitian,
)
from toda.exact import (
    ExactScalar,
    NotASquareError,
    SCALAR_ONE,
    SCALAR_ZERO,
    ZExpr,
    pack,
    packing_modulus,
    scalar_over,
    scale_to_gaussian,
    unpack,
)
from toda.groups import (
    CardinalityError,
    GroupElement,
    IdentityViolation,
    MinorIdentityReport,
    NonzeroForbiddenCoordinate,
    NotPositiveDefinite,
    SingularDiagonal,
    UnipotentCoords,
    all_minors,
    check_minor_identity,
    classify_by_minors,
    complement,
    diagonal_element,
    expected_tag,
    extract_free_coords,
    form_matrix,
    iota,
    is_in_group,
    minor,
    random_coords,
    random_paired_diagonal,
    _DenseMinorTable,
    _EXHAUSTIVE_DIM,
    _grade_step,
    _identity_pairs,
    restrict_to_ngamma,
    sample_group_element,
    scale_columns,
    scale_rows,
    split_diagonal_unipotent,
    ul_cholesky,
    unipotent_from_coords,
)
from toda.lie import Algebra, coordinate_map, delta_gamma
from toda.linalg import det, leading_minors, mat_mul, minor_table


def S(x):
    return ExactScalar.of(x)


def _assert_integer_form(g):
    """g stores (den, re, im) in lowest terms: what scale_to_gaussian returns for its entries."""
    parts = [x for rows in (g.re, g.im) for row in rows for x in row]
    assert g.den > 0 and math.gcd(g.den, *parts) == 1
    assert (g.den, g.re, g.im) == scale_to_gaussian(g.entries)
    rebuilt = GroupElement.from_rows(g.entries)
    assert rebuilt == g and hash(rebuilt) == hash(g)


# -- the bilinear form ------------------------------------------------------


def test_form_matrix_k3():
    j = form_matrix(3)
    assert j.entries == (
        (S(0), S(0), S(1)),
        (S(0), S(-1), S(0)),
        (S(1), S(0), S(0)),
    )


def test_form_matrix_k2():
    j = form_matrix(2)
    assert j.entries == ((S(0), S(1)), (S(-1), S(0)))


@pytest.mark.parametrize("k", range(1, 9))
def test_form_squares_to_signed_identity(k):
    j = form_matrix(k)
    sq = (j @ j).entries
    sign = 1 if (k - 1) % 2 == 0 else -1
    ident = GroupElement.identity(k).entries
    assert sq == tuple(tuple(sign * x for x in row) for row in ident)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_form_symmetry_by_parity(k):
    j = form_matrix(k)
    negated = tuple(tuple(-x for x in row) for row in j.entries)
    if k % 2 == 0:
        assert j.transpose().entries == negated
    else:
        assert j.transpose().entries == j.entries


# -- membership --------------------------------------------------------------


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_identity_in_group(k):
    assert is_in_group(GroupElement.identity(k))


def test_diagonal_in_sp2():
    lam = F(3, 2)
    assert is_in_group(GroupElement.from_rows([[lam, 0], [0, 1 / lam]]))


def test_random_perturbation_not_in_group():
    g = GroupElement.from_rows([[1, 0], [F(1, 3), F(11, 10)]])
    assert not is_in_group(g)


def test_paired_diagonal_with_integer_entries_in_group():
    assert is_in_group(GroupElement.from_rows([[2, 0], [0, F(1, 2)]]))


@pytest.mark.parametrize("k", [3, 5])
def test_minus_identity_rejected_for_odd_k(k):
    # -I keeps the form, so only the determinant (-1) rejects it.
    neg = GroupElement.from_rows([[-1 if i == j else 0 for j in range(k)] for i in range(k)])
    j = form_matrix(k)
    assert (neg.transpose() @ j @ neg).entries == j.entries
    assert neg.det() == S(-1)
    assert not is_in_group(neg)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_scalar_multiple_of_identity_rejected(k):
    assert not is_in_group(GroupElement.from_rows([[2 if i == j else 0 for j in range(k)] for i in range(k)]))


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6, 7])
def test_corner_shear_moves_only_a_diagonal_entry_of_the_form(k):
    # A = I + s E_{k-1,0} has det 1 and A^t J A = J + s (J[0][k-1] + J[k-1][0]) E_00:
    # in Sp for even k, but for odd k only the diagonal entry (0, 0) of the
    # form differs, so membership must test the diagonal too.
    rows = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    rows[k - 1][0] = F(2, 3)
    a = GroupElement.from_rows(rows)
    j = form_matrix(k)
    diff = [
        (p, q)
        for p in range(k)
        for q in range(k)
        if (a.transpose() @ j @ a).entries[p][q] != j.entries[p][q]
    ]
    assert a.det() == SCALAR_ONE
    assert diff == ([] if k % 2 == 0 else [(0, 0)])
    assert is_in_group(a) == (k % 2 == 0)


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2)])
def test_imaginary_part_perturbation_rejected(family, rank):
    g = sample_group_element(Algebra(family, rank), seed=1, bound=2)
    rows = [list(r) for r in g.entries]
    rows[1][2] = rows[1][2] + ExactScalar(F(0), F(1, 7))
    bad = GroupElement.from_rows(rows)
    assert bad.entries[1][2].re == g.entries[1][2].re
    assert not is_in_group(bad)


# -- minors -------------------------------------------------------------------


def test_minor_identity_matrix():
    ident = GroupElement.identity(5)
    for m in range(6):
        for s in combinations(range(1, 6), m):
            assert minor(ident, s, s) == SCALAR_ONE


def test_minor_full_is_det():
    g = GroupElement.from_rows([[1, 2], [3, F(7, 2)]])
    assert minor(g, (1, 2), (1, 2)) == g.det()


def test_minor_cardinality_error():
    g = GroupElement.identity(3)
    with pytest.raises(CardinalityError):
        minor(g, (1,), (1, 2))


def test_minor_checks_rows_then_cols_then_sizes():
    g = GroupElement.identity(3)
    with pytest.raises(ValueError, match=r"index set \(0,\) must be") as err:
        minor(g, (0,), (2, 1))
    assert not isinstance(err.value, CardinalityError)
    with pytest.raises(ValueError, match=r"index set \(2, 1\) must be") as err:
        minor(g, (1,), (2, 1))
    assert not isinstance(err.value, CardinalityError)
    with pytest.raises(ValueError, match=r"index set \(4,\) must be strictly increasing within 1..3"):
        minor(g, (1, 2), (4,))
    with pytest.raises(CardinalityError, match=r"\|rows\|=1 but \|cols\|=2"):
        minor(g, (1,), (1, 2))


def _laplace_det(rows):
    # Independent oracle: determinant by permutation expansion.
    k = len(rows)
    total = ExactScalar.of(0)
    for perm in permutations(range(k)):
        inversions = sum(
            1 for a in range(k) for b in range(a + 1, k) if perm[a] > perm[b]
        )
        term = ExactScalar.of(1)
        for r in range(k):
            term = term * rows[r][perm[r]]
        total = total + (term if inversions % 2 == 0 else -term)
    return total


def test_minor_against_permutation_oracle():
    rng = random.Random(4)
    entries = [
        [ExactScalar(F(rng.randint(-3, 3), rng.randint(1, 3)), F(rng.randint(-2, 2))) for _ in range(4)]
        for _ in range(4)
    ]
    g = GroupElement.from_rows(entries)
    for m in (1, 2, 3):
        for s in combinations(range(1, 5), m):
            for t in combinations(range(1, 5), m):
                sub = [[entries[i - 1][j - 1] for j in t] for i in s]
                assert minor(g, s, t) == _laplace_det(sub)


def _fraction_det(a, s, t):
    # Oracle: the Fraction path, linalg.det over the ExactScalar submatrix.
    return det([[a.entries[i - 1][j - 1] for j in t] for i in s], SCALAR_ZERO, SCALAR_ONE)


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2), ("C", 3), ("B", 3)])
def test_integer_kernel_matches_fraction_path(family, rank):
    g = sample_group_element(Algebra(family, rank), seed=2, bound=3)
    k = g.dim
    full = tuple(range(1, k + 1))
    assert g.det() == _fraction_det(g, full, full) == SCALAR_ONE
    table = all_minors(g)
    assert len(table) == sum(len(list(combinations(full, m))) ** 2 for m in range(k + 1))
    for (s, t), value in table.items():
        assert value == _fraction_det(g, s, t)


def test_integer_kernel_matches_fraction_path_sampled_c4():
    g = sample_group_element(Algebra("C", 4), seed=3, bound=3)
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 7)
        s = tuple(sorted(rng.sample(range(1, 9), m)))
        t = tuple(sorted(rng.sample(range(1, 9), m)))
        assert minor(g, s, t) == _fraction_det(g, s, t)


def test_integer_kernel_mixed_denominators():
    # Mixed denominators, zeros, purely imaginary entries, negative numerators.
    g = GroupElement.from_rows(
        [
            [ExactScalar(F(-3, 4), F(0)), 0, ExactScalar(F(0), F(5, 6)), F(-7, 9)],
            [ExactScalar(F(0), F(-1, 10)), F(2), 0, ExactScalar(F(1, 3), F(-2, 5))],
            [0, ExactScalar(F(-5, 12), F(7, 8)), F(1, 7), 0],
            [F(-1), 0, ExactScalar(F(0), F(-3)), ExactScalar(F(11, 15), F(1, 2))],
        ]
    )
    d, re, im = scale_to_gaussian(g.entries)
    assert d == 2520
    assert (re[1][0], im[1][0]) == (0, -252) and (re[0][1], im[0][1]) == (0, 0)
    full = (1, 2, 3, 4)
    assert g.det() == _fraction_det(g, full, full) == _laplace_det(g.entries)
    for (s, t), value in all_minors(g).items():
        assert value == _fraction_det(g, s, t)


def test_integer_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for alg, seed in ((Algebra("C", 2), 4), (Algebra("B", 1), 6), (Algebra("C", 1), 8)):
        g = sample_group_element(alg, seed=seed, bound=3)
        k = g.dim
        mat = sympy.Matrix(
            [[sympy.Rational(x.re.numerator, x.re.denominator)
              + sympy.I * sympy.Rational(x.im.numerator, x.im.denominator) for x in row]
             for row in g.entries]
        )
        pairs = [(tuple(range(1, k + 1)), tuple(range(1, k + 1))), ((1,), (k,)), ((1, 2), (1, k))]
        for s, t in pairs:
            value = sympy.expand(mat.extract([i - 1 for i in s], [j - 1 for j in t]).det())
            re, im = value.as_real_imag()
            assert minor(g, s, t) == ExactScalar(F(str(re)), F(str(im)))
        assert g.det() == minor(g, *pairs[0])


def _assert_packed_minors_match_gauss_table(g):
    # Oracle: the same minors over GaussInt entries, a ring with no modulus,
    # divided by d^m for size m.
    k = g.dim
    oracle = minor_table(gauss_rows(g), GAUSS_ZERO, GAUSS_ONE)
    table = all_minors(g)
    assert len(table) == math.comb(2 * k, k)
    for (s, t), value in table.items():
        want = oracle([i - 1 for i in s], [j - 1 for j in t])
        assert value == scalar_over(want.re, want.im, g.den ** len(s))
    assert g.det() == table[tuple(range(1, k + 1)), tuple(range(1, k + 1))]


_PACKING_NUMERATORS = st.one_of(st.just(0), st.integers(-10**6, 10**6), st.integers(-3, 3))


@st.composite
def _exact_matrices(draw):
    # Up to 8x8; zeros, real, purely imaginary and complex entries, with
    # numerators up to 10^6 in absolute value and denominators 1..15.
    k = draw(st.integers(1, 8))
    den = st.integers(1, 15)

    def entry():
        shape = draw(st.sampled_from(["zero", "real", "imag", "complex"]))
        re = F(draw(_PACKING_NUMERATORS), draw(den)) if shape in ("real", "complex") else F(0)
        im = F(draw(_PACKING_NUMERATORS), draw(den)) if shape in ("imag", "complex") else F(0)
        return ExactScalar(re, im)

    return GroupElement.from_rows([[entry() for _ in range(k)] for _ in range(k)])


@given(_exact_matrices())
@settings(max_examples=30, deadline=None)
def test_packed_minors_match_the_gauss_int_table(g):
    _assert_packed_minors_match_gauss_table(g)


def _sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [row + row for row in h] + [row + [-x for x in row] for row in h]
    return h


def test_packing_is_exact_on_hadamard_tight_matrices():
    # Row lengths meet Hadamard's bound exactly: |det H8| = sqrt(8)^8 = 4096,
    # |det (1+i) H8| = 2^8 * 4096 = 65536.
    h8 = _sylvester(8)
    one_plus_i = ExactScalar(F(1), F(1))
    for rows, want, width in (
        (h8, S(4096), 15),
        ([[one_plus_i * x for x in row] for row in h8], S(65536), 21),
    ):
        g = GroupElement.from_rows(rows)
        assert pack(g.den, g.re, g.im)[0] == width
        assert g.det() == want
        _assert_packed_minors_match_gauss_table(g)


def test_packed_compare_is_exact_at_the_bound():
    # The largest values the identity and classification tests compare
    # differ by up to 2H, below 2^(w-1): unpack reads them back, and none is
    # 0 mod n unless it is 0.
    h = 6561  # Hadamard's H for H8: 3^8
    w, _ = pack(1, _sylvester(8), [[0] * 8] * 8)
    n = packing_modulus(w)
    for re in (-2 * h, -h, -1, 0, 1, h, 2 * h):
        for im in (-2 * h, -1, 0, 1, 2 * h):
            packed = (re + (im << w)) % n
            assert unpack(packed, w) == (re, im)
            assert bool(packed) == bool(re or im)


def test_membership_verdict_belongs_to_its_element():
    g = sample_group_element(Algebra("C", 2), seed=0, bound=3)
    rows = [list(r) for r in g.entries]
    rows[0][0] = rows[0][0] + S(1)
    bad = GroupElement.from_rows(rows)
    assert is_in_group(g)
    assert not is_in_group(bad)
    assert is_in_group(g) and not is_in_group(bad)
    # An equal element built afresh gets its own verdict, the same one.
    assert not is_in_group(GroupElement.from_rows(bad.entries))
    assert is_in_group(GroupElement.from_rows(g.entries))
    with pytest.raises(ValueError):
        check_minor_identity(bad)


def test_check_minor_identity_rescales_once(monkeypatch):
    import toda.groups

    calls = []
    real = toda.groups.scale_to_gaussian

    def counting(rows):
        calls.append(rows)
        return real(rows)

    g = sample_group_element(Algebra("C", 4), seed=0, bound=3)
    monkeypatch.setattr(toda.groups, "scale_to_gaussian", counting)
    rep = check_minor_identity(GroupElement(g.den, g.re, g.im))
    assert not rep.exhaustive and rep.pairs_checked == 2000
    # The element is stored in integer form: the check never rescales.
    assert len(calls) == 0


def test_all_minors_table_matches_minor():
    for alg in (Algebra("C", 2), Algebra("B", 2)):
        g = sample_group_element(alg, seed=9, bound=2)
        k = g.dim
        table = all_minors(g)
        for m in range(1, k):
            for s in combinations(range(1, k + 1), m):
                for t in combinations(range(1, k + 1), m):
                    assert table[(s, t)] == minor(g, s, t)


@pytest.mark.parametrize(
    "zero,one,modulus",
    [
        (SCALAR_ZERO, SCALAR_ONE, 0),
        (ZExpr.zero(), ZExpr.one(), 0),
        (GAUSS_ZERO, GAUSS_ONE, 0),
        (0, 1, 0),
        (0, 1, 17),
    ],
    ids=[f"zero{i}-one{i}" for i in range(5)],
)
def test_det_and_minor_table_edge_cases(zero, one, modulus):
    assert det((), zero, one) == one
    with pytest.raises(ValueError):
        det(((one, zero),), zero, one)
    with pytest.raises(ValueError):
        det(((one,), (zero, one)), zero, one)
    table = minor_table(((one, zero), (zero, one)), zero, one, modulus)
    assert table((), ()) == one and table((1,), (0,)) == zero
    with pytest.raises(ValueError):
        table((0,), ())
    # det = -1, stored as its balanced residue, -1 itself, when there is a modulus.
    swap = minor_table(((zero, one), (one, zero)), zero, one, modulus)
    assert swap((0, 1), (0, 1)) == (-1 if modulus else zero - one)
    assert swap((0,), (0,)) == zero and swap((0,), (1,)) == one


@st.composite
def _int_matrices(draw):
    # Dims 0..7 with many zero entries, so that zero leading minors and
    # singular matrices occur; large entries too, so that the exact
    # divisions of the elimination carry big ints.
    k = draw(st.integers(0, 7))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3), st.integers(-10**12, 10**12))
    return draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))


def _laplace_leading_minors(m):
    """The leading principal minors by Laplace expansion, or None if one is 0."""
    out = [det([row[:t] for row in m[:t]], 0, 1) for t in range(1, len(m) + 1)]
    return None if 0 in out else out


@given(_int_matrices())
@settings(max_examples=200, deadline=None)
def test_leading_minors_match_laplace_det(m):
    copy = [row[:] for row in m]
    assert leading_minors(m) == _laplace_leading_minors(m)
    assert m == copy  # the input is not changed


def test_leading_minors_of_swaps_and_singular_matrices():
    # Without row exchanges a zero leading minor gives None, even where the
    # determinant is not 0.
    cases = [
        ([[0, 1], [1, 0]], None),  # a zero first pivot
        ([[0, 2, 1], [0, 1, 3], [4, 0, 0]], None),
        ([[1, 2, 3], [2, 4, 7], [1, 1, 1]], None),  # a zero pivot made by elimination
        ([[1, 2], [2, 4]], None),  # a zero last pivot
        ([[0, 1, 5], [0, 2, 6], [0, 3, 7]], None),  # a zero column
        ([[2, 1, 0], [1, 3, 1], [0, 1, 4]], [2, 5, 18]),
        ([[7]], [7]),
        ([], []),
    ]
    for m, want in cases:
        assert leading_minors(m) == want == _laplace_leading_minors(m)
    rng = random.Random(3)
    for k in range(2, 8):
        rows = [[rng.randint(-9, 9) for _ in range(k)] for _ in range(k - 1)]
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        dependent = [a * x + b * y for x, y in zip(rows[0], rows[-1])]
        for place in (0, k // 2, k - 1):
            m = rows[:place] + [dependent] + rows[place:]
            assert det(m, 0, 1) == 0
            assert leading_minors(m) is None is _laplace_leading_minors(m)
    for bad in ([[1, 2]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            leading_minors(bad)


def test_minor_table_is_freed_by_reference_counting():
    # A table must hold no reference cycle, or each one would wait for the
    # cyclic garbage collector.
    g = sample_group_element(Algebra("C", 2), seed=9, bound=2)
    gc.disable()
    try:
        table = minor_table(g.entries, SCALAR_ZERO, SCALAR_ONE)
        assert table(range(4), range(4)) == SCALAR_ONE
        ref = weakref.ref(table)
        del table
        assert ref() is None
    finally:
        gc.enable()


@st.composite
def _gauss_matrix_and_lookups(draw):
    # Small entries, zeros included, so that the skip of falsy entries is exercised;
    # up to 11 rows and columns, so that keys pass 2^16.
    n_rows = draw(st.integers(1, 11))
    width = draw(st.integers(1, 11))
    entry = st.builds(GaussInt, st.integers(-2, 2), st.integers(-2, 2))
    rows = draw(st.lists(st.lists(entry, min_size=width, max_size=width), min_size=n_rows, max_size=n_rows))
    lookups = []
    for _ in range(draw(st.integers(1, 8))):
        size = draw(st.integers(0, min(n_rows, width)))
        r = draw(st.lists(st.integers(0, n_rows - 1), min_size=size, max_size=size, unique=True))
        c = draw(st.lists(st.integers(0, width - 1), min_size=size, max_size=size, unique=True))
        lookups.append((r, c))
    return tuple(tuple(row) for row in rows), lookups


@given(_gauss_matrix_and_lookups())
@settings(max_examples=60, deadline=None)
def test_minor_table_matches_fresh_submatrix_determinants(case):
    # Lookups in random order on one shared table, against the determinant
    # of the explicit submatrix built afresh.
    m, lookups = case
    table = minor_table(m, GAUSS_ZERO, GAUSS_ONE)
    for r, c in lookups:
        sub = tuple(tuple(m[i][j] for j in sorted(c)) for i in sorted(r))
        assert table(r, c) == det(sub, GAUSS_ZERO, GAUSS_ONE)
        # Sets of different sizes raise, whichever side is larger.
        if r:
            with pytest.raises(ValueError):
                table(r[1:], c)
        spare = [j for j in range(len(m[0])) if j not in c]
        if spare:
            with pytest.raises(ValueError):
                table(r, c + spare[:1])


def test_minor_table_rejects_columns_out_of_range():
    # The bits of a column past the last one spill into the row bits of the
    # int memo key; the lookup must still raise, not read a stored minor.
    one, zero = GAUSS_ONE, GAUSS_ZERO
    table = minor_table(((one, zero), (zero, one), (one, one), (zero, zero)), zero, one)
    assert table((2,), (0,)) == one
    with pytest.raises(IndexError):
        table((0, 1), (0, 2))


def _assert_dense_table_matches_lazy(rows, modulus):
    # Oracle: the lazy memoized table over the same rows and modulus, read
    # on every pair of same-size sets, by index sets and by bit masks.
    k = len(rows)
    dense = _DenseMinorTable(rows, modulus)
    lazy = minor_table(rows, 0, 1, modulus)
    for m in range(k + 1):
        for s in combinations(range(k), m):
            rmask = sum(1 << i for i in s)
            for t in combinations(range(k), m):
                want = lazy(s, t)
                assert -(modulus >> 1) <= want <= modulus >> 1, (s, t)  # balanced residue
                assert dense(s, t) == want, (s, t)
                assert dense.mask(rmask, sum(1 << j for j in t)) == want, (s, t)


@pytest.mark.parametrize("family", ["C", "B"])
@pytest.mark.parametrize("rank", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1])
def test_dense_minor_table_matches_lazy_table_on_samples(family, rank, seed):
    g = sample_group_element(Algebra(family, rank), seed=seed, bound=3)
    w, rows = pack(g.den, g.re, g.im)
    _assert_dense_table_matches_lazy(rows, packing_modulus(w))


@pytest.mark.parametrize("k", range(1, _EXHAUSTIVE_DIM + 1))
def test_dense_minor_table_matches_lazy_table_on_the_identity(k):
    e = GroupElement.identity(k)
    w, rows = pack(e.den, e.re, e.im)
    _assert_dense_table_matches_lazy(rows, packing_modulus(w))


@st.composite
def _sparse_integer_matrices(draw):
    # Dims 1..7 with many zero entries, so that the skip of zero entries is
    # exercised; packed as an element's rows are.
    k = draw(st.integers(1, _EXHAUSTIVE_DIM))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-10**6, 10**6), st.integers(-3, 3))
    rows = draw(st.lists(st.lists(entry, min_size=k, max_size=k), min_size=k, max_size=k))
    return GroupElement.from_rows(rows)


@given(_sparse_integer_matrices())
@settings(max_examples=30, deadline=None)
def test_dense_minor_table_matches_lazy_table_with_zero_entries(g):
    w, rows = pack(g.den, g.re, g.im)
    _assert_dense_table_matches_lazy(rows, packing_modulus(w))


def test_dense_minor_table_rejects_sets_of_different_sizes():
    g = sample_group_element(Algebra("B", 2), seed=0, bound=2)
    w, table = g._packed_minors
    assert isinstance(table, _DenseMinorTable)
    assert table((), ()) == 1
    for rows, cols in (((0,), ()), ((), (4,)), ((0, 1), (2,)), ((3,), (0, 4))):
        with pytest.raises(ValueError):
            table(rows, cols)


def test_iota_and_complement():
    assert iota((1, 3), 5) == (3, 5)
    assert complement((1, 3), 5) == (2, 4, 5)


def test_check_minor_identity_on_identity():
    rep = check_minor_identity(GroupElement.identity(4))
    assert rep.exhaustive and rep.tag == "Sp"


def test_check_minor_identity_sampled_beyond_dim_7():
    assert check_minor_identity(GroupElement.identity(8)) == MinorIdentityReport(8, "Sp", 2000, False)


@pytest.mark.parametrize("rank", [2, 4])
def test_check_minor_identity_names_a_failing_witness(monkeypatch, rank):
    # Break one entry and skip the membership pre-check, so the identity
    # check itself must find the failure, exhaustively (k = 4) or by
    # sampling (k = 8).
    k = 2 * rank
    g = sample_group_element(Algebra("C", rank), seed=1, bound=2)
    rows = [list(r) for r in g.entries]
    rows[0][0] = rows[0][0] + S(1)
    bad = GroupElement.from_rows(rows)
    monkeypatch.setattr("toda.groups.is_in_group", lambda a: True)
    with pytest.raises(IdentityViolation) as err:
        check_minor_identity(bad)
    s, t = err.value.witness
    assert minor(bad, s, t) != minor(bad, iota(complement(s, k), k), iota(complement(t, k), k))


def _first_identity_failure(a):
    # The exhaustive check over the ExactScalar table of all_minors: pairs by
    # size, then S, then T; the first failing pair with both minors.
    k = a.dim
    table = all_minors(a)
    for s, t in table:
        lhs, rhs = table[s, t], table[iota(complement(s, k), k), iota(complement(t, k), k)]
        if lhs != rhs:
            return (s, t), lhs, rhs
    return None


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2), ("C", 3), ("B", 3)])
@pytest.mark.parametrize("part", ["re", "im"])
def test_exhaustive_identity_witness_matches_all_minors(monkeypatch, family, rank, part):
    # Integer comparison, same report: the witness, lhs, rhs and message of
    # the first failing pair are those of the all_minors route, and
    # all_minors itself is not called.
    monkeypatch.setattr("toda.groups.is_in_group", lambda a: True)
    for seed in range(3):
        g = sample_group_element(Algebra(family, rank), seed=seed, bound=2)
        k = g.dim
        rows = [list(r) for r in g.entries]
        i, j = random.Random(seed).sample(range(k), 2)
        bump = ExactScalar(F(1, 3), F(0)) if part == "re" else ExactScalar(F(0), F(-2, 5))
        rows[i][j] = rows[i][j] + bump
        bad = GroupElement.from_rows(rows)
        want = _first_identity_failure(bad)
        with monkeypatch.context() as patched:
            patched.setattr("toda.groups.all_minors", None)
            report = check_minor_identity(g)
            with pytest.raises(IdentityViolation) as err:
                check_minor_identity(bad)
        assert report == MinorIdentityReport(k, expected_tag(k), math.comb(2 * k, k), True)
        assert (err.value.witness, err.value.lhs, err.value.rhs) == want
        s, t = want[0]
        assert str(err.value) == f"minor identity fails at S={s}, T={t}: {want[1]} != {want[2]}"
        assert isinstance(err.value.lhs, ExactScalar) and isinstance(err.value.rhs, ExactScalar)


@st.composite
def _broken_elements(draw):
    # A sampled C2, B2, C3 or B3 element (k = 4..7, both parities), broken
    # either in one real or imaginary entry (the determinant changes, so
    # the empty pair fails first) or by a shear I + x E_ij (determinant 1,
    # so a pair of size 1 fails first).
    family, rank = draw(st.sampled_from([("C", 2), ("B", 2), ("C", 3), ("B", 3)]))
    g = sample_group_element(Algebra(family, rank), seed=draw(st.integers(0, 50)), bound=2)
    k = g.dim
    i, j = draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1))
    x = F(draw(st.integers(-5, 5).filter(bool)), draw(st.integers(1, 4)))
    bump = ExactScalar(x, F(0)) if draw(st.booleans()) else ExactScalar(F(0), x)
    if draw(st.booleans()):
        rows = [list(r) for r in g.entries]
        rows[i][j] = rows[i][j] + bump
        return GroupElement.from_rows(rows)
    shear = [[SCALAR_ONE if r == c else SCALAR_ZERO for c in range(k)] for r in range(k)]
    shear[i][j if j != i else (i + 1) % k] = bump
    return g @ GroupElement.from_rows(shear)


@given(_broken_elements())
@settings(max_examples=40, deadline=None)
def test_mirror_half_walk_reports_the_first_failure_of_the_full_walk(bad):
    # The walk over sizes 0..k//2 by mask reports what the full ordered walk
    # over all_minors finds first: witness, lhs, rhs and message.
    want = _first_identity_failure(bad)
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr("toda.groups.is_in_group", lambda a: True)
        if want is None:
            assert check_minor_identity(bad).pairs_checked == math.comb(2 * bad.dim, bad.dim)
            return
        with pytest.raises(IdentityViolation) as err:
            check_minor_identity(bad)
    assert (err.value.witness, err.value.lhs, err.value.rhs) == want
    (s, t), lhs, rhs = want
    assert str(err.value) == f"minor identity fails at S={s}, T={t}: {lhs} != {rhs}"


def test_walk_reports_the_first_failure_by_size_then_s_then_t():
    # Two bumped entries above the diagonal of the identity: det stays 1 and
    # exactly the size-1 pairs (S, T) = ((1,), (5,)) and ((2,), (4,)) fail
    # among sizes <= k // 2.  Column by column the walk meets ((2,), (4,))
    # first, so the witness must come from the rescan of that level in
    # (S, T) order, as in the all_minors oracle.
    k = 5
    rows = [[F(int(i == j)) for j in range(k)] for i in range(k)]
    rows[0][4], rows[1][3] = F(2), F(3)
    bad = GroupElement.from_rows(rows)
    want = _first_identity_failure(bad)
    assert want[0] == ((1,), (5,))
    table = all_minors(bad)
    by_column = min(
        (t, s) for s, t in table
        if len(s) == 1 and table[s, t] != table[iota(complement(s, k), k), iota(complement(t, k), k)]
    )
    assert by_column == ((4,), (2,))
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr("toda.groups.is_in_group", lambda a: True)
        with pytest.raises(IdentityViolation) as err:
            check_minor_identity(bad)
    assert (err.value.witness, err.value.lhs, err.value.rhs) == want


class _Probe:
    """Stands in for one entry of a dense minor table and records each comparison.

    The walk tests (v1 * high - v2 * low) % n: a probe's product is the
    probe, and the difference of two records their keys and is 0, so the
    walk reads on to the end.
    """

    def __init__(self, key, reads):
        self.key = key
        self.reads = reads

    def __mul__(self, factor):
        return self

    def __sub__(self, other):
        self.reads.append((self.key, other.key))
        return 0


@pytest.mark.parametrize("family,rank", [("C", 1), ("B", 1), ("C", 2), ("B", 2), ("C", 3), ("B", 3)])
def test_mirror_half_walk_reads_each_identity_once(family, rank):
    # Read in pairs: every same-size (S, T) up to the middle size, each with
    # (iota(comp S), iota(comp T)) built from index tuples, so that together
    # with the mirrors every one of the C(2k, k) pairs is covered once, and
    # every pair of the middle size (k even) is read as the first of a pair.
    # Each entry of the element's dense table is replaced by a probe keyed by
    # its (row mask, column mask), found through the table's plan.
    g = sample_group_element(Algebra(family, rank), seed=3, bound=2)
    k = g.dim
    w, table = g._packed_minors
    plan = table.plan
    reads = []
    masks = [[sum(1 << i for i in s) for s in level] for level in plan.sets]
    levels = [
        [[_Probe((rmask, cmask), reads) for rmask in masks[m]] for cmask in masks[m]]
        for m in range(k + 1)
    ]
    g.__dict__["_packed_minors"] = w, SimpleNamespace(plan=plan, levels=levels)
    assert check_minor_identity(g).pairs_checked == math.comb(2 * k, k)

    def mask(idx):
        return sum(1 << (i - 1) for i in idx)

    firsts = [first for first, _ in reads]
    assert len(firsts) == len(set(firsts)) == len(reads)
    covered = set()
    for (s, t), mirrored in reads:
        rows = tuple(i + 1 for i in range(k) if s >> i & 1)
        cols = tuple(j + 1 for j in range(k) if t >> j & 1)
        assert len(rows) <= k // 2
        assert mirrored == (mask(iota(complement(rows, k), k)), mask(iota(complement(cols, k), k)))
        covered |= {(s, t), mirrored}
    assert len(covered) == math.comb(2 * k, k)


@pytest.mark.parametrize("k", range(1, 9))
def test_pairs_checked_on_the_identity(k):
    exhaustive = k <= _EXHAUSTIVE_DIM
    expected = math.comb(2 * k, k) if exhaustive else 2000
    assert check_minor_identity(GroupElement.identity(k)) == MinorIdentityReport(k, expected_tag(k), expected, exhaustive)


def test_check_minor_identity_builds_one_minor_table(monkeypatch):
    import toda.groups
    import toda.linalg

    builds = []
    real = toda.linalg.minor_table

    def counting(*args):
        builds.append(args)
        return real(*args)

    # Patched before sampling: the sampler's membership determinant, the
    # identity check, the classification and det() all read one table, the
    # one cached on the element over its packed integer form, reduced mod
    # 2^(2w) + 1 at the packing width w.
    monkeypatch.setattr(toda.linalg, "minor_table", counting)
    monkeypatch.setattr(toda.groups, "minor_table", counting)
    g = sample_group_element(Algebra("C", 4), seed=0, bound=3)
    assert len(builds) == 1
    assert check_minor_identity(g) == MinorIdentityReport(8, "Sp", 2000, False)
    assert classify_by_minors(g) == "Sp"
    assert g.det() == SCALAR_ONE
    assert len(builds) == 1
    w, rows = pack(g.den, g.re, g.im)
    assert g._packed_minors[0] == w
    assert builds[0] == (rows, 0, 1, packing_modulus(w))


def test_dense_tables_of_one_dimension_share_one_plan():
    # The plan depends on the dimension only: it is built once per dimension.
    c2 = [sample_group_element(Algebra("C", 2), seed=seed, bound=3) for seed in (0, 1)]
    b2 = sample_group_element(Algebra("B", 2), seed=0, bound=3)
    (_, first), (_, second), (_, other) = (g._packed_minors for g in c2 + [b2])
    assert isinstance(first, _DenseMinorTable) and first.levels != second.levels
    assert first.plan is second.plan
    assert _DenseMinorTable(((1, 0, 0, 0),) * 4, 17).plan is first.plan
    assert other.plan is not first.plan and len(other.plan.sets) == 6


@pytest.mark.parametrize("family,tag", [("C", "Sp"), ("B", "SO")])
def test_exhaustive_dims_build_one_dense_minor_table(monkeypatch, family, tag):
    import toda.groups
    import toda.linalg

    dense_builds, lazy_builds = [], []
    real = toda.groups._DenseMinorTable

    def counting(*args):
        dense_builds.append(args)
        return real(*args)

    def lazy(*args):
        lazy_builds.append(args)
        return toda.linalg.MinorTable(*args)

    # Patched before sampling: up to the exhaustive dim, membership, the
    # walk, the classification and det() read one dense table over the
    # packed integer form, and no lazy table is built for the element.
    monkeypatch.setattr(toda.groups, "_DenseMinorTable", counting)
    monkeypatch.setattr(toda.linalg, "minor_table", lazy)
    monkeypatch.setattr(toda.groups, "minor_table", lazy)
    g = sample_group_element(Algebra(family, 3), seed=0, bound=3)
    assert len(dense_builds) == 1
    k = g.dim
    assert check_minor_identity(g) == MinorIdentityReport(k, tag, math.comb(2 * k, k), True)
    assert classify_by_minors(g) == tag
    assert g.det() == SCALAR_ONE
    assert is_in_group(g)
    assert len(dense_builds) == 1 and lazy_builds == []
    w, rows = pack(g.den, g.re, g.im)
    assert g._packed_minors[0] == w
    assert dense_builds[0] == (rows, packing_modulus(w))


def _first_sampled_identity_failure(a):
    # The sampled check through the public minor(): 2000 draws by
    # random.Random(0).choice (a size in 1..k-1, then S, then T among the
    # 1-based size-m subsets in combinations order); the first failing pair
    # with both minors.
    k = a.dim
    choice = random.Random(0).choice
    subsets = [list(combinations(range(1, k + 1), m)) for m in range(k)]
    for _ in range(2000):
        m = choice(range(1, k))
        s, t = choice(subsets[m]), choice(subsets[m])
        lhs = minor(a, s, t)
        rhs = minor(a, iota(complement(s, k), k), iota(complement(t, k), k))
        if lhs != rhs:
            return (s, t), lhs, rhs
    return None


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("part", ["re", "im"])
def test_sampled_identity_witness_matches_minor(monkeypatch, seed, part):
    # Integer comparison on one table, same report as the minor() route:
    # the witness, lhs, rhs and message of the first failing drawn pair.
    monkeypatch.setattr("toda.groups.is_in_group", lambda a: True)
    g = sample_group_element(Algebra("C", 4), seed=seed, bound=2)
    k = g.dim
    rows = [list(r) for r in g.entries]
    i, j = random.Random(seed).sample(range(k), 2)
    bump = ExactScalar(F(1, 3), F(0)) if part == "re" else ExactScalar(F(0), F(-2, 5))
    rows[i][j] = rows[i][j] + bump
    bad = GroupElement.from_rows(rows)
    want = _first_sampled_identity_failure(bad)
    assert want is not None
    assert _first_sampled_identity_failure(g) is None
    assert check_minor_identity(g) == MinorIdentityReport(k, "Sp", 2000, False)
    with pytest.raises(IdentityViolation) as err:
        check_minor_identity(bad)
    assert (err.value.witness, err.value.lhs, err.value.rhs) == want
    s, t = want[0]
    assert str(err.value) == f"minor identity fails at S={s}, T={t}: {want[1]} != {want[2]}"
    assert isinstance(err.value.lhs, ExactScalar) and isinstance(err.value.rhs, ExactScalar)


@pytest.mark.parametrize("k", [8, 10])
def test_sampled_walk_draws_from_every_size(k):
    # 2000 pairs with |S| = |T| = m and mirrors of size k - m, every size
    # 1..k-1 drawn, and the same walk on every call.
    first = list(_identity_pairs(k))
    assert first == list(_identity_pairs(k))
    assert len(first) == 2000
    for m, (s, s_mirror), (t, t_mirror) in first:
        assert s.bit_count() == t.bit_count() == m
        assert s_mirror.bit_count() == t_mirror.bit_count() == k - m
    assert {m for m, _, _ in first} == set(range(1, k))


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2)])
def test_check_minor_identity_samples(family, rank):
    alg = Algebra(family, rank)
    for seed in range(3):
        g = sample_group_element(alg, seed=seed, bound=3)
        rep = check_minor_identity(g)
        assert rep.exhaustive
        assert rep.tag == expected_tag(alg.k)


def test_check_minor_identity_rejects_non_group():
    # det 1 but not orthogonal for the secondary-diagonal form.
    g = GroupElement.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    assert not is_in_group(g)
    with pytest.raises(ValueError):
        check_minor_identity(g)


def test_identity_violation_witness():
    # Hand-break one entry of a group element and check that the all-minors
    # table holds a pair violating the identity (no membership pre-check).
    g = sample_group_element(Algebra("C", 2), seed=1, bound=2)
    rows = [list(r) for r in g.entries]
    rows[0][0] = rows[0][0] + S(1)
    bad = GroupElement.from_rows(rows)
    table = all_minors(bad)
    found = False
    for (s, t), val in table.items():
        key = (iota(complement(s, 4), 4), iota(complement(t, 4), 4))
        if table[key] != val:
            found = True
            break
    assert found


def test_classify_round_trip():
    for alg in (Algebra("C", 2), Algebra("B", 2)):
        g = sample_group_element(alg, seed=5, bound=2)
        stripped = GroupElement.from_rows(g.entries)
        assert classify_by_minors(stripped) == expected_tag(alg.k)


def test_classify_negative_control():
    # Generic SL(3) element: unit determinant but no bilinear symmetry.
    g = GroupElement.from_rows([[1, 1, 0], [0, 1, 2], [0, 0, 1]])
    assert g.det() == SCALAR_ONE
    assert classify_by_minors(g) is None


def test_classify_identity_by_parity():
    assert classify_by_minors(GroupElement.identity(4)) == "Sp"
    assert classify_by_minors(GroupElement.identity(5)) == "SO"


def test_classify_requires_unit_det():
    with pytest.raises(ValueError):
        classify_by_minors(GroupElement.from_rows([[2, 0], [0, 2]]))


# -- Cholesky -----------------------------------------------------------------


def test_ul_cholesky_example():
    h = GroupElement.from_rows([[2, 1], [1, 1]])
    b = ul_cholesky(h)
    assert b.entries == ((S(1), S(0)), (S(1), S(1)))


def test_ul_cholesky_identity():
    assert ul_cholesky(GroupElement.identity(3)).entries == GroupElement.identity(3).entries


def test_ul_cholesky_indefinite():
    with pytest.raises(NotPositiveDefinite) as err:
        ul_cholesky(GroupElement.from_rows([[1, 2], [2, 1]]))
    assert err.value.order == 2


def test_ul_cholesky_requires_hermitian():
    with pytest.raises(ValueError):
        ul_cholesky(GroupElement.from_rows([[1, 1], [0, 1]]))


def test_ul_cholesky_irrational_diagonal():
    with pytest.raises(NotASquareError):
        ul_cholesky(GroupElement.from_rows([[2, 0], [0, 1]]))


def test_ul_cholesky_round_trip_complex():
    rng = random.Random(2)
    for alg in (Algebra("C", 2), Algebra("B", 2), Algebra("C", 3)):
        c = unipotent_from_coords(alg, random_coords(alg, rng, 2))
        lam = diagonal_element(random_paired_diagonal(alg.k, rng, 3))
        b = lam @ c
        h = b.conj_transpose() @ b
        recovered = ul_cholesky(h)
        assert recovered.entries == b.entries  # uniqueness: same positive diagonal


def test_ul_cholesky_uniqueness_perturbation():
    b = GroupElement.from_rows([[1, 0], [1, 1]])
    h = b.conj_transpose() @ b
    rows = [list(r) for r in b.entries]
    rows[1][0] = rows[1][0] + S(1)
    perturbed = GroupElement.from_rows(rows)
    assert (perturbed.conj_transpose() @ perturbed).entries != h.entries


def test_split_example():
    lam, c = split_diagonal_unipotent(GroupElement.from_rows([[2, 0], [4, 3]]))
    assert lam.entries == ((S(2), S(0)), (S(0), S(3)))
    assert c.entries == ((S(1), S(0)), (S(F(4, 3)), S(1)))


def test_split_unipotent_input():
    b = GroupElement.from_rows([[1, 0], [5, 1]])
    lam, c = split_diagonal_unipotent(b)
    assert lam.entries == GroupElement.identity(2).entries
    assert c.entries == b.entries


def test_split_singular_diagonal():
    with pytest.raises(SingularDiagonal):
        split_diagonal_unipotent(GroupElement.from_rows([[0, 0], [1, 1]]))


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2), ("C", 3), ("B", 3)])
def test_cholesky_factors_stay_in_group(family, rank):
    alg = Algebra(family, rank)
    h = sample_positive_hermitian(alg, seed=21, bound=2)
    b = ul_cholesky(h)
    lam, c = split_diagonal_unipotent(b)
    assert is_in_group(lam)
    assert is_in_group(c)
    assert is_in_group(b)
    k = alg.k
    for i in range(k):
        assert lam.entries[i][i] * lam.entries[k - 1 - i][k - 1 - i] == SCALAR_ONE


# -- unipotent coordinates -----------------------------------------------------


def test_unipotent_b2_dependent_formulas():
    alg = Algebra("B", 2)
    vals = {
        (1, 0): ExactScalar(F(1, 2), F(1, 3)),
        (2, 0): ExactScalar(F(2), F(-1)),
        (2, 1): ExactScalar(F(-1, 4), F(0)),
        (3, 0): ExactScalar(F(5, 7), F(2)),
    }
    c = unipotent_from_coords(alg, UnipotentCoords(alg, vals))
    e = c.entries
    c10, c20, c21, c30 = vals[(1, 0)], vals[(2, 0)], vals[(2, 1)], vals[(3, 0)]
    half = S(F(1, 2))
    assert e[4][0] == c10 * c30 - half * c20 * c20
    assert e[3][1] == half * c21 * c21
    assert e[4][1] == half * c10 * c21 * c21 - c20 * c21 + c30
    assert e[3][2] == c21
    assert e[4][2] == c10 * c21 - c20
    assert e[4][3] == c10


def test_unipotent_c3_dependent_formulas():
    alg = Algebra("C", 3)
    rng = random.Random(8)
    coords = random_coords(alg, rng, 3)
    c = unipotent_from_coords(alg, coords)
    e = c.entries
    c10, c20, c30, c40 = (coords.get(i, 0) for i in range(1, 5))
    c21, c31, c41 = (coords.get(i, 1) for i in range(2, 5))
    c32 = coords.get(3, 2)
    assert e[5][1] == c10 * c41 - c20 * c31 + c30 * c21 - c40
    assert e[4][2] == c21 * c32 - c31
    assert e[5][2] == c10 * c21 * c32 - c10 * c31 - c20 * c32 + c30
    assert e[4][3] == c21
    assert e[5][3] == c10 * c21 - c20
    assert e[5][4] == c10


def test_unipotent_zero_coords_identity():
    for alg in (Algebra("C", 2), Algebra("B", 3)):
        c = unipotent_from_coords(alg, UnipotentCoords(alg))
        assert c.entries == GroupElement.identity(alg.k).entries


def test_unipotent_solutions_are_group_members():
    rng = random.Random(10)
    for alg in (Algebra("C", 2), Algebra("B", 2), Algebra("C", 3), Algebra("B", 3)):
        for _ in range(3):
            c = unipotent_from_coords(alg, random_coords(alg, rng, 3))
            assert is_in_group(c)


@st.composite
def _solver_inputs(draw):
    # A2-A4, C1-C7, B1-B7 with coordinates that may be zero (left out) or
    # purely real or imaginary, with denominators up to 10^3.
    family, rank = draw(
        st.sampled_from([("A", r) for r in range(2, 5)] + [(f, r) for f in "CB" for r in range(1, 8)])
    )
    alg = Algebra(family, rank)
    part = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
    vals = {}
    for slot in coordinate_map(alg):
        kind = draw(st.sampled_from(["zero", "real", "imag", "both"]))
        if kind != "zero":
            re = draw(part) if kind in ("real", "both") else F(0)
            im = draw(part) if kind in ("imag", "both") else F(0)
            vals[slot.row, slot.col] = ExactScalar(re, im)
    return alg, UnipotentCoords(alg, vals)


@given(_solver_inputs())
@settings(max_examples=80, deadline=None)
def test_integer_solver_matches_fraction_solver(case):
    alg, coords = case
    c = unipotent_from_coords(alg, coords)
    assert c.entries == fraction_unipotent_from_coords(alg, coords).entries
    _assert_integer_form(c)


def test_integer_solver_needs_the_factor_two_on_b(monkeypatch):
    # B1: X[2][0] = X[1][0]^2 / 2 is an exact division only when the grading
    # base carries the factor 2; with delta = d the guard fires.
    alg = Algebra("B", 1)
    coords = UnipotentCoords(alg, {(1, 0): S(1)})
    assert unipotent_from_coords(alg, coords).entries[2][0] == S(F(1, 2))
    monkeypatch.setattr("toda.groups._grade_step", lambda family, d: d)
    with pytest.raises(ArithmeticError, match="not an exact division"):
        unipotent_from_coords(alg, coords)
    # C never divides by 2: its anti-diagonal slots are free.
    assert _grade_step("C", 6) == 6 and _grade_step("B", 6) == 12


def test_free_coordinate_round_trip():
    rng = random.Random(12)
    alg = Algebra("C", 3)
    coords = random_coords(alg, rng, 3)
    c = unipotent_from_coords(alg, coords)
    assert extract_free_coords(alg, c) == coords
    # And back: a group member is pinned down by its free coordinates.
    rebuilt = unipotent_from_coords(alg, extract_free_coords(alg, c))
    assert rebuilt.entries == c.entries


def test_matmul_dimension_guard():
    with pytest.raises(ValueError):
        GroupElement.identity(2) @ GroupElement.identity(3)


_ratio = st.builds(F, st.integers(-20, 20), st.integers(1, 15))
# Zeros, purely real, purely imaginary and full entries.
_entry = st.one_of(
    st.just(SCALAR_ZERO),
    st.builds(ExactScalar, _ratio),
    st.builds(lambda im: ExactScalar(F(0), im), _ratio),
    st.builds(ExactScalar, _ratio, _ratio),
)


@st.composite
def _square_pair(draw):
    k = draw(st.integers(1, 5))
    square = st.lists(st.lists(_entry, min_size=k, max_size=k), min_size=k, max_size=k)
    return GroupElement.from_rows(draw(square)), GroupElement.from_rows(draw(square))


@given(_square_pair())
@settings(max_examples=80, deadline=None)
def test_integer_form_product_matches_the_scalar_product(pair):
    # a @ b is (d_a * d_b, (d_a A)(d_b B)) in lowest terms; the oracle is the
    # product of the ExactScalar entries.
    a, b = pair
    want = mat_mul(a.entries, b.entries, SCALAR_ZERO)
    got = (a @ b).entries
    assert got == want
    assert repr(got) == repr(want)
    assert all(isinstance(x, ExactScalar) for row in got for x in row)
    _assert_integer_form(a @ b)


_SAMPLED = [Algebra(f, r) for f in "CB" for r in range(1, 5)]


@pytest.mark.parametrize("alg", _SAMPLED, ids=str)
def test_stored_form_is_in_lowest_terms(alg):
    # Samples, their transposes, conjugate transposes and products.
    g = sample_group_element(alg, seed=1, bound=3)
    h = sample_group_element(alg, seed=2, bound=3)
    for x in (g, h, g.transpose(), g.conj_transpose(), g @ h, h.conj_transpose() @ g):
        _assert_integer_form(x)
    assert g.den > 1 and (g @ h).den > 1


@pytest.mark.parametrize("family,rank", [("C", 2), ("C", 3), ("B", 2), ("B", 3)])
def test_unipotent_solver_stores_lowest_terms_at_fractional_coords(family, rank):
    # The solver builds (delta^(k-1), X[i][j] delta^(k-1-(i-j))), delta = d on
    # C and 2d on B, and construction reduces it to lowest terms.
    alg = Algebra(family, rank)
    for seed in range(3):
        coords = random_coords(alg, random.Random(seed), 3)
        d = math.lcm(*(x.denominator for v in coords.values.values() for x in (v.re, v.im)))
        delta = _grade_step(family, d)
        c = unipotent_from_coords(alg, coords)
        _assert_integer_form(c)
        assert (delta ** (alg.k - 1)) % c.den == 0
        assert c.entries == fraction_unipotent_from_coords(alg, coords).entries
    b1 = unipotent_from_coords(Algebra("B", 1), UnipotentCoords(Algebra("B", 1), {(1, 0): S(1)}))
    assert b1.den == 2 and (b1.re[2][0], b1.im[2][0]) == (1, 0)


def _assert_int_tuples(g):
    for part in (g.re, g.im):
        assert type(part) is tuple and len(part) == g.dim
        for row in part:
            assert type(row) is tuple and all(type(x) is int for x in row)


def test_group_element_construction_guards():
    one, zero = (1, 0), (0, 0)
    with pytest.raises(ValueError, match="positive"):
        GroupElement(0, (one, one[::-1]), (zero, zero))
    with pytest.raises(ValueError, match="positive"):
        GroupElement(-1, (one, one[::-1]), (zero, zero))
    with pytest.raises(ValueError, match="square"):
        GroupElement(1, (one,), (zero,))
    with pytest.raises(ValueError, match="square"):
        GroupElement(1, (one, one), (zero,))
    with pytest.raises(ValueError, match="square"):
        GroupElement(1, (one, (1,)), (zero, zero))
    with pytest.raises(ValueError, match="square"):
        GroupElement.from_rows([[1, 2], [3]])
    # Construction divides den and every entry by their gcd, and stores tuples.
    g = GroupElement(6, [[2, 0], [0, 6]], [[0, 4], [0, 0]])
    assert (g.den, g.re, g.im) == (3, ((1, 0), (0, 3)), ((0, 2), (0, 0)))
    _assert_int_tuples(g)
    assert g == GroupElement.from_rows([[F(1, 3), ExactScalar(F(0), F(2, 3))], [0, 1]])
    assert len({g, GroupElement(3, g.re, g.im), GroupElement.identity(2)}) == 2


def test_equal_matrices_compare_and_hash_equal_whatever_the_constructor():
    g = sample_group_element(Algebra("C", 2), seed=0, bound=3)
    lam = [F(2, 3), F(1, 5), F(5), F(3, 2)]
    scaled = scale_rows(lam, GroupElement.identity(4)) @ g
    rows = [[x for x in row] for row in g.entries]
    built = [
        GroupElement.from_rows(rows),
        GroupElement.from_rows(g.entries),
        GroupElement(g.den, [list(row) for row in g.re], [list(row) for row in g.im]),
        GroupElement(5 * g.den, [[5 * x for x in row] for row in g.re], [[5 * y for y in row] for row in g.im]),
        g.transpose().transpose(),
        g.conj_transpose().conj_transpose(),
        GroupElement.identity(4) @ g,
        g @ GroupElement.identity(4),
        scale_rows([1] * 4, g),
        scale_columns(g, [1] * 4),
        scale_rows([1 / x for x in lam], scaled),
        diagonal_element([1 / x for x in lam]) @ scaled,
    ]
    c2 = Algebra("C", 2)
    solved = unipotent_from_coords(c2, random_coords(c2, random.Random(0), 3))
    others = [g, scaled, solved, g.transpose(), g.conj_transpose(), g @ g, form_matrix(4)]
    for x in built + others:
        _assert_int_tuples(x)
    for x in built:
        assert x == g and hash(x) == hash(g)
        assert x.entries == g.entries
    assert len(set(built)) == 1
    assert scaled != g


def test_group_checks_never_build_entries():
    for alg in (Algebra("C", 3), Algebra("B", 3), Algebra("C", 4)):
        g = sample_group_element(alg, seed=0, bound=3)
        check_minor_identity(g)
        assert classify_by_minors(g) == expected_tag(alg.k)
        assert "entries" not in vars(g)


def test_coords_reject_non_free_slot():
    alg = Algebra("B", 2)
    with pytest.raises(KeyError):
        UnipotentCoords(alg, {(3, 1): ExactScalar.of(1)})


def test_restrict_c3_example():
    alg = Algebra("C", 3)
    rng = random.Random(13)
    coords = random_coords(alg, rng, 2)
    dg = delta_gamma(alg, [F(-1, 2), F(1, 4), F(1)])
    kept, zeroed = restrict_to_ngamma(coords, dg)
    assert sorted(kept.values) == [(3, 2), (4, 0)]
    assert len(zeroed) == 7


def test_restrict_b2_example():
    alg = Algebra("B", 2)
    rng = random.Random(14)
    coords = random_coords(alg, rng, 2)
    dg = delta_gamma(alg, [F(-1, 2), F(1, 4)])
    kept, zeroed = restrict_to_ngamma(coords, dg)
    assert sorted(kept.values) == [(3, 0)]


def test_restrict_integral_weights_keeps_all():
    alg = Algebra("B", 2)
    rng = random.Random(15)
    coords = random_coords(alg, rng, 2)
    kept, zeroed = restrict_to_ngamma(coords, delta_gamma(alg, [1, 2]))
    assert kept == coords and not zeroed


def test_restricted_elements_form_a_subgroup():
    # Products of elements whose free coordinates sit on integral roots stay
    # supported on slots fixed by the monodromy element.
    from fractions import Fraction

    from toda.lie import monodromy_element

    rng = random.Random(19)
    for family, rank, gamma in [("C", 3, (F(-1, 2), F(1, 4), F(1))), ("B", 2, (F(-1, 2), F(1, 4)))]:
        alg = Algebra(family, rank)
        dg = delta_gamma(alg, gamma)
        mono = monodromy_element(alg, gamma)
        elements = []
        for _ in range(2):
            coords, _ = restrict_to_ngamma(random_coords(alg, rng, 3), dg)
            elements.append(unipotent_from_coords(alg, coords))
        product = elements[0] @ elements[1]
        for i in range(alg.k):
            for j in range(i):
                if not product.entries[i][j].is_zero:
                    assert mono.fixes_slot(i, j)


def test_restrict_strict_mode():
    alg = Algebra("B", 2)
    coords = UnipotentCoords(alg, {(1, 0): ExactScalar.of(1)})
    dg = delta_gamma(alg, [F(-1, 2), F(1, 4)])
    with pytest.raises(NonzeroForbiddenCoordinate):
        restrict_to_ngamma(coords, dg, strict=True)


# -- sampling -------------------------------------------------------------------


def test_sampler_identity_at_zero_bound():
    g = sample_group_element(Algebra("C", 2), seed=0, bound=0)
    assert g.entries == GroupElement.identity(4).entries


def test_sampler_members_exact():
    for alg in (Algebra("C", 2), Algebra("B", 2), Algebra("C", 3), Algebra("B", 3)):
        for seed in range(4):
            assert is_in_group(sample_group_element(alg, seed=seed, bound=3))


def test_sampler_deterministic():
    a = sample_group_element(Algebra("B", 2), seed=33, bound=3)
    b = sample_group_element(Algebra("B", 2), seed=33, bound=3)
    assert a.entries == b.entries


def test_sampler_minor_coverage():
    # Every minor size class contains nonzero minors for a dense sample.
    g = sample_group_element(Algebra("C", 2), seed=3, bound=3)
    table = all_minors(g)
    k = g.dim
    for m in range(1, k + 1):
        assert any(
            not table[(s, t)].is_zero
            for s in combinations(range(1, k + 1), m)
            for t in combinations(range(1, k + 1), m)
        )


def test_sampler_rejects_a_family():
    with pytest.raises(ValueError):
        sample_group_element(Algebra("A", 2), seed=0)
