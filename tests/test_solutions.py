import cmath
import importlib
import inspect
import math
import pickle
import random
from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import toda
import toda.lie
import toda.solutions
import conftest
from conftest import (
    apply_factors,
    cauchy_euler_shifts,
    diff_z,
    diff_zbar,
    falling,
    random_gamma,
    random_params,
    replace,
)
from toda import Algebra, make_config
from toda.basis import StructureError, column_minor, nu_vector, wronskian
from toda.exact import BranchCutError, ExactScalar, Monomial, OriginError, ZExpr, _float_sum
from toda.jsonio import form_to_json
from toda.groups import (
    GroupElement,
    UnipotentCoords,
    all_minors,
    diagonal_element,
    is_in_group,
    restrict_to_ngamma,
)
from toda.lie import coordinate_map, delta_gamma
from toda.linalg import det as generic_det
from toda.linalg import leading_minors, mat_mul, minor_table, transpose
from toda.solutions import (
    SolutionBundle,
    SolutionParams,
    UnknownForm,
    a_case_form,
    annulus_points,
    assemble,
    characteristic_data,
    default_lambdas,
    full_lambda,
    reduced_unknowns,
    verify,
    verify_integrability,
    verify_monodromy,
    verify_pde,
    verify_symmetry,
)

Z0, Z1 = ZExpr.zero(), ZExpr.one()


def no_coords(family, rank):
    return UnipotentCoords(Algebra(family, rank))


# -- configuration -----------------------------------------------------------


def test_config_c_alpha_relations():
    cfg = make_config("C", 3, [F(1, 2), F(1, 3), F(1, 5)])
    assert cfg.alpha_tilde[:3] == cfg.alpha
    assert cfg.alpha_tilde == tuple(reversed(cfg.alpha_tilde))
    assert cfg.k == 6


def test_config_b_alpha_relations():
    cfg = make_config("B", 2, [F(1, 3), F(2, 5)])
    assert cfg.alpha_tilde[0] == cfg.alpha[0]
    assert cfg.alpha_tilde[1] == 2 * cfg.alpha[1]
    assert cfg.gamma_tilde == (F(1, 3), F(2, 5), F(2, 5), F(1, 3))


def test_config_mu_positive():
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    assert all(m > 0 for m in cfg.mu_tilde)


def test_full_lambda_families():
    cfg = make_config("C", 2, [0, 0])
    params = SolutionParams.of([2, 3], no_coords("C", 2))
    assert full_lambda(cfg, params) == (2, 3, F(1, 3), F(1, 2))
    cfgb = make_config("B", 2, [0, 0])
    pb = SolutionParams.of([2, 3], no_coords("B", 2))
    assert full_lambda(cfgb, pb) == (2, 3, 1, F(1, 3), F(1, 2))
    pb2 = SolutionParams.of([2, 3, 1], no_coords("B", 2))
    assert full_lambda(cfgb, pb2) == (2, 3, 1, F(1, 3), F(1, 2))
    with pytest.raises(ValueError):
        full_lambda(cfgb, SolutionParams.of([2, 3, 5], no_coords("B", 2)))


def test_params_require_positive():
    with pytest.raises(ValueError):
        SolutionParams.of([1, -1], no_coords("C", 2))


# -- assembly ------------------------------------------------------------------


def test_assemble_liouville():
    cfg = make_config("A", 1, [0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("A", 1)))
    assert b.F[0] == Z1 + ZExpr.monomial(1, 1, 1)


def test_assemble_b2_radial():
    cfg = make_config("B", 2, [0, 0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("B", 2)))
    expected = Z1
    for i, den in enumerate([1, 2, 6, 24], start=1):
        expected = expected + ZExpr.monomial(F(1, den * den), i, i)
    assert b.F[0] == expected


def test_assemble_unknowns_are_real():
    rng = random.Random(40)
    cfg = make_config("C", 2, random_gamma(rng, 2))
    b = assemble(cfg, random_params(cfg, rng))
    for f in b.F:
        assert f.is_real


def test_assemble_unknowns_positive_at_points():
    rng = random.Random(41)
    cfg = make_config("B", 2, random_gamma(rng, 2))
    b = assemble(cfg, random_params(cfg, rng))
    for z in annulus_points(10, 2):
        for f in b.F:
            val = f.evaluate(z)
            assert abs(val.imag) < 1e-9 * abs(val)
            assert val.real > 0


def test_assemble_h_has_unit_determinant():
    rng = random.Random(42)
    for family, rank in [("A", 2), ("C", 2), ("B", 2)]:
        cfg = make_config(family, rank, random_gamma(rng, rank))
        b = assemble(cfg, random_params(cfg, rng))
        assert b.H.det() == ExactScalar.of(1)
        assert b.H.is_hermitian()


def _principal_minors_oracle(bundle):
    # Independent route: build R = W^dag H W as an expression matrix and take
    # leading-block determinants directly.
    w = bundle.wronskian.entries
    k = bundle.k
    h = bundle.H.entries
    wdag = tuple(tuple(w[r][c].conjugate() for r in range(k)) for c in range(k))
    hz = tuple(tuple(ZExpr.const(x) for x in row) for row in h)

    def matmul(a, b):
        bt = transpose(b)
        return tuple(
            tuple(sum((x * y for x, y in zip(row, col)), Z0) for col in bt) for row in a
        )

    r = matmul(matmul(wdag, hz), w)
    out = []
    for m in range(1, k):
        sub = tuple(tuple(r[i][j] for j in range(m)) for i in range(m))
        out.append(generic_det(sub, Z0, Z1))
    return out


@pytest.mark.parametrize(
    "family,rank,seed", [("A", 1, 1), ("A", 2, 2), ("C", 2, 3), ("B", 2, 4), ("A", 3, 5)]
)
def test_assemble_matches_direct_determinant(family, rank, seed):
    rng = random.Random(seed)
    cfg = make_config(family, rank, random_gamma(rng, rank))
    b = assemble(cfg, random_params(cfg, rng))
    assert list(b.F) == _principal_minors_oracle(b)


def _h_minor_unknown(table, w, m):
    # The double Cauchy-Binet sum over the all-minors table of H: the
    # leading m x m minor of W^dag H W without going through C W.
    # Like terms are merged once, by ZExpr.from_terms, at the end.
    k = w.k
    terms = []
    for s in combinations(range(k), m):
        for t in combinations(range(k), m):
            terms += (column_minor(w, s).conjugate() * table[
                (tuple(x + 1 for x in s), tuple(x + 1 for x in t))
            ] * column_minor(w, t)).terms
    return ZExpr.from_terms(terms)


@pytest.mark.parametrize(
    "family,rank,gamma",
    [
        ("A", 3, (0, 0, 0)),
        ("C", 3, (0, 0, 0)),
        ("B", 2, (0, 0)),
        ("B", 3, (0, 0, 0)),
        ("A", 3, (F(1, 2), F(-1, 3), F(1, 2))),
        ("C", 3, (F(1, 2), F(1, 3), F(-1, 4))),
        ("B", 2, (F(-1, 2), F(1, 4))),
        ("B", 3, (F(1, 2), F(-1, 3), F(1, 4))),
    ],
)
def test_assemble_matches_h_minor_route(family, rank, gamma):
    # gamma = 0 keeps every coordinate nonzero; a fractional gamma restricts
    # the coordinates to the integral roots, which leaves C sparse.
    cfg = make_config(family, rank, gamma)
    params = random_params(cfg, random.Random(rank), restrict=True)
    nonzero, free = len(params.coords.values), len(coordinate_map(cfg.algebra))
    assert nonzero == free if all(x == 0 for x in gamma) else nonzero < free
    b = assemble(cfg, params)
    table = all_minors(b.H)
    assert list(b.F) == [_h_minor_unknown(table, b.wronskian, m) for m in range(1, cfg.k)]


coord_parts = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_assemble_skip_matches_h_minor_route_property(data):
    # Coordinates restricted to N_gamma leave C sparse, so many minors
    # C[R, S] with S <= R vanish too; the skip must drop only zero ones.
    family = data.draw(st.sampled_from("ACB"))
    rank = data.draw(st.integers(1, 2))
    gamma = data.draw(
        st.lists(st.fractions(min_value=F(-3, 4), max_value=2, max_denominator=4),
                 min_size=rank, max_size=rank)
    )
    cfg = make_config(family, rank, gamma)
    positive = st.fractions(min_value=F(1, 3), max_value=3, max_denominator=3)
    size = len(default_lambdas(cfg))
    lams = data.draw(st.lists(positive, min_size=size, max_size=size))
    if family == "A":
        lams[-1] = 1 / math.prod(lams[:-1], start=F(1))
    values = {
        (s.row, s.col): ExactScalar(data.draw(coord_parts), data.draw(coord_parts))
        for s in coordinate_map(cfg.algebra)
    }
    coords, _ = restrict_to_ngamma(
        UnipotentCoords(cfg.algebra, values), delta_gamma(cfg.algebra, cfg.gamma)
    )
    b = assemble(cfg, SolutionParams.of(lams, coords))
    table = all_minors(b.H)
    assert list(b.F) == [_h_minor_unknown(table, b.wronskian, m) for m in range(1, cfg.k)]


def _proper_fractions(max_den):
    # (n q + r) / q with 2 <= q <= max_den and 0 < r < q: never an integer.
    return st.integers(2, max_den).flatmap(
        lambda q: st.tuples(st.integers(0, 2), st.integers(1, q - 1)).map(
            lambda nr: F(nr[0] * q + nr[1], q)
        )
    )


@pytest.mark.parametrize("family", "ACB")
@pytest.mark.parametrize("rank", [1, 2, 3])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_integer_kernel_matches_h_minor_route_property(family, rank, data):
    # Dense coordinates with mixed denominators (d > 1), weights p/q with
    # q <= 7 (Lambda > 1) and fractional gamma (some L_m > 1): every scale
    # of the integer kernel is non-trivial.
    gamma = [data.draw(_proper_fractions(4)) - 1] + data.draw(
        st.lists(st.fractions(min_value=F(-3, 4), max_value=2, max_denominator=4),
                 min_size=rank - 1, max_size=rank - 1)
    )
    cfg = make_config(family, rank, gamma)
    size = len(default_lambdas(cfg))
    lams = data.draw(st.lists(_proper_fractions(7), min_size=size, max_size=size))
    sign = st.sampled_from((1, -1))
    values = {
        (s.row, s.col): ExactScalar(
            data.draw(sign) * data.draw(_proper_fractions(7)),
            data.draw(sign) * data.draw(_proper_fractions(5)),
        )
        for s in coordinate_map(cfg.algebra)
    }
    b = assemble(cfg, SolutionParams.of(lams, UnipotentCoords(cfg.algebra, values)))
    w = b.wronskian
    assert b.C.den > 1
    assert math.lcm(*((x * x).denominator for x in b.lambdas)) > 1
    assume(any(
        math.lcm(*(column_minor(w, s).single_monomial().coeff.re.denominator
                   for s in combinations(range(cfg.k), m))) > 1
        for m in range(1, cfg.k)
    ))
    table = all_minors(b.H)
    assert list(b.F) == [_h_minor_unknown(table, w, m) for m in range(1, cfg.k)]


# C2-C4, B2-B4, A3 and A5 at gamma = 0 and six configurations at fractional
# gamma, each with restricted and unrestricted coordinates: 28 bundles.
STANDALONE_BUNDLES = [
    (family, rank, gamma, restrict)
    for family, rank, gamma in [
        *((f, r, (0,) * r) for f, r in [("C", 2), ("C", 3), ("C", 4), ("B", 2), ("B", 3),
                                         ("B", 4), ("A", 3), ("A", 5)]),
        ("C", 3, (F(-1, 2), F(1, 4), 1)),
        ("B", 3, (F(1, 2), F(1, 3), F(1, 2))),
        ("A", 4, (F(1, 3), 0, 0, F(1, 3))),
        ("B", 2, (F(-1, 2), F(1, 4))),
        ("A", 3, (F(1, 2), F(-1, 3), F(1, 2))),
        ("C", 4, (F(1, 2), F(1, 3), F(-1, 4), 1)),
    ]
    for restrict in (True, False)
]


def _lambda_integers(lambdas):
    # (Lambda, [l_r]) with lambda_r^2 = l_r / Lambda, as assemble scales them.
    squares = [x * x for x in lambdas]
    lam_den = math.lcm(*(q.denominator for q in squares))
    return lam_den, [q.numerator * (lam_den // q.denominator) for q in squares]


@pytest.mark.parametrize(
    "family,rank,gamma,restrict",
    STANDALONE_BUNDLES,
    ids=[f"{f}{r}-{'frac' if any(g) else 'zero'}-{'restricted' if x else 'free'}"
         for f, r, g, x in STANDALONE_BUNDLES],
)
def test_mirrored_matrix_equals_full_sum(family, rank, gamma, restrict):
    # _unknown_matrix accumulates the pairs i <= j and mirrors the rest; the
    # mirrored matrix must equal the full sum over every pair of terms of
    # every G_R, sum_R l_R G_R[e] conj(G_R[f]).
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=restrict))
    g_matrix, _ = toda.solutions._holomorphic_matrix(b.wronskian, b.C)
    _, lam_num = _lambda_integers(b.lambdas)
    for level in toda.solutions._prefix_minors(g_matrix):
        full: dict = {}
        for rows, g in level.items():
            weight = math.prod(lam_num[r] for r in rows)
            for e, (ar, ai) in g.items():
                for f, (br, bi) in g.items():
                    re, im = full.get((e, f), (0, 0))
                    full[(e, f)] = (re + weight * (ar * br + ai * bi),
                                    im + weight * (ai * br - ar * bi))
        exps, re, im = toda.solutions._unknown_matrix(level, lam_num)
        assert {
            (e, f): (re[i][j], im[i][j])
            for i, e in enumerate(exps)
            for j, f in enumerate(exps)
            if re[i][j] or im[i][j]
        } == {ef: v for ef, v in full.items() if v != (0, 0)}


@pytest.mark.parametrize(
    "family,rank,gamma,restrict",
    STANDALONE_BUNDLES,
    ids=[f"{f}{r}-{'frac' if any(g) else 'zero'}-{'restricted' if x else 'free'}"
         for f, r, g, x in STANDALONE_BUNDLES],
)
def test_prefix_levels_match_the_lazy_minor_table(family, rank, gamma, restrict):
    # Oracle: the memoized minor table of G over ZExpr entries, read on the
    # prefix column sets.  Each level holds exactly the m-row sets, in
    # combinations order, and each g_R equals the table's minor on R and the
    # columns 0..m-1.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=restrict))
    g_matrix, _ = toda.solutions._holomorphic_matrix(b.wronskian, b.C)
    rows_of_g = [[_int_poly(terms) for terms in row] for row in zip(*g_matrix)]
    oracle = minor_table(rows_of_g, Z0, Z1)
    levels = list(toda.solutions._prefix_minors(g_matrix))
    assert len(levels) == cfg.k - 1
    for m, level in enumerate(levels, start=1):
        assert list(level) == list(combinations(range(cfg.k), m))
        for rows, g in level.items():
            assert _int_poly((e, re, im) for e, (re, im) in g.items()) == oracle(rows, range(m)), (m, rows)


def _int_poly(terms):
    # The ZExpr sum of (e, re, im) terms (re + i im) z^e, int parts and exponents.
    return ZExpr.from_terms(Monomial(ExactScalar(F(re), F(im)), F(e)) for e, re, im in terms)


@pytest.mark.parametrize(
    "family,rank,gamma,restrict",
    STANDALONE_BUNDLES,
    ids=[f"{f}{r}-{'frac' if any(g) else 'zero'}-{'restricted' if x else 'free'}"
         for f, r, g, x in STANDALONE_BUNDLES],
)
def test_holomorphic_columns_are_the_scaled_product(family, rank, gamma, restrict):
    # Oracle: G = (dC) (W D) by linalg.mat_mul over ZExpr, with W from its
    # definition on Fractions, column j scaled by D_j, and z^(beta_s) written
    # as z^(B beta_s).  Each entry of a column of G is its list of nonzero
    # terms with distinct exponents, so from_terms merges nothing.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=restrict))
    w, k = b.wronskian, cfg.k
    g_matrix, scales = toda.solutions._holomorphic_matrix(w, b.C)
    dc = [[ZExpr.const(ExactScalar(F(x), F(y))) for x, y in zip(*rows)] for rows in zip(b.C.re, b.C.im)]
    wd = [
        [ZExpr.monomial(w.col_dens[j] * chi * falling(beta, j), w.den * beta) for j in range(k - 1)]
        for chi, beta in zip(b.wronskian.nu.chi, b.wronskian.nu.beta)
    ]
    oracle = mat_mul(dc, wd, Z0)
    assert len(g_matrix) == k - 1
    for j, col in enumerate(g_matrix):
        assert len(col) == k
        for r, terms in enumerate(col):
            got = _int_poly(terms)
            assert got == oracle[r][j], (r, j)
            assert len(got.terms) == len(terms) and all(re or im for _, re, im in terms)
    assert scales == [b.C.den**m * math.prod(w.col_dens[:m]) for m in range(k)]


@pytest.mark.parametrize(
    "family,rank,gamma",
    [("C", 3, (F(-1, 2), F(1, 4), 1)), ("B", 3, (F(1, 2), F(1, 3), F(1, 2))),
     ("A", 4, (F(1, 3), 0, 0, F(1, 3)))],
)
def test_prefix_minors_of_identity_are_column_minors(family, rank, gamma):
    # With C = I, G = W: every prefix minor of G, over its scale and with
    # its exponents lowered by B m(m-1)/2, is the closed-form column minor.
    cfg = make_config(family, rank, gamma)
    w = wronskian(nu_vector(cfg))
    g_matrix, scales = toda.solutions._holomorphic_matrix(w, GroupElement.identity(cfg.k))
    beta_den = w.den
    for m, level in enumerate(toda.solutions._prefix_minors(g_matrix), start=1):
        shift = beta_den * m * (m - 1) // 2
        for rows, minor in level.items():
            g = ZExpr.from_terms(
                Monomial(ExactScalar(F(re, scales[m]), F(im, scales[m])), F(e - shift, beta_den))
                for e, (re, im) in minor.items()
            )
            assert g == column_minor(w, rows), (m, rows)


@pytest.mark.parametrize(
    "family,rank,gamma",
    [("C", 2, (0, 0)), ("A", 2, (F(1, 2), F(1, 2))), ("A", 3, (F(1, 2), F(1, 2), F(-1, 3)))],
)
def test_assemble_matches_sympy_oracle(family, rank, gamma):
    # W by symbolic differentiation of nu, H = (Lambda C)^dag (Lambda C), and
    # each F_m the expanded leading m x m determinant of conj(W)^t H W, with
    # z and zb = conj(z) independent symbols.
    sympy = pytest.importorskip("sympy")
    z, zb = sympy.symbols("z zb", positive=True)
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    k = cfg.k

    def q(x):
        return sympy.Rational(x.numerator, x.denominator)

    def scalar(x):
        return q(x.re) + sympy.I * q(x.im)

    nu = [q(b.wronskian.nu.chi[i]) * z ** q(b.wronskian.nu.beta[i]) for i in range(k)]
    cols = [sympy.Matrix(nu)]
    for _ in range(k - 1):
        cols.append(cols[-1].diff(z))
    w = sympy.Matrix.hstack(*cols)
    assert sympy.expand(w.det(method="berkowitz")) == 1
    lam_c = sympy.Matrix(k, k, lambda i, j: q(b.lambdas[i]) * scalar(b.C.entries[i][j]))
    g = w.subs(z, zb).T * (lam_c.H * lam_c) * w
    for m in range(1, k):
        expected = sympy.expand(g[:m, :m].det(method="berkowitz"))
        got = sum(
            (scalar(t.coeff) * z ** q(t.exp_z) * zb ** q(t.exp_zbar) for t in b.F[m - 1].terms),
            sympy.Integer(0),
        )
        assert sympy.expand(got - expected) == 0, m


@pytest.mark.parametrize(
    "family,rank,gamma", [("C", 2, (0, 0)), ("B", 2, (F(-1, 2), F(1, 4))), ("A", 3, (F(1, 3), 0, F(1, 2)))]
)
def test_lazy_unknowns_equal_from_terms_of_the_matrix(family, rank, gamma):
    # bundle.F is built on first access, once, from the integer forms; each
    # F_m equals ZExpr.from_terms of its whole integer matrix (zeros included)
    # over its denominator s_m^2 Lambda^m.  The form holds the nonzero
    # entries of that matrix, in order, in lowest terms.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    assert "F" not in vars(b)
    assert ["expr" in vars(f) for f in b.forms] == [False] * (cfg.k - 1)
    g_matrix, scales = toda.solutions._holomorphic_matrix(b.wronskian, b.C)
    beta_den = b.wronskian.den
    levels = toda.solutions._prefix_minors(g_matrix)
    lam_den, lam_num = _lambda_integers(b.lambdas)
    for m, (f, form, level) in enumerate(zip(b.F, b.forms, levels), start=1):
        ints, re, im = toda.solutions._unknown_matrix(level, lam_num)
        exps = [F(e - beta_den * m * (m - 1) // 2, beta_den) for e in ints]
        den = scales[m] ** 2 * lam_den**m
        assert form.exponents == tuple(exps)
        n = len(exps)
        assert _values(form.entries, form.den) == [
            (i, j, F(re[i][j], den), F(im[i][j], den))
            for i in range(n)
            for j in range(n)
            if re[i][j] or im[i][j]
        ]
        assert math.gcd(form.den, *(x for _, _, r, s in form.entries for x in (r, s))) == 1
        assert den % form.den == 0
        assert f == ZExpr.from_terms(
            Monomial(ExactScalar(F(re[i][j], den), F(im[i][j], den)), exps[i], exps[j])
            for i in range(n)
            for j in range(n)
        )
        assert len(form.entries) == len(f.terms)
    assert b.F is b.F


def test_assemble_first_unknown_weighted_rows():
    # F_1 must match sum lambda_i^2 |nu_i + sum_j c_ij nu_j|^2; recompute here.
    rng = random.Random(77)
    cfg = make_config("B", 2, random_gamma(rng, 2))
    params = random_params(cfg, rng)
    b = assemble(cfg, params)
    total = Z0
    for i in range(cfg.k):
        row = Z0
        for j in range(i + 1):
            row = row + b.C.entries[i][j] * b.wronskian.nu.nu[j]
        total = total + (b.lambdas[i] ** 2) * (row.conjugate() * row)
    assert total == b.F[0]


# -- symmetry -------------------------------------------------------------------


@pytest.mark.parametrize("family,rank", [("C", 2), ("C", 3), ("B", 2)])
def test_symmetry_for_group_constrained(family, rank):
    rng = random.Random(hash((family, rank)) & 0xFFF)
    for _ in range(3):
        cfg = make_config(family, rank, random_gamma(rng, rank))
        b = assemble(cfg, random_params(cfg, rng))
        assert verify_symmetry(b).passed


def test_symmetry_negative_control():
    # Hermitian positive-definite, det 1, but not symplectic: the mirror
    # equality of the unknowns must fail.
    cfg = make_config("C", 2, [0, 0])
    rows = [[1, 0, 0, 0], [F(1, 2), 1, 0, 0], [F(1, 3), 1, 1, 0], [2, 3, F(1, 5), 1]]
    c_bad = GroupElement.from_rows(rows)
    lam = diagonal_element((F(2), F(1), F(1), F(1, 2)))
    b_mat = lam @ c_bad
    h = b_mat.conj_transpose() @ b_mat
    assert h.det().re == 1 and h.is_hermitian()
    w = wronskian(nu_vector(cfg))
    assert not is_in_group(h)
    table = all_minors(h)
    assert _h_minor_unknown(table, w, 1) != _h_minor_unknown(table, w, 3)


@pytest.mark.parametrize(
    "family,rank,gamma", [("C", 2, (0, 0)), ("C", 3, (F(1, 2), F(1, 3), F(-1, 4))), ("B", 3, (0, 0, 0))]
)
def test_integer_symmetry_agrees_with_zexpr_equality(family, rank, gamma):
    # Equality of two integer forms (in lowest terms) is ZExpr equality, on
    # every pair of unknowns, mirror pairs (equal) and others (not).
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    k = cfg.k
    for a in range(k - 1):
        for c in range(k - 1):
            assert (b.forms[a] == b.forms[c]) == (b.F[a] == b.F[c])
    assert verify_symmetry(b).passed
    # The same unknown over a doubled denominator is still equal.
    last = b.forms[-1]
    doubled = UnknownForm(
        last.exponents, tuple((i, j, 2 * re, 2 * im) for i, j, re, im in last.entries), 2 * last.den
    )
    assert doubled == last and hash(doubled) == hash(last)
    assert verify_symmetry(replace(b, forms=b.forms[:-1] + (doubled,))).passed
    # The same entries on shifted exponents are a different unknown.
    shifted = UnknownForm(tuple(e + 1 for e in last.exponents), last.entries, last.den)
    assert last != shifted
    # The certificate compares each form with its definition: bumping one
    # entry of a mirrored F_{k-m}, m < k-m, fails at k - m alone, and
    # bumping an assembled F_m, m <= k//2, fails at m alone.
    for m in range(1, (k + 1) // 2):
        forms = list(b.forms)
        mirror = forms[k - m - 1]
        i, j, re, im = mirror.entries[-1]
        bumped_entries = mirror.entries[:-1] + ((i, j, re + 1, im),)
        forms[k - m - 1] = UnknownForm(mirror.exponents, bumped_entries, mirror.den)
        bumped = replace(b, forms=tuple(forms))
        assert bumped.F[k - m - 1] != b.F[m - 1]
        rep = verify_symmetry(bumped)
        assert not rep.passed
        assert rep.failures == (k - m,)
    for m in range(1, k // 2 + 1):
        forms = list(b.forms)
        i, j, re, im = forms[m - 1].entries[0]
        bumped_entries = ((i, j, re, im + 1),) + forms[m - 1].entries[1:]
        forms[m - 1] = UnknownForm(forms[m - 1].exponents, bumped_entries, forms[m - 1].den)
        rep = verify_symmetry(replace(b, forms=tuple(forms)))
        assert not rep.passed
        assert rep.failures == (m,)


def _moved_exponent(b, m, old, new):
    # b with the exponent old of F_m moved to new; a mirror of F_m, the same
    # object, moves with it.
    form = b.forms[m - 1]
    moved = UnknownForm(tuple(new if e == old else e for e in form.exponents), form.entries, form.den)
    return replace(b, forms=tuple(moved if f is form else f for f in b.forms))


@pytest.mark.parametrize(
    "family,rank,gamma,den,old,new,failures",
    [
        ("C", 3, (F(1, 7),) * 3, 14, F(11, 14), F(11, 8), (1, 5)),
        ("A", 2, (F(1, 5),) * 2, 5, 1, F(5, 3), (1,)),
    ],
)
def test_certificate_fails_an_exponent_off_the_grid(family, rank, gamma, den, old, new, failures):
    # B = 14 and 5: a floor onto the grid (1/B)Z reads 11/8 as the 11/14 it
    # replaced, and 5/3 as the 1.  Both new exponents lie in the range of
    # F_1, so the trials, on the exact ints of the table, fail them.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(0)))
    assert b.wronskian.den == den
    assert old in b.forms[0].exponents
    assert verify_symmetry(b).passed
    report = verify_symmetry(_moved_exponent(b, 1, old, new))
    assert report == toda.solutions.SymmetryReport(False, failures)


@pytest.mark.parametrize(
    "family,rank,m,end,failures", [("C", 2, 1, -1, (1, 3)), ("A", 3, 2, 0, (2,))]
)
def test_certificate_range_rule_fails_an_exponent_moved_by_p_minus_1(family, rank, m, end, failures):
    # x^(e + p - 1) = x^e at every x != 0 (Fermat), so the trials pass the
    # top exponent of F_m raised by p - 1, or the least one lowered by it,
    # whatever the draws.  The range rule fails it, with its mirror on C.
    cfg = make_config(family, rank, [0] * rank)
    b = assemble(cfg, random_params(cfg, random.Random(0)))
    old = b.forms[m - 1].exponents[end]
    shift = toda.solutions._P - 1
    moved = _moved_exponent(b, m, old, old + shift if end else old - shift)
    assert verify_symmetry(moved) == toda.solutions.SymmetryReport(False, failures)
    assert not verify_integrability(moved).passed


def test_bundle_needs_k_minus_1_unknowns():
    # A short bundle would pass the certificate (zip drops the missing
    # level) and break integrability with an IndexError.
    cfg = make_config("A", 3, [0, 0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(0)))
    with pytest.raises(ValueError, match=r"needs k - 1 = 3 unknowns, got 2"):
        replace(b, forms=b.forms[:-1])


def test_malformed_unknown_form_raises_at_construction():
    # Without the guard, an entry whose index has no exponent made the
    # symmetry, monodromy, PDE and integrability checks raise IndexError, a
    # negative index silently read another exponent, and a form with no
    # entries made integrability raise from min(), and a zero denominator
    # made the PDE check raise ZeroDivisionError.
    cfg = make_config("C", 2, [0, 0])
    f1 = assemble(cfg, random_params(cfg, random.Random(0))).forms[0]
    n = len(f1.exponents) - 1
    named = rf"entry \(.*\b{n}\b.*\) of an unknown form has an index outside its {n} exponents"
    with pytest.raises(ValueError, match=named):
        replace(f1, exponents=f1.exponents[:-1])
    with pytest.raises(ValueError, match=r"entry \(-1, 0, 1, 0\) .* has an index outside its"):
        replace(f1, entries=((-1, 0, 1, 0),) + f1.entries)
    with pytest.raises(ValueError, match="at least one entry: F_m is never zero"):
        replace(f1, entries=())
    with pytest.raises(ValueError, match="needs a positive denominator, got 0"):
        replace(f1, den=0)
    # A zero entry read as a term of F_1 failed monodromy, an exponent that
    # no entry reads failed w-symmetry (P(3/2) = 9/16), and a split entry
    # made two forms of one unknown compare unequal.
    with pytest.raises(ValueError, match=r"entry \(0, 1, 0, 0\) of an unknown form has a zero coefficient"):
        replace(f1, entries=f1.entries + ((0, 1, 0, 0),))
    with pytest.raises(ValueError, match="exponent 3/2 of an unknown form is read by no entry"):
        replace(f1, exponents=f1.exponents + (F(3, 2),))
    with pytest.raises(ValueError, match=rf"exponent {f1.exponents[0]} of an unknown form is repeated"):
        replace(f1, exponents=f1.exponents + f1.exponents[:1])
    i, j, re, im = f1.entries[0]
    split = ((i, j, re - 1, im), (i, j, 1, 0)) + f1.entries[1:]
    with pytest.raises(ValueError, match=rf"entry \({i}, {j}, 1, 0\) of an unknown form repeats the pair \({i}, {j}\)"):
        replace(f1, entries=split)


def _is_prime(n):
    # Miller-Rabin with the bases 2..37, deterministic for n < 3.3e24.
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_certificate_constants():
    # p is the first prime = 1 (mod 4) above 2^61, and i_p^2 = -1 mod p.
    p, i_p = toda.solutions._P, toda.solutions._I_P
    assert _is_prime(p) and p % 4 == 1 and p > 2**61
    assert not any(_is_prime(n) for n in range(2**61 + 1, p) if n % 4 == 1)
    assert i_p * i_p % p == p - 1
    assert [_is_prime(n) for n in (1, 2, 9, 561, 2**61 - 1, 2**61 + 1)] == [
        False, True, False, False, True, False
    ]


@pytest.mark.parametrize("rank", [3, 5])
def test_certificate_fails_mirrored_a_forms_exactly_above_the_middle(rank):
    # Negative control: an A bundle (gamma = 0, every coordinate nonzero)
    # with F_m := F_{k-m} put in for m > k/2, as half assembly would.  A is
    # not symmetric, so the certificate fails at exactly those levels.
    cfg = make_config("A", rank, [0] * rank)
    b = assemble(cfg, random_params(cfg, random.Random(rank)))
    k = cfg.k
    assert verify_symmetry(b).passed
    mirrored = tuple(b.forms[m - 1] if 2 * m <= k else b.forms[k - m - 1] for m in range(1, k))
    rep = verify_symmetry(replace(b, forms=mirrored))
    assert not rep.passed
    assert rep.failures == tuple(m for m in range(1, k) if 2 * m > k)


@pytest.mark.parametrize(
    "family,rows,failures",
    [
        ("C", [[1, 0, 0, 0], [F(1, 2), 1, 0, 0], [F(1, 3), 1, 1, 0], [2, 3, F(1, 5), 1]], (3,)),
        ("B", [[1, 0, 0, 0, 0], [F(1, 2), 1, 0, 0, 0], [F(1, 3), 1, 1, 0, 0],
               [2, 3, F(1, 5), 1, 0], [1, F(-1, 2), 2, F(2, 3), 1]], (3, 4)),
    ],
)
def test_certificate_fails_a_c_outside_the_group_at_the_mirrored_levels(
    monkeypatch, family, rows, failures
):
    # C unipotent but not in Sp/SO: assemble builds the levels m <= k//2
    # from it, which are right, and mirrors them, which is wrong.
    c_bad = GroupElement.from_rows(rows)
    assert not is_in_group(c_bad)
    monkeypatch.setattr(toda.solutions, "unipotent_from_coords", lambda alg, coords: c_bad)
    cfg = make_config(family, 2, [0, 0])
    b = assemble(cfg, SolutionParams.of([2, F(1, 3)], no_coords(family, 2)))
    assert b.C is c_bad
    rep = verify_symmetry(b)
    assert not rep.passed
    assert rep.failures == failures


def _gaussian_leading_minors(q, p):
    """Every leading principal minor of q mod p by Gaussian elimination, or None.

    No row exchanges: the leading minor of size t + 1 is the product of the
    first t + 1 pivots, and a zero pivot gives None.  q is overwritten.
    """
    out, minor = [], 1
    for t, pivot_row in enumerate(q):
        pivot = pivot_row[t]
        if not pivot:
            return None
        minor = minor * pivot % p
        out.append(minor)
        inverse = pow(pivot, -1, p)
        for row in q[t + 1:]:
            f = row[t] * inverse % p
            if f:
                for j in range(t + 1, len(row)):
                    row[j] = (row[j] - f * pivot_row[j]) % p
    return out


def test_leading_minors_are_the_determinants_mod_p():
    # The fraction-free kernel mod p against Gaussian elimination mod p, on
    # random matrices of sizes 1-9, and against Laplace expansion at size 4.
    p = toda.solutions._P
    rng = random.Random(3)
    for k in range(1, 10):
        for _ in range(20):
            q = [[rng.randrange(p) for _ in range(k)] for _ in range(k)]
            copy = [row[:] for row in q]
            assert leading_minors(q, p) == _gaussian_leading_minors([row[:] for row in q], p)
            assert q == copy
    q = [[rng.randrange(p) for _ in range(4)] for _ in range(4)]
    expected = [generic_det([row[:m] for row in q[:m]], 0, 1) % p for m in range(1, 5)]
    assert leading_minors(q, p) == expected
    # A zero pivot, first or last, gives no minors at all.
    for q in ([[0, 1], [1, 0]], [[1, 2], [3, 6]]):
        assert leading_minors(q, p) is None is _gaussian_leading_minors(q, p)


def test_zero_pivot_moves_to_the_next_point_pair(monkeypatch):
    # A zero pivot skips the pair: the check still runs its two trials on
    # the next pairs of the same stream.  If fewer than two pairs of the
    # stream have nonzero pivots, nothing is certified and every level
    # fails: when every pair has a zero pivot, and when only the first has
    # none and passes its trial.
    cfg = make_config("C", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(2)))
    real = toda.solutions.leading_minors
    calls = []

    def first_pivot_zero(q, modulus):
        calls.append(q[0][0])
        return None if len(calls) == 1 else real(q, modulus)

    monkeypatch.setattr(toda.solutions, "leading_minors", first_pivot_zero)
    assert verify_symmetry(b) == toda.solutions.SymmetryReport(True, ())
    assert len(calls) == toda.solutions._TRIALS + 1
    assert len(set(calls)) == len(calls)  # a fresh pair each time
    calls.clear()

    def every_pivot_zero(q, modulus):
        calls.append(q[0][0])
        return None

    monkeypatch.setattr(toda.solutions, "leading_minors", every_pivot_zero)
    assert verify_symmetry(b) == toda.solutions.SymmetryReport(False, (1, 2, 3))
    assert len(calls) == toda.solutions._DRAWS
    calls.clear()

    def only_first_pivot_nonzero(q, modulus):
        calls.append(q[0][0])
        return real(q, modulus) if len(calls) == 1 else None

    monkeypatch.setattr(toda.solutions, "leading_minors", only_first_pivot_nonzero)
    assert verify_symmetry(b) == toda.solutions.SymmetryReport(False, (1, 2, 3))
    assert len(calls) == toda.solutions._DRAWS


@pytest.mark.parametrize(
    "family,rank,gamma,restrict",
    STANDALONE_BUNDLES,
    ids=[f"{f}{r}-{'frac' if any(g) else 'zero'}-{'restricted' if x else 'free'}"
         for f, r, g, x in STANDALONE_BUNDLES],
)
def test_half_assembly_equals_the_full_assembly(family, rank, gamma, restrict):
    # Oracle: every level m = 1..k-1 of _prefix_minors and _unknown_matrix,
    # built here in full.  For C/B the forms above k//2 are the mirrored
    # lower ones, and they must equal it; the certificate passes.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=restrict))
    g_matrix, scales = toda.solutions._holomorphic_matrix(b.wronskian, b.C)
    beta_den = b.wronskian.den
    lam_den, lam_num = _lambda_integers(b.lambdas)
    full = []
    for m, level in enumerate(toda.solutions._prefix_minors(g_matrix), start=1):
        ints, re, im = toda.solutions._unknown_matrix(level, lam_num)
        n = len(ints)
        full.append(UnknownForm(
            tuple(F(e - beta_den * m * (m - 1) // 2, beta_den) for e in ints),
            tuple((i, j, re[i][j], im[i][j]) for i in range(n) for j in range(n) if re[i][j] or im[i][j]),
            scales[m] ** 2 * lam_den**m,
        ))
    assert len(full) == cfg.k - 1
    assert b.forms == tuple(full)
    k = cfg.k
    if family != "A":
        assert all(b.forms[m - 1] is b.forms[k - m - 1] for m in range(1, k))
    assert verify_symmetry(b).passed


@st.composite
def raw_forms(draw, exponents=None):
    # (exponents, entries, den): sorted distinct exponents, each with a
    # nonzero diagonal entry, as assemble builds them; small parts, so that
    # equal pairs are drawn too.
    if exponents is None:
        exps = draw(st.lists(st.fractions(-2, 2, max_denominator=3), min_size=1, max_size=3, unique=True))
        exponents = tuple(sorted(exps))
    small = st.integers(-3, 3)
    entries = []
    for i in range(len(exponents)):
        for j in range(len(exponents)):
            re, im = draw(st.integers(1, 3) if i == j else small), draw(small)
            if re or im:
                entries.append((i, j, re, im))
    return exponents, tuple(entries), draw(st.integers(1, 4))


def unknown_forms(exponents=None):
    return raw_forms(exponents).map(lambda raw: UnknownForm(*raw))


def _scaled(form, t):
    return UnknownForm(
        form.exponents, tuple((i, j, t * re, t * im) for i, j, re, im in form.entries), t * form.den
    )


def _values(entries, den):
    return [(i, j, F(re, den), F(im, den)) for i, j, re, im in entries]


@settings(max_examples=200, deadline=None)
@given(st.data(), raw_forms(), st.integers(1, 10**30))
def test_lowest_terms_form_equality_is_unknown_equality(data, raw, t):
    # Lowest terms keep every value.  A form scaled by t > 0 is the same
    # form: equal, same hash, same denominator.  On any pair, form equality
    # is ZExpr equality.
    f = UnknownForm(*raw)
    assert _values(f.entries, f.den) == _values(*raw[1:])
    assert math.gcd(f.den, *(x for _, _, re, im in f.entries for x in (re, im))) == 1
    scaled = _scaled(f, t)
    assert scaled == f and hash(scaled) == hash(f) and scaled.den == f.den
    g = data.draw(st.one_of(unknown_forms(), unknown_forms(f.exponents)))
    same = f.expr == g.expr
    assert (f == g) == same
    assert (f == _scaled(g, t)) == same
    if same:
        assert hash(f) == hash(g)


def test_form_equality_ignores_the_listed_order():
    # Construction sorts the exponents (renumbering the entries) and the
    # entries by (i, j), so a form listed in another order is the same form:
    # equal, same hash, same JSON record.
    cfg = make_config("C", 2, [0, 0])
    f1 = assemble(cfg, random_params(cfg, random.Random(0))).forms[0]
    reversed_entries = UnknownForm(f1.exponents, f1.entries[::-1], f1.den)
    # The exponents in descending order, the entries renumbered to match.
    last = len(f1.exponents) - 1
    permuted = UnknownForm(
        f1.exponents[::-1], tuple((last - i, last - j, re, im) for i, j, re, im in f1.entries), f1.den
    )
    assert last > 0
    for g in (reversed_entries, permuted):
        assert g == f1 and hash(g) == hash(f1)
        assert form_to_json(g) == form_to_json(f1)
        assert g.exponents == f1.exponents and g.entries == f1.entries


@settings(max_examples=100, deadline=None)
@given(raw_forms(), st.randoms(use_true_random=False))
def test_shuffled_form_is_the_same_form(raw, rng):
    exps, entries, den = raw
    order = list(range(len(exps)))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    shuffled = [(where[i], where[j], re, im) for i, j, re, im in entries]
    rng.shuffle(shuffled)
    g = UnknownForm(tuple(exps[old] for old in order), tuple(shuffled), den)
    f = UnknownForm(*raw)
    assert g == f and hash(g) == hash(f) and g.expr == f.expr


def test_certificate_fails_every_change_of_f1_at_m_1():
    # Level m = 1 of the certificate is F_1 = nu^dag H nu, mod p: bumping
    # any one entry of H, real or imaginary part, fails it, without
    # building a ZExpr.
    cfg = make_config("B", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(8)))
    assert verify_symmetry(b).passed
    k = cfg.k

    def fails_at_1(bundle):
        return 1 in verify_symmetry(bundle).failures

    for a in range(k):
        for c in range(k):
            for bump in (ExactScalar.of(F(1, 10**9)), ExactScalar.of(0, F(1, 10**9))):
                rows = [list(row) for row in b.H.entries]
                rows[a][c] = rows[a][c] + bump
                # A copy whose H is read from its cache: the certificate reads bundle.H.
                bumped = replace(b)
                vars(bumped)["H"] = GroupElement.from_rows(rows)
                assert fails_at_1(bumped), (a, c, bump)
    # H comes from (lambdas, C): a bumped weight or a bumped lower entry of
    # C, real or imaginary part, reaches the certificate through the derived H.
    for i in range(k):
        lams = list(b.lambdas)
        lams[i] += F(1, 10**9)
        assert fails_at_1(replace(b, lambdas=tuple(lams))), i
    for i in range(k):
        for j in range(i):
            for bump in (ExactScalar.of(F(1, 10**9)), ExactScalar.of(0, F(1, 10**9))):
                rows = [list(row) for row in b.C.entries]
                rows[i][j] = rows[i][j] + bump
                assert fails_at_1(replace(b, C=GroupElement.from_rows(rows))), (i, j, bump)
    # The same entries on other exponents are not nu^dag H nu either.
    f1 = b.forms[0]
    shifted = UnknownForm(tuple(e + 1 for e in f1.exponents), f1.entries, f1.den)
    assert fails_at_1(replace(b, forms=(shifted,) + b.forms[1:]))
    assert "expr" not in vars(b.forms[0])


def _bumped_level(monkeypatch, m):
    # _unknown_matrix with 1 added to the real part of diagonal entry (0, 0)
    # of level m, the m-th call of an assemble.
    real = toda.solutions._unknown_matrix
    calls = []

    def bumped(level, lam_num):
        exps, re, im = real(level, lam_num)
        calls.append(1)
        if len(calls) == m:
            re[0][0] += 1
        return exps, re, im

    monkeypatch.setattr(toda.solutions, "_unknown_matrix", bumped)


@pytest.mark.parametrize(
    "family,rank,m",
    [("A", 3, 2), ("A", 3, 3), ("A", 5, 2), ("A", 5, 3), ("A", 5, 4), ("A", 5, 5),
     ("C", 3, 1), ("C", 3, 3), ("B", 3, 1), ("B", 3, 3)],
)
def test_assemble_raises_on_a_wrong_assembled_level(monkeypatch, family, rank, m):
    # Every level assemble builds (all of them on A, m <= k//2 on C/B) is
    # certified there: a wrong one is an internal error that names its m.
    # On C/B the mirror F_(k-m) is the same object and fails too, but it is
    # the symmetry row's to report, so only m is named.
    cfg = make_config(family, rank, [0] * rank)
    params = random_params(cfg, random.Random(rank))
    assert verify_symmetry(assemble(cfg, params)).passed
    _bumped_level(monkeypatch, m)
    with pytest.raises(StructureError, match=rf"fails the certificate at m = {m}$"):
        assemble(cfg, params)


@pytest.mark.parametrize("family,rank", [("A", 3), ("C", 3), ("B", 2)])
def test_assemble_and_verify_run_the_certificate_once(monkeypatch, family, rank):
    # assemble computes the bundle's certificate, and the symmetry row of
    # verify reads it: _TRIALS modular eliminations in all.
    real = toda.solutions.leading_minors
    calls = []

    def counting(q, modulus):
        calls.append(modulus)
        return real(q, modulus)

    monkeypatch.setattr(toda.solutions, "leading_minors", counting)
    cfg = make_config(family, rank, [0] * rank)
    b = assemble(cfg, random_params(cfg, random.Random(rank)))
    assert verify(b, count=2, tol=1e-9, seed=0).passed
    assert calls == [toda.solutions._P] * toda.solutions._TRIALS


def test_symmetry_vacuous_for_k2():
    cfg = make_config("C", 1, [F(1, 2)])
    b = assemble(cfg, SolutionParams.of([2], no_coords("C", 1)))
    assert verify_symmetry(b).passed


# -- reduction ------------------------------------------------------------------


def test_reduce_c3_is_plain():
    rng = random.Random(50)
    cfg = make_config("C", 3, random_gamma(rng, 3))
    for i, r in enumerate(reduced_unknowns(cfg), start=1):
        assert r.index == i
        assert r.multiplier == 1 and r.power == 1 and r.ln2_coefficient == 0


def test_reduce_b2_multipliers():
    cfg = make_config("B", 2, [0, 0])
    red = reduced_unknowns(cfg)
    assert red[0].multiplier == 2 and red[0].power == 1
    assert red[1].multiplier == 4 and red[1].power == F(1, 2)
    # ln(2) offsets follow (1, 2, ..., n-1, n/2).
    assert [r.ln2_coefficient for r in red] == [1, 1]


def test_reduce_b3_ln2_offsets():
    cfg = make_config("B", 3, [0, 0, 0])
    assert [r.ln2_coefficient for r in reduced_unknowns(cfg)] == [1, 2, F(3, 2)]


def test_reduce_requires_cb():
    cfg = make_config("A", 1, [0])
    assert reduced_unknowns(cfg) is None


def test_reduced_value_b2():
    cfg = make_config("B", 2, [0, 0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("B", 2)))
    z = 1 + 1j
    f1 = b.F[0].evaluate(z).real
    assert reduced_unknowns(cfg)[0].value_from(b.F[0].evaluate(z)) == pytest.approx(2 * f1)


@pytest.mark.parametrize("value", [0j, -1.5 + 2j])
def test_reduced_value_rejects_non_positive(value):
    # A non-positive scaled value has no real power: NaN, not a complex power.
    red = reduced_unknowns(make_config("B", 2, [0, 0]))[1]
    assert math.isnan(red.value_from(value))


@pytest.mark.parametrize("family", ["C", "B"])
def test_pde_negated_reduced_multiplier_fails_at_first_point(monkeypatch, family):
    # Every scaled value of U_1 is negative, so U_1 has no real value: the
    # reduced residual is NaN at the first point, and the check fails there.
    cfg = make_config(family, 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(5)))
    red = list(reduced_unknowns(cfg))
    red[0] = replace(red[0], multiplier=-red[0].multiplier)
    pts = annulus_points(3, 7)
    assert verify_pde(b, pts, tol=1e-9).passed
    monkeypatch.setattr(toda.solutions, "reduced_unknowns", lambda config: tuple(red))
    rep = verify_pde(b, pts, tol=1e-9)
    assert rep.passed is False
    assert math.isnan(rep.max_residual)
    assert rep.worst == (1, pts[0])


# -- monodromy -------------------------------------------------------------------


def test_monodromy_b2_allowed():
    alg = Algebra("B", 2)
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    coords = UnipotentCoords(alg, {(3, 0): ExactScalar.of(1, 1)})
    rep = verify_monodromy(assemble(cfg, SolutionParams.of([1, 2], coords)))
    assert rep.passed and rep.agree


def test_monodromy_b2_violation():
    alg = Algebra("B", 2)
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    coords = UnipotentCoords(alg, {(1, 0): ExactScalar.of(1)})
    rep = verify_monodromy(assemble(cfg, SolutionParams.of([1, 2], coords)))
    assert not rep.passed and rep.agree
    assert (1, 0) in rep.algebraic_offenders
    assert not rep.algebraic_ok and not rep.analytic_ok
    assert rep.analytic_offenders


def test_monodromy_integer_weights_any_coords():
    rng = random.Random(60)
    cfg = make_config("C", 2, [1, 0])
    params = random_params(cfg, rng, restrict=False)
    rep = verify_monodromy(assemble(cfg, params))
    assert rep.passed and rep.agree


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2), ("C", 3)])
def test_monodromy_checks_agree(family, rank):
    rng = random.Random(hash((family, rank, "mono")) & 0xFFF)
    for restrict in (True, False):
        cfg = make_config(family, rank, random_gamma(rng, rank))
        bundle = assemble(cfg, random_params(cfg, rng, restrict=restrict))
        rep = verify_monodromy(bundle)
        assert rep.agree
        # Assembly and the check read the integer forms of C and H only.
        assert "entries" not in vars(bundle.C) and "entries" not in vars(bundle.H)


def _zexpr_offenders(f1):
    # The analytic monodromy test on the terms of the ZExpr F_1.
    return tuple(
        f"z^{t.exp_z} zb^{t.exp_zbar}" for t in f1.terms if (t.exp_z - t.exp_zbar).denominator != 1
    )


@pytest.mark.parametrize(
    "family,rank,gamma",
    [
        ("A", 4, (F(1, 2), F(-1, 3), F(1, 4), F(2, 3))),
        ("C", 3, (F(1, 2), F(1, 3), F(-1, 4))),
        ("B", 3, (F(1, 2), F(-1, 3), F(1, 4))),
    ],
)
@pytest.mark.parametrize("restrict", [True, False])
def test_integer_form_checks_equal_zexpr_route(family, rank, gamma, restrict):
    # The analytic offenders and the integrability rows read the integer
    # forms; they must equal what the terms of the ZExprs give.  Unrestricted
    # coordinates put non-integral slots in C, hence offenders in F_1.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=restrict))
    offenders = verify_monodromy(b).analytic_offenders
    assert offenders == _zexpr_offenders(b.F[0])
    assert bool(offenders) == (not restrict)
    amat = toda.lie.cartan(Algebra("A", cfg.k - 1)).matrix
    mins = [min(t.exp_z + t.exp_zbar for t in f.terms) for f in b.F]
    maxs = [max(t.exp_z + t.exp_zbar for t in f.terms) for f in b.F]
    for row in verify_integrability(b).rows:
        a = amat[row.index - 1]
        assert row.exponent_at_zero == -sum(x * y for x, y in zip(a, mins))
        assert row.exponent_at_infinity == -sum(x * y for x, y in zip(a, maxs))


# -- characteristic data -----------------------------------------------------------


def test_characteristic_a1():
    cfg = make_config("A", 1, [F(1, 2)])
    data = characteristic_data(cfg)
    a = cfg.alpha[0]
    assert data.w == (-a * (a + 1),)
    assert data.beta == (-a, a + 1)


def test_characteristic_zero_weights():
    for family, rank in [("A", 3), ("C", 2), ("B", 2)]:
        cfg = make_config(family, rank, [0] * rank)
        data = characteristic_data(cfg)
        assert all(w == 0 for w in data.w)
        assert data.beta == tuple(range(cfg.k))


def test_characteristic_beta_partial_sums():
    rng = random.Random(70)
    cfg = make_config("B", 2, random_gamma(rng, 2))
    data = characteristic_data(cfg)
    for i in range(1, cfg.k):
        assert data.beta[i] - data.beta[0] == sum(cfg.mu_tilde[:i], F(0))


def test_characteristic_annihilates_basis():
    rng = random.Random(71)
    for family, rank in [("A", 2), ("C", 2), ("B", 2), ("C", 3)]:
        cfg = make_config(family, rank, random_gamma(rng, rank))
        data = characteristic_data(cfg)
        nu = nu_vector(cfg)
        for entry in nu.nu:
            assert apply_factors(cauchy_euler_shifts(cfg), entry).is_zero
        assert data.beta == nu.beta


@pytest.mark.parametrize(
    "family,gamma",
    [("A", (F(1, 3), F(-1, 2), F(1, 4))), ("C", (F(1, 3), F(-1, 2), F(2, 5))),
     ("B", (F(-1, 2), F(1, 4))), ("B", (F(1, 3), F(-1, 4), F(3, 2)))],
    ids=["A3", "C3", "B2", "B3"],
)
def test_monodromy_exponents_are_the_indicial_shifts(family, gamma):
    # One vector, read twice: the monodromy exponents and the Cauchy-Euler
    # shifts are both the differences of (0, alpha_tilde, 0).
    cfg = make_config(family, len(gamma), gamma)
    shifts = cauchy_euler_shifts(cfg)
    assert any(x.denominator > 1 for x in shifts)
    assert cfg.shifts == shifts
    assert characteristic_data(cfg).shifts == shifts
    assert len(shifts) == cfg.k and sum(shifts) == 0


_weights = st.fractions(min_value=-1, max_value=2, max_denominator=4).filter(lambda g: g > -1)


@given(
    st.sampled_from("ACB"),
    st.integers(1, 4).flatmap(lambda r: st.lists(_weights, min_size=r, max_size=r)),
    st.fractions(min_value=-5, max_value=5, max_denominator=7),
)
@settings(max_examples=60, deadline=None)
def test_indicial_polynomial_matches_sequential_factors(family, gamma, a):
    # The k factors d + s_t/z applied one after another to z^a give
    # P(a) z^(a-k), and P(a) = (a)_k + sum_j w_j (a)_(k-j).
    cfg = make_config(family, len(gamma), gamma)
    data = characteristic_data(cfg)
    k = cfg.k
    p = data.indicial(a)
    assert apply_factors(cauchy_euler_shifts(cfg), ZExpr.z_pow(a)) == ZExpr.monomial(p, a - k)
    assert falling(a, k) + sum(w * falling(a, k - j) for j, w in enumerate(data.w, start=2)) == p


# -- PDE residual --------------------------------------------------------------------


def test_pde_liouville_closed_form():
    cfg = make_config("A", 1, [0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("A", 1)))
    pts = annulus_points(20, 5)
    rep = verify_pde(b, pts, tol=1e-12)
    assert rep.passed
    # d_z d_zbar log(1+|z|^2) = 1/(1+|z|^2)^2 at a sample point.
    z = 1 + 1j
    f = b.F[0]
    fz, fzb = diff_z(f), diff_zbar(f)
    lhs = (f.evaluate(z) * diff_zbar(fz).evaluate(z) - fz.evaluate(z) * fzb.evaluate(z)) / f.evaluate(z) ** 2
    assert lhs == pytest.approx(1 / (1 + abs(z) ** 2) ** 2)


_PDE_SEEDS = range(0, 4096, 512)
# Seeds whose float PDE verdict fails a C2 solution that passes every exact
# check: max_residual just above tol = 1e-9 at m = 2.  The exact PDE verdict
# of ROADMAP item 2 would end these false failures.
_PDE_FALSE_FAILURES = {"C": (1536, 1638, 1771, 3647), "B": ()}


def _random_pde_bundle(family, rank, seed):
    rng = random.Random(seed)
    cfg = make_config(family, rank, random_gamma(rng, rank))
    return assemble(cfg, random_params(cfg, rng))


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2)])
def test_pde_random_configs(family, rank):
    for seed in sorted({*_PDE_SEEDS, *_PDE_FALSE_FAILURES[family]}):
        b = _random_pde_bundle(family, rank, seed)
        assert verify_symmetry(b).passed and verify_monodromy(b).passed, seed
        assert verify_integrability(b).passed, seed
        if seed not in _PDE_FALSE_FAILURES[family]:
            rep = verify_pde(b, annulus_points(10, 7), tol=1e-9)
            assert rep.passed and rep.reduced_checked, seed


@pytest.mark.xfail(
    strict=True,
    reason="float PDE verdict: max_residual just above tol 1e-9 on an exactly verified "
    "C2 solution; an exact verdict is ROADMAP item 2",
)
@pytest.mark.parametrize("seed", _PDE_FALSE_FAILURES["C"])
def test_pde_float_verdict_false_failures(seed):
    assert verify_pde(_random_pde_bundle("C", 2, seed), annulus_points(10, 7), tol=1e-9).passed


def test_pde_worked_example_configs():
    alg = Algebra("C", 3)
    cfg = make_config("C", 3, [F(-1, 2), F(1, 4), F(1)])
    coords = UnipotentCoords(alg, {(3, 2): ExactScalar.of(1, 1), (4, 0): ExactScalar.of(F(1, 2))})
    b = assemble(cfg, SolutionParams.of([1, 2, 3], coords))
    assert verify_pde(b, annulus_points(8, 7), tol=1e-9).passed

    algb = Algebra("B", 2)
    cfgb = make_config("B", 2, [F(-1, 2), F(1, 4)])
    coordsb = UnipotentCoords(algb, {(3, 0): ExactScalar.of(1, -2)})
    bb = assemble(cfgb, SolutionParams.of([1, 2], coordsb))
    assert verify_pde(bb, annulus_points(8, 7), tol=1e-9).passed


def test_pde_a_family_asymmetric_weights():
    rng = random.Random(94)
    for rank in (2, 3):
        cfg = make_config("A", rank, random_gamma(rng, rank))
        b = assemble(cfg, random_params(cfg, rng, bound=2))
        assert verify_pde(b, annulus_points(8, 7), tol=1e-9).passed


def test_rank_four_families():
    # Nothing caps the rank; spot-check assembly and verification at n = 4.
    rng = random.Random(95)
    for family in ("C", "B"):
        cfg = make_config(family, 4, [F(1, 2), F(-1, 3), F(1, 4), F(2)])
        b = assemble(cfg, random_params(cfg, rng, bound=2))
        assert verify_symmetry(b).passed
        assert verify_pde(b, annulus_points(4, 7), tol=1e-9).passed
        assert verify_integrability(b).passed


def test_log_laplacian_matches_finite_differences():
    # Independent oracle for the symbolic derivative route: the mixed
    # derivative equals a quarter of the real Laplacian, approximated with a
    # five-point stencil.
    import math

    rng = random.Random(93)
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    b = assemble(cfg, random_params(cfg, rng, bound=2))
    f = b.F[0]
    fz, fzb = diff_z(f), diff_zbar(f)
    fzzb = diff_zbar(fz)
    h = 1e-4  # near the roundoff/truncation balance for second differences

    def logf(z):
        return math.log(f.evaluate(z).real)

    for z in (1.1 + 0.4j, -0.5 + 1.3j, 0.8 - 0.9j):
        sym = (f.evaluate(z) * fzzb.evaluate(z) - fz.evaluate(z) * fzb.evaluate(z)) / f.evaluate(z) ** 2
        lap = (
            logf(z + h) + logf(z - h) + logf(z + 1j * h) + logf(z - 1j * h) - 4 * logf(z)
        ) / (h * h)
        assert sym.real == pytest.approx(lap / 4, rel=1e-4)
        assert abs(sym.imag) < 1e-12


def test_pde_strict_raises_on_absurd_tolerance():
    # Kept under its old name: a zero tolerance now fails the report, with
    # the worst point as its witness, instead of raising.
    cfg = make_config("A", 1, [0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("A", 1)))
    pts = annulus_points(5, 7)
    rep = verify_pde(b, pts, tol=0.0)
    assert rep.passed is False
    assert rep.max_residual > 0.0
    assert rep.worst is not None and rep.worst[1] in pts


def test_pde_rejects_empty_points():
    # No point would pass vacuously with points_checked = 0.
    cfg = make_config("A", 1, [0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("A", 1)))
    with pytest.raises(ValueError, match="at least one point"):
        verify_pde(b, (), tol=1e-9)
    with pytest.raises(ValueError, match="at least one point"):
        verify_pde(b, annulus_points(0, 7), tol=1e-9)


def test_pde_non_finite_residual_fails():
    # At 1e200(1+i) the powers overflow and the residual is NaN: it must fail
    # the check and be the worst one.
    cfg = make_config("C", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(5)))
    far = 1e200 + 1e200j
    rep = verify_pde(b, [far], tol=1e-9)
    assert rep.passed is False
    assert not math.isfinite(rep.max_residual)
    assert rep.worst == (1, far)


def test_pde_non_finite_residual_after_finite_point():
    # A finite point first sets a finite maximum; the non-finite residual
    # that follows must still take its place.
    cfg = make_config("C", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(5)))
    near, far = 1 + 1j, 1e200 + 1e200j
    assert verify_pde(b, [near], tol=1e-9).passed
    rep = verify_pde(b, [near, far, near], tol=1e-9)
    assert rep.passed is False
    assert not math.isfinite(rep.max_residual)
    assert rep.worst == (1, far)


@pytest.mark.parametrize(
    "family,rank,gamma",
    [("C", 2, (0, 0)), ("C", 2, (F(-1, 2), F(1, 4))), ("B", 2, (F(-1, 2), F(1, 4))),
     ("A", 2, (F(-1, 2), F(-1, 2))), ("B", 3, (0, 0, 0))],
)
@pytest.mark.parametrize(
    "z", [6.6e-223j, 1e-300 + 0j, 1e-170 + 1e-170j, complex(-1e-300, 1e-310), 1e300 + 0j, 1e150 + 1j]
)
def test_pde_at_tiny_and_huge_points_fails_or_passes_never_raises(family, rank, gamma, z):
    # Powers out of float range (0 to a negative power, an overflow), an
    # F^2 that underflows to 0 and a Cartan power of such a value are
    # non-finite, never an exception.  Such a point passes only with a
    # finite residual; otherwise it fails with the point as its witness.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    rep = verify_pde(b, [z], tol=1e-9)
    assert rep.points_checked == 1 and rep.worst[1] == z
    assert rep.passed == (rep.max_residual <= 1e-9)
    if not math.isfinite(rep.max_residual):
        assert rep.passed is False


def test_pde_tiny_point_with_vanishing_unknown_fails_with_witness():
    # At gamma = (-1/2, 1/4) every exponent of F_1 is positive, so at
    # 1e-300 F_1 underflows to 0: the log-Laplacian is NaN and the check
    # fails at m = 1 instead of dividing by zero.
    cfg = make_config("C", 2, (F(-1, 2), F(1, 4)))
    b = assemble(cfg, random_params(cfg, random.Random(2), restrict=True))
    assert min(b.forms[0].exponents) > 0
    tiny = 1e-300 + 0j
    rep = verify_pde(b, [1 + 1j, tiny], tol=1e-9)
    assert rep.passed is False
    assert math.isnan(rep.max_residual)
    assert rep.worst == (1, tiny)


def test_pde_evaluates_each_quantity_once_per_point(monkeypatch):
    # One float plan per distinct form per call (F and its three
    # derivatives), built from the integer form, and one power table per
    # point, shared by every plan, the A-side and the reduced system.  On C2
    # F_1 = F_3 share one plan; on A3 every F_m has its own.  No ZExpr is
    # built, evaluated or differentiated: no F_m ever becomes a ZExpr.
    rng = random.Random(96)
    cases = []
    for family, rank, distinct in (("C", 2, (0, 1)), ("A", 3, (0, 1, 2))):
        cfg = make_config(family, rank, [0] * rank)
        cases.append((assemble(cfg, random_params(cfg, rng)), distinct))
    plans, tables, symbolic = [], [], []
    real_plan, real_table = toda.solutions._pde_plan, toda.solutions._power_table

    def counting_plan(form, index):
        plans.append(form)
        return real_plan(form, index)

    def counting_table(z, exponents):
        tables.append(z)
        return real_table(z, exponents)

    def refuse(name):
        def call(self, *args):
            symbolic.append(name)
            raise AssertionError(f"ZExpr.{name} called")

        return call

    monkeypatch.setattr(toda.solutions, "_pde_plan", counting_plan)
    monkeypatch.setattr(toda.solutions, "_power_table", counting_table)
    # The program has no symbolic derivative; the only one is the test helper.
    monkeypatch.setattr(ZExpr, "evaluate", refuse("evaluate"))
    monkeypatch.setattr(conftest, "diff_z", refuse("diff_z"))
    monkeypatch.setattr(ZExpr, "from_terms", staticmethod(refuse("from_terms")))
    monkeypatch.setattr(UnknownForm, "expr", property(refuse("expr")))
    for b, distinct in cases:
        plans.clear()
        tables.clear()
        rep = verify_pde(b, annulus_points(5, 7), tol=1e-9)
        assert rep.passed and rep.reduced_checked == (b.config.family != "A")
        assert len(plans) == len(distinct)
        assert all(p is b.forms[m] for p, m in zip(plans, distinct))
        assert tables == list(annulus_points(5, 7)) and len(tables) == 5
        assert symbolic == []
        assert "F" not in vars(b)
        assert ["expr" in vars(f) for f in b.forms] == [False] * (b.k - 1)


def _per_form_pde_reference(bundle, points, tol=1e-9):
    # verify_pde as it was with one plan per F_m, duplicates included: the
    # reference for the shared plans of equal forms.
    index = {}
    plans = [toda.solutions._pde_plan(form, index) for form in bundle.forms]
    exponents = tuple(index)
    max_res, worst = 0.0, None

    def residual(m, z, lhs, values, row, unit):
        nonlocal max_res, worst
        rhs = unit
        for a, v in zip(row, values):
            if a != 0:
                rhs *= v ** (-a)
        rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
        if rel > max_res or (cmath.isnan(rel) and not cmath.isnan(max_res)):
            max_res, worst = rel, (m, z)

    amat = toda.lie.cartan(Algebra("A", bundle.k - 1)).matrix
    rows = []
    for z in points:
        powers = toda.solutions._power_table(z, exponents)
        values = [_float_sum(plan[0], powers) for plan in plans]
        laps = []
        for m, (fv, (_, fz, fzb, fzzb)) in enumerate(zip(values, plans), start=1):
            laps.append(
                (fv * _float_sum(fzzb, powers) - _float_sum(fz, powers) * _float_sum(fzb, powers))
                / (fv * fv)
            )
            residual(m, z, laps[-1], values, amat[m - 1], 1.0 + 0.0j)
        rows.append((z, values, laps))
    reduced = reduced_unknowns(bundle.config)
    if reduced is not None:
        fam = toda.lie.cartan(bundle.config.algebra).matrix
        for z, values, laps in rows:
            red = [r.value_from(v) for r, v in zip(reduced, values)]
            for m, r in enumerate(reduced, start=1):
                residual(m, z, float(r.power) * laps[m - 1], red, fam[m - 1], 1.0)
    return toda.solutions.PdeReport(max_res <= tol, max_res, worst, len(points), reduced is not None)


PDE_REFERENCE_CASES = [
    (family, rank, gamma)
    for family, rank in (("C", 2), ("C", 3), ("C", 4), ("B", 2), ("B", 3), ("A", 3))
    for gamma in ((0,) * rank, tuple(F(1, j + 2) for j in range(rank)))
]


@pytest.mark.parametrize(
    "family,rank,gamma",
    PDE_REFERENCE_CASES,
    ids=[f"{f}{r}-{'frac' if any(g) else 'zero'}" for f, r, g in PDE_REFERENCE_CASES],
)
def test_shared_plans_report_equals_per_form_reference(monkeypatch, family, rank, gamma):
    # One plan per distinct form gives the report of one plan per F_m, bit
    # for bit: k//2 plans on C/B, where F_m = F_{k-m}, and k-1 on A.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    points = annulus_points(20, 7)
    want = _per_form_pde_reference(b, points)
    plans = []
    real_plan = toda.solutions._pde_plan

    def counting_plan(form, index):
        plans.append(form)
        return real_plan(form, index)

    monkeypatch.setattr(toda.solutions, "_pde_plan", counting_plan)
    got = verify_pde(b, points, tol=1e-9)
    assert repr(got) == repr(want) and got.passed
    assert len(plans) == (cfg.k - 1 if family == "A" else cfg.k // 2)
    if family == "A":
        return
    # A bumped mirror F_{k-1} != F_1: both forms get a plan, and the report
    # (a failure) is still the per-form reference.
    forms = list(b.forms)
    i, j, re, im = forms[-1].entries[-1]
    assert i == j == len(forms[-1].exponents) - 1
    bumped_entries = forms[-1].entries[:-1] + ((i, j, re + forms[-1].den, im),)
    forms[-1] = UnknownForm(forms[-1].exponents, bumped_entries, forms[-1].den)
    bumped = replace(b, forms=tuple(forms))
    want = _per_form_pde_reference(bumped, points)
    plans.clear()
    got = verify_pde(bumped, points, tol=1e-9)
    assert repr(got) == repr(want) and not got.passed
    assert len(plans) == cfg.k // 2 + 1
    assert any(p is bumped.forms[0] for p in plans) and any(p is bumped.forms[-1] for p in plans)


def _evaluate_oracle(expr, point):
    # Term by term, as ZExpr.evaluate computed it before the shared float
    # routine: the reference for bit identity.
    z = complex(point)
    fractional = any(
        t.exp_z.denominator != 1 or t.exp_zbar.denominator != 1 for t in expr.terms
    )
    if z == 0:
        if any(t.exp_z < 0 or t.exp_zbar < 0 for t in expr.terms):
            raise OriginError("negative exponent at the origin")
        total = 0j
        for t in expr.terms:
            if t.exp_z == 0 and t.exp_zbar == 0:
                total += complex(t.coeff)
        return total
    if z.imag == 0 and z.real < 0 and fractional:
        raise BranchCutError(f"{z} lies on the branch cut")
    powers = {}

    def zpow(a):
        val = powers.get(a)
        if val is None:
            if a.denominator == 1:
                val = z ** a.numerator
            else:
                val = cmath.exp(float(a) * cmath.log(z))
            powers[a] = val
        return val

    total = 0j
    for t in expr.terms:
        total += complex(t.coeff) * zpow(t.exp_z) * zpow(t.exp_zbar).conjugate()
    return total


def _outcome(fn, *args):
    # repr keeps the sign of a zero part, so equal outcomes are bit-identical.
    try:
        return repr(fn(*args))
    except (OriginError, BranchCutError) as err:
        return type(err).__name__, str(err)


big_ints = st.integers(min_value=-(10**40), max_value=10**40)
big_dens = st.integers(min_value=1, max_value=10**40)


@settings(max_examples=150, deadline=None)
@given(big_ints, big_ints, big_dens, big_ints, big_dens)
def test_plan_coefficient_is_the_rounded_exact_product(re, im, den, num, q):
    # The plan rounds each coefficient c a^p, c = (re + i im)/den, of F
    # (p = 0), d_z F and d_zbar F (p = 1) and d_z d_zbar F (p = 2) once from
    # the integers of the form; each must equal the float of the exact
    # product, bit for bit.  A zero coefficient is not a form.
    assume(re or im)
    a = F(num, q)
    c = ExactScalar(F(re, den), F(im, den))
    plan = toda.solutions._pde_plan(UnknownForm((a,), ((0, 0, re, im),), den), {})
    want = [c, c * a, c * a, c * a * a] if num else [c]
    got = [terms[0][0] for terms in plan if terms]
    assert [repr(x) for x in got] == [repr(complex(w)) for w in want]


@pytest.mark.parametrize(
    "family,rank,gamma",
    [
        ("C", 2, (0, 0)),
        ("B", 2, (F(-1, 2), F(1, 4))),
        ("A", 3, (F(1, 3), F(1, 2), F(1, 3))),
    ],
)
def test_float_routine_is_bit_identical_to_term_oracle(family, rank, gamma):
    # ZExpr.evaluate and the verify_pde plans share one routine; both must
    # reproduce the term-by-term oracle on F_m and its symbolic derivatives,
    # at off-cut points, at the origin and on the cut.  evaluate's power
    # table holds the exponents of its own expression, a plan's table those
    # of every plan, so the origin and cut rules of a plan read them all
    # (_table_oracle).  The plans are built from the integer forms, the
    # oracle reads the ZExprs.
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    points = annulus_points(6, 3) + (0j, complex(-1.5, 0.0), complex(-0.5, -0.0), 2 + 0j)
    index = {}
    plans = [toda.solutions._pde_plan(form, index) for form in b.forms]
    exponents = tuple(index)

    def plan_value(terms, z):
        return _float_sum(terms, toda.solutions._power_table(z, exponents))

    seen = set()
    for f, plan in zip(b.F, plans):
        fz = diff_z(f)
        for expr, compiled in zip((f, fz, diff_zbar(f), diff_zbar(fz)), plan):
            for z in points:
                want = _outcome(_evaluate_oracle, expr, z)
                assert _outcome(expr.evaluate, z) == want
                assert _outcome(plan_value, compiled, z) == _outcome(_table_oracle, exponents, expr, z)
                seen.add(want[0] if isinstance(want, tuple) else ("origin" if z == 0 else "value"))
    expected = {"value", "origin"} if all(x == 0 for x in gamma) else {"value", "BranchCutError"}
    assert expected <= seen
    if family == "B":
        assert "OriginError" in seen


def _table_oracle(exponents, expr, point):
    # _evaluate_oracle with the origin and cut rules applied to every exponent of a power table.
    z = complex(point)
    if z == 0:
        if any(e < 0 for e in exponents):
            raise OriginError("negative exponent at the origin")
    elif z.imag == 0 and z.real < 0 and any(e.denominator != 1 for e in exponents):
        raise BranchCutError(f"{z} lies on the branch cut")
    return _evaluate_oracle(expr, z)


# verify_pde(points=[z]) on one bundle per case, at the origin, on the cut
# (both signs of a zero imaginary part) and off it: the reports, or the
# error and its message, as the per-sum origin and cut rules gave them
# before the power table applied them.
_PDE_POINTS = (0j, complex(-1.5, 0.0), complex(-0.5, -0.0), 1 + 1j)
_ORIGIN = ("OriginError", "negative exponent at the origin")
_PINNED_PDE = [
    (
        "C", 2, (0, 0),
        [
            "PdeReport(passed=True, max_residual=2.4189800823721683e-15, worst=(2, 0j), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=2.528972668076676e-14, worst=(2, (-1.5+0j)), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=1.7097444711382493e-14, worst=(2, (-0.5-0j)), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=9.784105057944635e-15, worst=(2, (1+1j)), "
            "points_checked=1, reduced_checked=True)",
        ],
    ),
    (
        "B", 2, (F(-1, 2), F(1, 4)),
        [
            _ORIGIN,
            ("BranchCutError", "(-1.5+0j) lies on the branch cut"),
            ("BranchCutError", "(-0.5-0j) lies on the branch cut"),
            "PdeReport(passed=True, max_residual=2.651513094780057e-15, worst=(1, (1+1j)), "
            "points_checked=1, reduced_checked=True)",
        ],
    ),
    (
        "A", 3, (F(1, 3), F(1, 2), F(1, 3)),
        [
            _ORIGIN,
            ("BranchCutError", "(-1.5+0j) lies on the branch cut"),
            ("BranchCutError", "(-0.5-0j) lies on the branch cut"),
            "PdeReport(passed=True, max_residual=9.512573197594413e-16, worst=(2, (1+1j)), "
            "points_checked=1, reduced_checked=False)",
        ],
    ),
    (
        "C", 3, (0, 0, 0),
        [
            "PdeReport(passed=True, max_residual=3.2836719131763e-15, worst=(2, 0j), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=3.2922248693722663e-15, worst=(3, (-1.5+0j)), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=1.4774203935281763e-14, worst=(3, (-0.5-0j)), "
            "points_checked=1, reduced_checked=True)",
            "PdeReport(passed=True, max_residual=8.381842573113766e-15, worst=(1, (1+1j)), "
            "points_checked=1, reduced_checked=True)",
        ],
    ),
]


@pytest.mark.parametrize(
    "family,rank,gamma,outcomes", _PINNED_PDE, ids=[f"{f}{r}" for f, r, _, _ in _PINNED_PDE]
)
def test_pde_single_point_outcomes_are_pinned(family, rank, gamma, outcomes):
    cfg = make_config(family, rank, gamma)
    b = assemble(cfg, random_params(cfg, random.Random(rank), restrict=True))
    assert [_outcome(lambda z: verify_pde(b, [z], tol=1e-9), z) for z in _PDE_POINTS] == outcomes


@pytest.mark.parametrize(
    "family,rank", [("C", 2), ("C", 3), ("C", 4), ("B", 2), ("B", 3), ("A", 2), ("A", 3), ("A", 4)]
)
def test_form_table_lists_each_form_once(family, rank):
    # k//2 forms on C/B, whose mirror F_(k-m) is the object F_m, and k - 1 on A.
    # assemble puts every exponent on the grid (1/B)Z, so L = B, which keeps
    # every report of an assembled bundle byte-identical.
    for gamma in ([0] * rank, [F(1, 3)] * rank):
        cfg = make_config(family, rank, gamma)
        b = assemble(cfg, random_params(cfg, random.Random(rank)))
        distinct, slots, lcd, exps = toda.solutions._form_table(b)
        assert len(distinct) == (cfg.k - 1 if family == "A" else cfg.k // 2)
        assert len({id(form) for form in distinct}) == len(distinct)
        assert all(form is distinct[slot] for form, slot in zip(b.forms, slots))
        assert slots[: len(distinct)] == list(range(len(distinct)))
        assert lcd == b.wronskian.den
        assert exps == [[e * lcd for e in form.exponents] for form in distinct]


def test_degree_range_assumes_no_order():
    # Exponents out of order: the first entry of row 0 has the greatest
    # degree, 0 + 2, and the last the least, 0 + 1.
    form = UnknownForm((F(0), F(2), F(1)), ((0, 1, 1, 0), (0, 2, 1, 0)), 1)
    assert toda.solutions._degree_range(form, [0, 2, 1], 1) == (1, 2)


@pytest.mark.parametrize("family,slot", [("B", 1), ("C", 0)])
def test_pde_reduced_multiplier_negative_control(monkeypatch, family, slot):
    # The A-side system does not read the multipliers, so only the reduced
    # pass can catch a wrong one.
    rng = random.Random(97)
    cfg = make_config(family, 2, [0, 0])
    b = assemble(cfg, random_params(cfg, rng))
    pts = annulus_points(5, 7)
    assert verify_pde(b, pts, tol=1e-9).passed
    red = list(reduced_unknowns(cfg))
    red[slot] = replace(red[slot], multiplier=red[slot].multiplier * 2)
    monkeypatch.setattr(toda.solutions, "reduced_unknowns", lambda config: tuple(red))
    rep = verify_pde(b, pts, tol=1e-9)
    assert rep.reduced_checked
    assert rep.passed is False


def test_no_solutions_function_has_a_default():
    # Each check reads its arguments from its caller; the command-line
    # options of toda verify hold the only defaults of points, tol and seed.
    for name in toda.solutions.__all__:
        obj = getattr(toda.solutions, name)
        if inspect.isfunction(obj):
            params = inspect.signature(obj).parameters.values()
            assert all(p.default is p.empty for p in params), name


def test_a_case_form_reads_the_bundle_weights():
    # a_case_form reads bundle.lambdas: a bundle with one weight doubled
    # changes the product by 4 and fails the monic-form row.
    cfg = make_config("A", 3, [0, 0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(3)))
    lams = list(b.lambdas)
    lams[1] *= 2
    doubled = replace(b, lambdas=tuple(lams))
    assert a_case_form(doubled).product == 4 * a_case_form(b).product
    rows = {row.name: row for row in verify(b, count=2, tol=1e-9, seed=0).rows}
    assert rows["monic-form"].passed
    rows = {row.name: row for row in verify(doubled, count=2, tol=1e-9, seed=0).rows}
    assert not rows["monic-form"].passed


def test_bundle_holds_lambda_and_c_once():
    # The bundle stores (Lambda, C); H is derived, and no field repeats another.
    assert SolutionBundle._fields == ("config", "wronskian", "forms", "C", "lambdas")
    assert toda.solutions.ACaseReport._fields == (
        "lambda_hat", "product", "product_expected", "monic_coefficients"
    )
    cfg = make_config("C", 3, [0, 0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(4)))
    assert b.H == (lambda x: x.conj_transpose() @ x)(diagonal_element(b.lambdas) @ b.C)


def test_h_is_built_once_per_assemble_and_verify(monkeypatch):
    # assemble builds H for the bundle's certificate, which the symmetry row
    # of verify reads from the bundle: one matrix product in all.
    calls = []
    product = GroupElement.__matmul__

    def counted(self, other):
        calls.append(1)
        return product(self, other)

    monkeypatch.setattr(GroupElement, "__matmul__", counted)
    cfg = make_config("C", 3, [0, 0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(5)))
    assert verify(b, count=2, tol=1e-9, seed=0).passed
    assert len(calls) == 1


def test_changed_lambdas_give_a_new_h():
    # replace builds a new bundle, whose H is derived from its own lambdas:
    # the old forms then fail the certificate.
    cfg = make_config("C", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(6)))
    h = b.H
    lams = list(b.lambdas)
    lams[0] *= 2
    doubled = replace(b, lambdas=tuple(lams))
    assert doubled.H != h
    rows = {row.name: row for row in verify(doubled, count=2, tol=1e-9, seed=0).rows}
    assert not rows["symmetry"].passed


def test_copies_do_not_carry_a_cached_h():
    cfg = make_config("B", 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(7)))
    assert "H" in vars(b) and "certificate" in vars(b)
    for copy in (replace(b), pickle.loads(pickle.dumps(b))):
        assert copy == b and "H" not in vars(copy) and "certificate" not in vars(copy)
        assert copy.H == b.H and copy.H is not b.H
        assert copy.certificate == b.certificate and copy.certificate is not b.certificate


def _changed_field(b, field):
    """A value of one bundle field that differs from b's."""
    cfg = b.config
    if field == "wronskian":
        gamma = [F(1)] + [F(0)] * (cfg.rank - 1)
        return wronskian(nu_vector(make_config(cfg.family, cfg.rank, gamma)))
    if field == "lambdas":
        return (2 * b.lambdas[0],) + b.lambdas[1:]
    other = assemble(cfg, random_params(cfg, random.Random(12)))
    return getattr(other, field)


_ITEM_7 = pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: toda verify runs the certificate on C/B only, so on A no row reads H",
)


@pytest.mark.parametrize(
    "family,field",
    [
        pytest.param(family, field, marks=_ITEM_7 if family == "A" and field in ("forms", "C") else ())
        for family in ("C", "B", "A")
        for field in ("forms", "C", "lambdas", "wronskian")
    ],
)
def test_every_bundle_field_reaches_a_verify_row(family, field):
    # A bundle changed in one field fails at least one row of verify: no
    # row reads a copy of the field that the change would miss.
    cfg = make_config(family, 2, [0, 0])
    b = assemble(cfg, random_params(cfg, random.Random(11)))
    assert verify(b, count=2, tol=1e-9, seed=0).passed
    value = _changed_field(b, field)
    assert value != getattr(b, field)
    changed = replace(b, **{field: value})
    assert not verify(changed, count=2, tol=1e-9, seed=0).passed


def test_exported_names_resolve():
    for name in toda.solutions.__all__:
        assert hasattr(toda.solutions, name), name
    assert toda.__all__
    for name in toda.__all__:
        module = importlib.import_module(f"toda.{toda._SOURCE[name]}")
        assert getattr(toda, name) is getattr(module, name), name


def test_annulus_points_off_cut():
    for z in annulus_points(50, 1):
        assert 0.3 <= abs(z) <= 3.0
        assert not (z.real < 0 and abs(z.imag) < 1e-12)


# -- integrability ---------------------------------------------------------------------


def test_integrability_liouville():
    cfg = make_config("A", 1, [0])
    b = assemble(cfg, SolutionParams.of([1, 1], no_coords("A", 1)))
    rep = verify_integrability(b)
    row = rep.rows[0]
    assert row.exponent_at_zero == 0
    assert row.exponent_at_infinity == -4
    assert rep.passed


@pytest.mark.parametrize("family,rank", [("C", 2), ("B", 2), ("C", 3)])
def test_integrability_matches_weights(family, rank):
    rng = random.Random(hash((family, rank, "int")) & 0xFFF)
    cfg = make_config(family, rank, random_gamma(rng, rank))
    b = assemble(cfg, random_params(cfg, rng))
    rep = verify_integrability(b)
    assert rep.passed
    for m, row in enumerate(rep.rows, start=1):
        assert row.exponent_at_zero == 2 * cfg.gamma_tilde[m - 1]
        assert row.exponent_at_infinity < -2


def test_integrability_invariant_under_coordinates():
    # Changing the diagonal weights and coordinates never moves the two
    # leading exponents.
    rng = random.Random(90)
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    plain = assemble(cfg, SolutionParams.of([1, 1], no_coords("B", 2)))
    rich = assemble(cfg, random_params(cfg, rng, bound=3))
    for a, b_row in zip(verify_integrability(plain).rows, verify_integrability(rich).rows):
        assert a.exponent_at_zero == b_row.exponent_at_zero
        assert a.exponent_at_infinity == b_row.exponent_at_infinity


# -- A-family monic form ------------------------------------------------------------------


def test_a_case_product_condition():
    cfg = make_config("A", 2, [0, 0])
    rep = a_case_form(assemble(cfg, SolutionParams.of([1, 1, 1], no_coords("A", 2))))
    assert rep.product == F(1, 4)
    assert rep.passed


def test_a_case_leading_terms():
    rng = random.Random(91)
    cfg = make_config("A", 2, random_gamma(rng, 2))
    params = random_params(cfg, rng)
    rep = a_case_form(assemble(cfg, params))
    # The normalized weights are lambda_i^2 chi_i^2.
    nu = nu_vector(cfg)
    lams = full_lambda(cfg, params)
    assert rep.lambda_hat == tuple(l * l * c * c for l, c in zip(lams, nu.chi))


def test_a_case_monic_form_rebuilds_first_unknown():
    # |z|^(-2 alpha_1) (lhat_0 + sum lhat_i |P_i|^2) with monic P_i must
    # reproduce the assembled F_1 exactly.
    rng = random.Random(96)
    cfg = make_config("A", 3, random_gamma(rng, 3))
    bundle = assemble(cfg, random_params(cfg, rng, bound=2))
    rep = a_case_form(bundle)
    mu = cfg.mu_tilde
    prefactor = ZExpr.monomial(1, -cfg.alpha[0], -cfg.alpha[0])
    total = ZExpr.const(rep.lambda_hat[0])
    for i in range(1, cfg.k):
        poly = ZExpr.z_pow(sum(mu[:i], F(0)))
        for name, coeff in rep.monic_coefficients[i - 1].items():
            j = int(name[2:])
            poly = poly + coeff * ZExpr.z_pow(sum(mu[:j], F(0)))
        total = total + rep.lambda_hat[i] * (poly.conjugate() * poly)
    assert prefactor * total == bundle.F[0]


def test_a_case_forbidden_coordinates():
    # mu = (3/2, 3/2): single-step spans are non-integral, the double is,
    # so c10 and c21 are forbidden and c20 is not.  verify_monodromy alone
    # decides them; monic-form decides only the product identity.
    cfg = make_config("A", 2, [F(1, 2), F(1, 2)])
    alg = Algebra("A", 2)

    def bundle(values):
        return assemble(cfg, SolutionParams.of([1, 1, 1], UnipotentCoords(alg, values)))

    one = ExactScalar.of(1)
    for slot in ((1, 0), (2, 1), (2, 0)):
        rep = verify_monodromy(bundle({slot: one}))
        assert rep.algebraic_offenders == (() if slot == (2, 0) else (slot,))
    assert verify_monodromy(bundle({})).passed
    bad = bundle({(1, 0): one})
    rep = a_case_form(bad)
    chi = nu_vector(cfg).chi
    assert rep.passed and rep.monic_coefficients == ({"c10": one * (chi[0] / chi[1])}, {})
    rows = {row.name: row for row in verify(bad, count=2, tol=1e-9, seed=0).rows}
    assert not rows["monodromy"].passed and rows["monodromy"].witness.startswith("slots=[c10] ")
    assert rows["monic-form"].passed


def test_a_case_product_violation():
    cfg = make_config("A", 1, [0])
    bad = SolutionParams.of([2, 2], no_coords("A", 1))
    rep = a_case_form(assemble(cfg, bad))
    assert rep.passed is False
    assert rep.product != rep.product_expected
    assert (rep.product, rep.product_expected) == (16, 1)


def test_a_case_requires_family_a():
    cfg = make_config("C", 2, [0, 0])
    with pytest.raises(ValueError):
        a_case_form(assemble(cfg, SolutionParams.of([1, 1], no_coords("C", 2))))
