import math
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from conftest import diff_z, falling, random_gamma, random_palindromic_gamma, sigma_vector
from toda import make_config
from toda.basis import (
    NuVector,
    StructureError,
    column_minor,
    gram_schmidt_normalizer,
    nu_vector,
    nu_vector_from_mu,
    pairing_matrix,
    wronskian,
)
from toda.cli import main
from toda.exact import SCALAR_ONE, ExactScalar, ZExpr
from toda.groups import GroupElement, form_matrix
from toda.linalg import det as generic_det
from toda.linalg import leading_minors, mat_mul, transpose

Z0, Z1 = ZExpr.zero(), ZExpr.one()


# -- nested antiderivatives ---------------------------------------------


def test_sigma_liouville():
    assert sigma_vector([F(1)]) == (Z1, ZExpr.z_pow(1))


def test_sigma_two_steps():
    s = sigma_vector([F(1), F(1)])
    assert s[2] == ZExpr.monomial(F(1, 2), 2)


def test_sigma_symmetric_denominator():
    m1, m2 = F(2, 3), F(5, 4)
    s = sigma_vector([m1, m2, m2, m1])
    denom = 2 * m1 * (m1 + m2) ** 2 * (m1 + 2 * m2)
    t = s[4].single_monomial()
    assert t.coeff.re == 1 / denom
    assert t.exp_z == 2 * m1 + 2 * m2


def test_sigma_requires_positive():
    with pytest.raises(ValueError):
        sigma_vector([F(0)])


def test_sigma_satisfies_nested_integral_recursion():
    # d/dz of the i-th entry is z^(mu_1 - 1) times the (i-1)-th entry built
    # from the tail exponents; this pins the closed form to the nested
    # antiderivative definition.
    rng = random.Random(23)
    for _ in range(10):
        mu = [F(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(4)]
        outer = sigma_vector(mu)
        inner = sigma_vector(mu[1:])
        weight = ZExpr.z_pow(mu[0] - 1)
        for i in range(1, len(mu) + 1):
            assert diff_z(outer[i]) == weight * inner[i - 1]


# -- basis vector --------------------------------------------------------


def test_nu_liouville():
    nu = nu_vector(make_config("A", 1, [0]))
    assert nu.nu == (Z1, ZExpr.z_pow(1))
    assert nu.beta == (F(0), F(1))


def test_nu_b2_zero_weights():
    nu = nu_vector(make_config("B", 2, [0, 0]))
    assert [1 / c for c in nu.chi] == [1, 1, 2, 6, 24]
    assert nu.beta == (0, 1, 2, 3, 4)


def test_nu_c3_prefactor_and_denominators():
    g1, g2, g3 = F(1, 2), F(1, 3), F(1, 5)
    cfg = make_config("C", 3, [g1, g2, g3])
    nu = nu_vector(cfg)
    assert nu.xi_exponent == g1 + g2 + g3 / 2
    m1, m2, m3 = g1 + 1, g2 + 1, g3 + 1
    expected = [
        F(1),
        m1,
        m2 * (m1 + m2),
        m3 * (m2 + m3) * (m1 + m2 + m3),
        m2 * (m2 + m3) * (2 * m2 + m3) * (m1 + 2 * m2 + m3),
        m1 * (m2 + m1) * (m1 + m2 + m3) * (m1 + 2 * m2 + m3) * (2 * m1 + 2 * m2 + m3),
    ]
    assert [1 / c for c in nu.chi] == expected
    assert nu.beta[0] == -nu.xi_exponent


# -- Wronskian -----------------------------------------------------------


def test_wronskian_liouville():
    w = wronskian(nu_vector(make_config("A", 1, [0])))
    assert w.entries == ((Z1, Z0), (ZExpr.z_pow(1), Z1))


@pytest.mark.parametrize("family,rank", [("A", 2), ("A", 3), ("C", 2), ("C", 3), ("B", 2), ("B", 3)])
def test_wronskian_determinant_one(family, rank):
    rng = random.Random(hash((family, rank)) & 0xFFFF)
    for _ in range(5):
        cfg = make_config(family, rank, random_gamma(rng, rank))
        wronskian(nu_vector(cfg))  # raises if det != 1


@pytest.mark.parametrize("family,rank,gamma", [("C", 2, (F(-1, 2), F(1, 4))), ("A", 3, (0, 0, 0))])
@pytest.mark.parametrize("part", ["chi", "beta", "shift", "zero-chi", "repeated-beta"])
def test_wronskian_rejects_perturbed_basis(family, rank, gamma, part):
    # Doubling one chi_i doubles det W; moving one beta_i changes both the
    # Vandermonde coefficient and the power of z; moving every beta_i by the
    # same amount keeps the coefficient 1 and changes only the power of z.
    # A zero chi_i gives a zero row and a repeated beta_i two proportional
    # rows: det W = 0, read from a vanishing leading minor.  Each time
    # det W != 1, and the reported determinant is the one of the Laplace
    # expansion over ZExpr.
    nu = nu_vector(make_config(family, rank, gamma))
    chi, beta = list(nu.chi), list(nu.beta)
    if part == "chi":
        chi[1] *= 2
    elif part == "beta":
        beta[1] += F(1, 7)
    elif part == "shift":
        beta = [b + F(1, 7) for b in beta]
    elif part == "zero-chi":
        chi[1] = F(0)
    else:
        beta[1] = beta[0]
    bad = NuVector(tuple(chi), tuple(beta), nu.xi_exponent)
    laplace = generic_det(_derivative_columns(bad.nu), Z0, Z1)
    assert laplace == Z0 if part in ("zero-chi", "repeated-beta") else laplace != Z1
    with pytest.raises(StructureError) as err:
        wronskian(bad)
    assert str(err.value) == f"Wronskian determinant is {laplace}, expected 1"


def _derivative_columns(nu):
    # The Wronskian matrix the long way: rows of successive diff_z of each entry.
    cols = [nu]
    for _ in range(len(nu) - 1):
        cols.append(tuple(diff_z(e) for e in cols[-1]))
    return tuple(zip(*cols))


@pytest.mark.parametrize(
    "family,rank,gamma",
    [
        ("C", 2, (F(-1, 2), F(1, 4))),
        ("C", 3, (F(1, 2), F(-1, 3), F(1, 5))),
        ("C", 4, (F(1, 3), F(3, 4), F(-2, 5), F(1, 2))),
        ("B", 2, (F(-1, 2), F(1, 4))),
        ("B", 3, (F(2, 3), F(-1, 4), F(1, 2))),
    ],
    ids=["C2", "C3", "C4", "B2", "B3"],
)
def test_wronskian_table_matches_derivative_columns(family, rank, gamma):
    # coeffs[i][j] is the coefficient of the j-th z-derivative of nu_i, and
    # the entries built on access are those derivatives.  The stored integer
    # form is held to its definition on Fractions: beta_s = exps[s] / den,
    # den the lcm of the beta denominators, and column j is
    # chi_s (beta_s)_j over D_j, the lcm of its reduced denominators.
    w = wronskian(nu_vector(make_config(family, rank, gamma)))
    oracle = _derivative_columns(w.nu.nu)
    assert "coeffs" not in vars(w) and "entries" not in vars(w)
    chi, beta = w.nu.chi, w.nu.beta
    assert w.den == math.lcm(*(b.denominator for b in beta))
    assert [F(e) for e in w.exps] == [w.den * b for b in beta]
    assert len(w.cols) == len(w.col_dens) == w.k
    for j, (col, dj) in enumerate(zip(w.cols, w.col_dens)):
        column = [c * falling(b, j) for c, b in zip(chi, beta)]
        assert dj == math.lcm(*(x.denominator for x in column)), j
        assert [F(x, dj) for x in col] == column, j
    for b, row, coeffs in zip(w.nu.beta, oracle, w.coeffs):
        for j, (entry, c) in enumerate(zip(row, coeffs)):
            assert entry == ZExpr.monomial(c, b - j)
    assert w.entries == oracle


def test_wronskian_first_column_is_basis():
    cfg = make_config("C", 2, [F(1, 3), F(1, 2)])
    nu = nu_vector(cfg)
    w = wronskian(nu)
    assert tuple(row[0] for row in w.entries) == nu.nu


@pytest.mark.parametrize(
    "family,rank", [("C", 2), ("C", 3), ("C", 4), ("C", 5), ("B", 2), ("B", 3), ("B", 4)]
)
@pytest.mark.parametrize("gamma", [0, F(1, 3)], ids=["zero", "frac"])
def test_int_det_of_the_wronskian_table(family, rank, gamma):
    # The table's determinant is D_0 ... D_(k-1) (det W = 1), as the last
    # leading minor of the elimination and by Laplace expansion, on the
    # columns and on the rows; no leading minor of the table is 0.
    w = wronskian(nu_vector(make_config(family, rank, [gamma] * rank)))
    want = generic_det(transpose(w.cols), 0, 1)
    by_cols, by_rows = leading_minors(w.cols), leading_minors(transpose(w.cols))
    assert by_cols[-1] == by_rows[-1] == want == math.prod(w.col_dens)


def test_column_minor_matches_generic_det():
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    w = wronskian(nu_vector(cfg))
    for m in range(1, 6):
        for rows in combinations(range(5), m):
            sub = tuple(tuple(w.entries[r][c] for c in range(m)) for r in rows)
            assert column_minor(w, rows) == generic_det(sub, Z0, Z1)


def test_minor_complement_identity():
    # Minor over rows S and the first m columns equals the minor over the
    # inverted complement rows and the first k-m columns.
    for family, rank in [("C", 2), ("B", 2)]:
        cfg = make_config(family, rank, [F(1, 3), F(3, 4)])
        w = wronskian(nu_vector(cfg))
        k = w.k
        for m in range(0, k + 1):
            for rows in combinations(range(k), m):
                comp = [r for r in range(k) if r not in rows]
                inverted = tuple(sorted(k - 1 - r for r in comp))
                assert column_minor(w, rows) == column_minor(w, inverted)


# -- pairing ---------------------------------------------------------------


def test_pairing_k2_is_form():
    cfg = make_config("A", 1, [0])
    w = wronskian(nu_vector(cfg))
    p = pairing_matrix(w, form_matrix(2))
    j = form_matrix(2)
    for a in range(2):
        for b in range(2):
            assert p[a][b] == ZExpr.const(j.entries[a][b])


def test_pairing_pattern_b2():
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    w = wronskian(nu_vector(cfg))
    p = pairing_matrix(w, form_matrix(5))
    k = 5
    for a in range(k):
        for b in range(k):
            if a + b < k - 1 or a + b == k:
                assert p[a][b].is_zero
            elif a + b == k - 1:
                assert p[a][b] == ZExpr.const(1 if a % 2 == 0 else -1)
    # Odd dimension: the bottom-right self-pairing is generically nonzero.
    assert not p[k - 1][k - 1].is_zero


def test_pairing_self_entry_vanishes_even_dim():
    cfg = make_config("C", 2, [F(1, 3), F(1, 2)])
    w = wronskian(nu_vector(cfg))
    p = pairing_matrix(w, form_matrix(4))
    assert p[3][3].is_zero


def test_pairing_requires_symmetric_exponents():
    cfg = make_config("A", 2, [F(1, 2), F(1, 3)])
    w = wronskian(nu_vector(cfg))
    with pytest.raises(StructureError):
        pairing_matrix(w, form_matrix(3))


def test_pairing_dimension_mismatch():
    cfg = make_config("A", 1, [0])
    w = wronskian(nu_vector(cfg))
    with pytest.raises(ValueError):
        pairing_matrix(w, form_matrix(3))


# -- normalization ----------------------------------------------------------


def test_normalizer_identity_for_liouville():
    cfg = make_config("A", 1, [0])
    w = wronskian(nu_vector(cfg))
    u = gram_schmidt_normalizer(w, form_matrix(2))
    assert u == ((Z1, Z0), (Z0, Z1))


def test_normalizer_last_column_correction():
    # The high column of the outer plane is corrected by -p/2 times the
    # basis column, with p its self-pairing.
    cfg = make_config("B", 2, [F(-1, 2), F(1, 4)])
    w = wronskian(nu_vector(cfg))
    j = form_matrix(5)
    p = pairing_matrix(w, j)
    u = gram_schmidt_normalizer(w, j)
    assert u[0][4] == p[4][4].scale_div(-2)


def _check_normalized(cfg):
    w = wronskian(nu_vector(cfg))
    k = w.k
    j = form_matrix(k)
    u = gram_schmidt_normalizer(w, j)
    for a in range(k):
        assert u[a][a] == Z1
        for b in range(a):
            assert u[a][b].is_zero
    # (WU)^t J (WU) == J is verified inside; recheck independently.
    wu = [
        [sum((w.entries[r][i] * u[i][c] for i in range(k)), Z0) for c in range(k)]
        for r in range(k)
    ]
    for a in range(k):
        for b in range(k):
            acc = Z0
            for r in range(k):
                term = wu[r][a] * wu[k - 1 - r][b]
                acc = acc + (term if r % 2 == 0 else -term)
            assert acc == ZExpr.const(j.entries[a][b])


@pytest.mark.parametrize("family,rank", [("C", 2), ("C", 3), ("B", 2), ("B", 3)])
def test_normalizer_exact_identity(family, rank):
    rng = random.Random(hash((family, rank, "gs")) & 0xFFFF)
    cfg = make_config(family, rank, random_gamma(rng, rank))
    _check_normalized(cfg)


def test_normalizer_palindromic_a_family():
    rng = random.Random(17)
    for rank in (1, 2, 3, 4):
        cfg = make_config("A", rank, random_palindromic_gamma(rng, rank))
        _check_normalized(cfg)


@pytest.mark.parametrize("family,rank", [("C", 2), ("C", 3), ("B", 2), ("B", 3)])
def test_normalizer_rejects_a_rescaled_form_at_the_final_check(family, rank):
    # Rescaling chi_r by s_r with prod s_r = 1 keeps det W = 1, and the one
    # form the pairing pattern then admits is J with entry (r, k-1-r)
    # divided by s_r s_(k-1-r): not +-1 on the secondary diagonal.  The
    # plane steps cannot fail on it; they reach the standard +-1 pattern,
    # which is not this form, and the final check rejects it.
    nu = nu_vector(make_config(family, rank, (0,) * rank))
    k = nu.k
    scale = [F(2), F(1, 3)] + [F(1)] * (k - 3) + [F(3, 2)]
    w = wronskian(NuVector(tuple(c * x for c, x in zip(nu.chi, scale)), nu.beta, nu.xi_exponent))
    std = form_matrix(k)
    rows = [[x / (scale[r] * scale[k - 1 - r]) for x in row] for r, row in enumerate(std.entries)]
    assert any(rows[r][k - 1 - r] not in (SCALAR_ONE, -SCALAR_ONE) for r in range(k))
    j = GroupElement.from_rows(rows)
    pairing_matrix(w, j)
    with pytest.raises(StructureError):
        pairing_matrix(w, std)
    with pytest.raises(StructureError, match="normalized columns do not reproduce the form"):
        gram_schmidt_normalizer(w, j)


def test_nu_from_mu_requires_increasing_exponents():
    nu = nu_vector_from_mu([F(1, 2), F(3)], F(0))
    assert nu.beta == (0, F(1, 2), F(7, 2))


# -- the ZExpr route as the oracle -------------------------------------------
#
# pairing_matrix and gram_schmidt_normalizer as they were written on ZExpr
# matrix products and column operations of the Wronskian's entries, before
# both moved to its integer table.


def _zexpr_pairing(w, j):
    k = w.k
    if j.dim != k:
        raise ValueError("form dimension mismatch")
    jz = tuple(
        tuple(ZExpr.const(x) for x in row) for row in j.entries
    )
    wt = transpose(w.entries)
    p = mat_mul(mat_mul(wt, jz, Z0), w.entries, Z0)
    for a in range(k):
        for b in range(k):
            entry = p[a][b]
            if a + b < k - 1 or a + b == k:
                if not entry.is_zero:
                    raise StructureError(
                        f"pairing entry ({a},{b}) should vanish, got {entry}"
                    )
            elif a + b == k - 1:
                want = ZExpr.const(1 if a % 2 == 0 else -1)
                if entry != want:
                    raise StructureError(
                        f"pairing entry ({a},{b}) should be {want}, got {entry}"
                    )
    return p


def _zexpr_gram_schmidt(w, j):
    k = w.k
    _zexpr_pairing(w, j)  # rejects non-palindromic exponent data up front
    cols: list[list[ZExpr]] = [list(col) for col in transpose(w.entries)]
    u: list[list[ZExpr]] = [
        [Z1 if a == b else Z0 for b in range(k)] for a in range(k)
    ]
    jrows = j.entries

    def pair(x: list[ZExpr], y: list[ZExpr]) -> ZExpr:
        acc = Z0
        for r in range(k):
            jv = jrows[r][k - 1 - r]
            term = x[r] * y[k - 1 - r]
            acc = acc + (term if jv.re > 0 else -term)
        return acc

    def add_multiple(target: int, source: int, factor: ZExpr):
        # column[target] += factor * column[source]; source < target keeps U upper.
        if factor.is_zero:
            return
        for r in range(k):
            cols[target][r] = cols[target][r] + factor * cols[source][r]
        for r in range(k):
            u[r][target] = u[r][target] + factor * u[r][source]

    for lo in range(k // 2):
        hi = k - 1 - lo
        e = pair(cols[lo], cols[hi]).constant_value()
        want = SCALAR_ONE if lo % 2 == 0 else -SCALAR_ONE
        if e != want:
            raise StructureError(f"plane ({lo},{hi}) pairing is {e}, expected {want}")
        q = pair(cols[hi], cols[hi])
        add_multiple(hi, lo, q.scale_div(-2 * e.re))
        for mid in range(lo + 1, hi):
            a = pair(cols[mid], cols[hi])
            add_multiple(mid, lo, a.scale_div(-e.re))
            low_pair = pair(cols[mid], cols[lo])
            if not low_pair.is_zero:
                raise StructureError(
                    f"column {mid} unexpectedly pairs with column {lo}"
                )
    # Exact verification of the final identity.
    jz = tuple(tuple(ZExpr.const(x) for x in row) for row in jrows)
    v = transpose(tuple(tuple(c) for c in cols))
    lhs = mat_mul(mat_mul(transpose(v), jz, Z0), v, Z0)
    for a in range(k):
        for b in range(k):
            want = ZExpr.const(jrows[a][b])
            if lhs[a][b] != want:
                raise StructureError("normalized columns do not reproduce the form")
    return tuple(tuple(row) for row in u)


def _outcome(fn, w, j):
    """The result of fn(w, j), or the message of the StructureError it raises."""
    try:
        return fn(w, j)
    except StructureError as err:
        return f"StructureError: {err}"


def _forms(k):
    """J_k, 2J, -J, iJ, J^t and the identity."""
    j = form_matrix(k)
    return {
        "J": j,
        "2J": GroupElement.from_rows([[2 * x for x in row] for row in j.entries]),
        "-J": GroupElement.from_rows([[-x for x in row] for row in j.entries]),
        "iJ": GroupElement.from_rows([[ExactScalar.of(0, 1) * x for x in row] for row in j.entries]),
        "Jt": j.transpose(),
        "I": GroupElement.identity(k),
    }


ORACLE_CONFIGS = (
    [(family, rank, (0,) * rank) for family in "CB" for rank in range(1, 7)]
    + [
        ("C", 2, (F(-1, 2), F(1, 4))),
        ("C", 3, (F(1, 2), F(-1, 3), F(1, 5))),
        ("C", 4, (F(1, 3), F(3, 4), F(-2, 5), F(1, 2))),
        ("B", 2, (F(2, 3), F(-3, 4))),
        ("B", 3, (F(2, 3), F(-1, 4), F(1, 2))),
        ("B", 4, (F(1, 6), F(5, 2), F(-1, 3), F(3, 7))),
        ("A", 3, (F(1, 2), F(1, 2), F(1, 2))),
        ("A", 2, (F(1, 2), F(1, 3))),
        ("A", 2, (0, 1)),
    ]
)


@pytest.mark.parametrize(
    "family,rank,gamma", ORACLE_CONFIGS, ids=[f"{f}{r}-{i}" for i, (f, r, _) in enumerate(ORACLE_CONFIGS)]
)
def test_pairing_and_normalizer_match_zexpr_oracle(family, rank, gamma):
    # On the form J the two routes give == results, or the same
    # StructureError on non-palindromic A data; on 2J, -J, iJ, J^t and the
    # identity they raise the same StructureError, or (J^t = J at odd k)
    # agree again.
    w = wronskian(nu_vector(make_config(family, rank, gamma)))
    raised = {}
    for name, j in _forms(w.k).items():
        for new, old in [(pairing_matrix, _zexpr_pairing), (gram_schmidt_normalizer, _zexpr_gram_schmidt)]:
            got = _outcome(new, w, j)
            assert got == _outcome(old, w, j), (name, new.__name__)
            raised[name, new.__name__] = isinstance(got, str)
    palindromic = family != "A" or gamma == tuple(reversed(gamma))
    assert raised["J", "gram_schmidt_normalizer"] == (not palindromic)
    assert raised["Jt", "gram_schmidt_normalizer"] == (not palindromic or w.k % 2 == 0)
    for name in ("2J", "-J", "iJ", "I"):
        assert raised[name, "pairing_matrix"] and raised[name, "gram_schmidt_normalizer"]


ZEXPR_ARITHMETIC = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
    "scale_div", "conjugate",
)

TODA_CALLS = [
    ("solve", "--family", "C", "--rank", "2", "--gamma", "1/2,1/3", "--coords", '{"c10": "1-i"}'),
    ("verify", "--family", "A", "--rank", "3", "--gamma", "1/3,1/2,1/3", "--points", "5"),
    ("verify", "--family", "C", "--rank", "2", "--gamma", "0,0", "--coords", '{"c30": "2i"}', "--points", "5"),
    ("verify", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4", "--points", "5"),
    ("minors", "--family", "B", "--rank", "2", "--count", "2"),
    ("wsym", "--family", "C", "--rank", "3", "--gamma", "0,0,0"),
    ("ngamma", "--family", "C", "--rank", "3", "--gamma", "-1/2,1/4,1"),
    ("roots", "--family", "B", "--rank", "3"),
    ("demo", "c3"),
    ("demo", "b2"),
]


def test_no_zexpr_arithmetic_on_any_program_path(monkeypatch, capsys):
    # With every ZExpr ring operation, scale_div and conjugate made to
    # raise, the pairing and the normalizer still run on C2-C4 and B2-B3 at
    # gamma 0 and at a fractional gamma, and so does one call of every toda
    # subcommand.  No ZExpr view of the Wronskian is built on the way.
    def refuse(*args):
        raise AssertionError("ZExpr arithmetic ran")

    for name in ZEXPR_ARITHMETIC:
        monkeypatch.setattr(ZExpr, name, refuse)
    with pytest.raises(AssertionError, match="ZExpr arithmetic ran"):
        Z1 + Z1
    wronskians = []
    for family, rank in [("C", 2), ("C", 3), ("C", 4), ("B", 2), ("B", 3)]:
        for gamma in [(0,) * rank, (F(1, 2), F(-1, 3), F(2, 5), F(3, 4))[:rank]]:
            w = wronskian(nu_vector(make_config(family, rank, gamma)))
            pairing_matrix(w, form_matrix(w.k))
            gram_schmidt_normalizer(w, form_matrix(w.k))
            wronskians.append(w)
    for argv in TODA_CALLS:
        assert main(list(argv)) == 0, argv
        assert capsys.readouterr().err == "", argv
    monkeypatch.undo()
    assert all("entries" not in vars(w) for w in wronskians)
