"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single PASS/FAIL line.  Everything except the PDE
residual is exact arithmetic; the PDE check is numeric with a 1e-9 relative
tolerance at off-cut sample points.  Where a check requires palindromic
exponent data (the pairing pattern and the normalization built on it), the
A-family samples are drawn palindromic; C/B weights are unrestricted.
"""

import random
import time
from fractions import Fraction as F
from itertools import combinations

from conftest import (
    apply_factors,
    cauchy_euler_shifts,
    random_gamma,
    random_palindromic_gamma,
    random_params,
    sample_positive_hermitian,
)
from toda import Algebra, make_config
from toda.basis import gram_schmidt_normalizer, nu_vector, pairing_matrix, wronskian
from toda.demos import B2_GAMMA, C3_GAMMA, check_dependent_formulas
from toda.exact import ExactScalar, SCALAR_ONE, ZExpr
from toda.groups import (
    GroupElement,
    UnipotentCoords,
    all_minors,
    check_minor_identity,
    classify_by_minors,
    diagonal_element,
    expected_tag,
    form_matrix,
    is_in_group,
    random_coords,
    sample_group_element,
    split_diagonal_unipotent,
    ul_cholesky,
)
from toda.lie import coordinate_map, delta_gamma
from toda.solutions import (
    SolutionParams,
    annulus_points,
    assemble,
    characteristic_data,
    verify_integrability,
    verify_monodromy,
    verify_pde,
    verify_symmetry,
)

GROUP_ALGEBRAS = (Algebra("C", 2), Algebra("C", 3), Algebra("B", 2), Algebra("B", 3))


def _report(name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance] {name}: {status}")
    assert not failures, f"{name}: {failures[:5]}"


def _family_samples(rng, family: str, palindromic_a: bool):
    ranks = {"A": (1, 2, 3, 4), "C": (1, 2, 3), "B": (1, 2, 3)}[family]
    out = []
    for i in range(50):
        rank = ranks[i % len(ranks)]
        if family == "A" and palindromic_a:
            g = random_palindromic_gamma(rng, rank)
        else:
            g = random_gamma(rng, rank)
        out.append(make_config(family, rank, g))
    return out


def test_criterion_01_wronskian_determinant():
    t0 = time.monotonic()
    rng = random.Random(101)
    failures = []
    for family in ("A", "C", "B"):
        for cfg in _family_samples(rng, family, palindromic_a=False):
            try:
                wronskian(nu_vector(cfg))  # raises unless the determinant is exactly 1
            except Exception as err:  # pragma: no cover
                failures.append((str(cfg.algebra), cfg.gamma, err))
    elapsed = time.monotonic() - t0
    if elapsed >= 60:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    _report("01 wronskian-determinant-one", failures)


def test_criterion_02_pairing_pattern():
    rng = random.Random(102)
    failures = []
    for family in ("A", "C", "B"):
        for cfg in _family_samples(rng, family, palindromic_a=True):
            w = wronskian(nu_vector(cfg))
            try:
                pairing_matrix(w, form_matrix(cfg.k))  # raises on a pattern violation
            except Exception as err:  # pragma: no cover
                failures.append((str(cfg.algebra), cfg.gamma, err))
    _report("02 pairing-zero-sign-pattern", failures)


def test_criterion_03_gram_schmidt():
    rng = random.Random(103)
    failures = []
    for family in ("A", "C", "B"):
        for cfg in _family_samples(rng, family, palindromic_a=True):
            w = wronskian(nu_vector(cfg))
            try:
                u = gram_schmidt_normalizer(w, form_matrix(cfg.k))
            except Exception as err:  # pragma: no cover
                failures.append((str(cfg.algebra), cfg.gamma, err))
                continue
            for a in range(cfg.k):
                if u[a][a] != ZExpr.one() or any(not u[a][b].is_zero for b in range(a)):
                    failures.append((str(cfg.algebra), "not unipotent upper-triangular"))
                    break
    _report("03 gram-schmidt-normalization", failures)


def test_criterion_04_minor_identities():
    failures = []
    for alg in GROUP_ALGEBRAS:
        for seed in range(25):
            g = sample_group_element(alg, seed=seed, bound=3)
            try:
                rep = check_minor_identity(g)
            except Exception as err:  # pragma: no cover
                failures.append((str(alg), seed, err))
                continue
            if not rep.exhaustive:
                failures.append((str(alg), seed, "not exhaustive"))
            if classify_by_minors(GroupElement.from_rows(g.entries)) != expected_tag(alg.k):
                failures.append((str(alg), seed, "classification failed"))
    # Converse negative controls: random determinant-1 non-group matrices.
    rng = random.Random(104)
    for trial in range(100):
        k = 4 if trial % 2 == 0 else 5
        rows = [[SCALAR_ONE if i == j else ExactScalar.of(0) for j in range(k)] for i in range(k)]
        for i in range(k):
            for j in range(i):
                rows[i][j] = ExactScalar.of(F(rng.randint(-3, 3), rng.randint(1, 2)))
        lower = GroupElement.from_rows(rows)
        upper = lower.transpose()
        diag = [F(rng.randint(1, 3), rng.randint(1, 3)) for _ in range(k - 1)]
        prod = F(1)
        for x in diag:
            prod *= x
        diag.append(1 / prod)
        a = lower @ diagonal_element(diag) @ upper
        a = GroupElement.from_rows(a.entries)
        if is_in_group(a):  # vanishingly unlikely; skip rather than miscount
            continue
        if classify_by_minors(a) is not None:
            failures.append(("negative-control", trial))
    _report("04 minor-identities-and-converse", failures)


def test_criterion_05_cholesky_factors():
    failures = []
    for alg in GROUP_ALGEBRAS:
        for seed in range(25):
            h = sample_positive_hermitian(alg, seed=seed, bound=2)
            b = ul_cholesky(h)
            lam, c = split_diagonal_unipotent(b)
            if not (is_in_group(lam) and is_in_group(c)):
                failures.append((str(alg), seed, "factor left the group"))
            k = alg.k
            for i in range(k):
                if lam.entries[i][i] * lam.entries[k - 1 - i][k - 1 - i] != SCALAR_ONE:
                    failures.append((str(alg), seed, f"diagonal pairing at {i}"))
            if (b.conj_transpose() @ b).entries != h.entries:
                failures.append((str(alg), seed, "product mismatch"))
    _report("05 cholesky-factors-in-group", failures)


def test_criterion_06_worked_example_goldens():
    failures = []
    rng = random.Random(106)
    for alg in (Algebra("C", 3), Algebra("B", 2)):
        for _ in range(10):
            coords = random_coords(alg, rng, 4)
            rows = check_dependent_formulas(alg, coords)
            if len(rows) != 6:
                failures.append((str(alg), "expected 6 dependent formulas"))
            for row in rows:
                if not row["matches"]:
                    failures.append((str(alg), row["slot"]))
    kept_c3 = {
        s.name
        for s in coordinate_map(Algebra("C", 3))
        if s.root.coeffs in {r.coeffs for r in delta_gamma(Algebra("C", 3), C3_GAMMA)}
    }
    if kept_c3 != {"c32", "c40"}:
        failures.append(("C3 integral slots", kept_c3))
    kept_b2 = {
        s.name
        for s in coordinate_map(Algebra("B", 2))
        if s.root.coeffs in {r.coeffs for r in delta_gamma(Algebra("B", 2), B2_GAMMA)}
    }
    if kept_b2 != {"c30"}:
        failures.append(("B2 integral slots", kept_b2))
    _report("06 worked-example-goldens", failures)


def test_criterion_07_symmetry_reduction():
    failures = []
    rng = random.Random(107)
    for family, rank in (("C", 2), ("C", 3), ("B", 2)):
        for _ in range(25):
            cfg = make_config(family, rank, random_gamma(rng, rank))
            bundle = assemble(cfg, random_params(cfg, rng, bound=2))
            rep = verify_symmetry(bundle)
            if not rep.passed:
                failures.append((str(cfg.algebra), cfg.gamma, rep.failures))
    # Negative control: Hermitian positive-definite with det 1 but outside
    # the symplectic group must break the mirror equality.
    cfg = make_config("C", 2, [0, 0])
    rows = [[1, 0, 0, 0], [F(1, 2), 1, 0, 0], [F(1, 3), 1, 1, 0], [2, 3, F(1, 5), 1]]
    c_bad = GroupElement.from_rows(rows)
    lam = diagonal_element((F(2), F(1), F(1), F(1, 2)))
    b = lam @ c_bad
    h = b.conj_transpose() @ b
    w = wronskian(nu_vector(cfg))
    from toda.basis import column_minor

    table = all_minors(h)

    def unknown(m):
        acc = ZExpr.zero()
        for s in combinations(range(4), m):
            for t in combinations(range(4), m):
                acc = acc + column_minor(w, s).conjugate() * table[
                    (tuple(x + 1 for x in s), tuple(x + 1 for x in t))
                ] * column_minor(w, t)
        return acc

    if is_in_group(h) or unknown(1) == unknown(3):
        failures.append("negative control did not break the symmetry")
    _report("07 mirror-symmetry-of-unknowns", failures)


def test_criterion_08_pde_residual():
    t0 = time.monotonic()
    failures = []
    configs = []
    # Liouville.
    configs.append(
        (make_config("A", 1, [0]), SolutionParams.of([1, 1], UnipotentCoords(Algebra("A", 1))))
    )
    # Both worked examples with their allowed coordinates.
    alg_c3 = Algebra("C", 3)
    configs.append(
        (
            make_config("C", 3, C3_GAMMA),
            SolutionParams.of(
                [1, 2, 3],
                UnipotentCoords(
                    alg_c3, {(3, 2): ExactScalar.of(1, 1), (4, 0): ExactScalar.of(F(1, 2), -1)}
                ),
            ),
        )
    )
    alg_b2 = Algebra("B", 2)
    configs.append(
        (
            make_config("B", 2, B2_GAMMA),
            SolutionParams.of([1, 2], UnipotentCoords(alg_b2, {(3, 0): ExactScalar.of(2, 1)})),
        )
    )
    rng = random.Random(108)
    for i in range(10):
        family, rank = ("C", 2) if i % 2 == 0 else ("B", 2)
        cfg = make_config(family, rank, random_gamma(rng, rank))
        configs.append((cfg, random_params(cfg, rng, bound=2)))
    for idx, (cfg, params) in enumerate(configs):
        bundle = assemble(cfg, params)
        rep = verify_pde(bundle, annulus_points(20, 1000 + idx), tol=1e-9)
        if not rep.passed:
            failures.append((str(cfg.algebra), cfg.gamma, rep.max_residual))
    elapsed = time.monotonic() - t0
    if elapsed >= 120:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    _report("08 pde-residual", failures)


def test_criterion_09_characteristic_operator():
    failures = []
    rng = random.Random(109)
    for family in ("A", "C", "B"):
        for rank in (1, 2, 3):
            for _ in range(25):
                cfg = make_config(family, rank, random_gamma(rng, rank))
                try:
                    data = characteristic_data(cfg)  # validates P(beta_i) = 0
                except Exception as err:  # pragma: no cover
                    failures.append((family, rank, err))
                    continue
                nu = nu_vector(cfg)
                if data.beta != nu.beta:
                    failures.append((family, rank, "exponent mismatch"))
                for i in range(1, cfg.k):
                    if data.beta[i] - data.beta[0] != sum(cfg.mu_tilde[:i], F(0)):
                        failures.append((family, rank, f"partial sum at {i}"))
                for entry in nu.nu:
                    if not apply_factors(cauchy_euler_shifts(cfg), entry).is_zero:
                        failures.append((family, rank, "basis entry not annihilated"))
    _report("09 characteristic-operator", failures)


def test_criterion_10_monodromy_agreement():
    failures = []
    rng = random.Random(110)
    algebras = [Algebra("C", 2), Algebra("B", 2), Algebra("C", 3), Algebra("B", 3)]
    # 50 valid pairs: both checks must pass and agree.
    for i in range(50):
        alg = algebras[i % len(algebras)]
        cfg = make_config(alg.family, alg.rank, random_gamma(rng, alg.rank))
        params = random_params(cfg, rng, bound=2, restrict=True)
        rep = verify_monodromy(assemble(cfg, params))
        if not (rep.passed and rep.agree):
            failures.append(("valid", str(alg), cfg.gamma))
    # 10 engineered violations: a forbidden coordinate is forced nonzero.
    made = 0
    attempt = 0
    while made < 10 and attempt < 200:
        attempt += 1
        alg = algebras[attempt % len(algebras)]
        g = random_gamma(rng, alg.rank)
        cfg = make_config(alg.family, alg.rank, g)
        allowed = {r.coeffs for r in delta_gamma(alg, g)}
        forbidden = [s for s in coordinate_map(alg) if s.root.coeffs not in allowed]
        if not forbidden:
            continue
        slot = forbidden[attempt % len(forbidden)]
        coords = UnipotentCoords(
            alg, {(slot.row, slot.col): ExactScalar.of(F(attempt, 3), F(1, 2))}
        )
        params = SolutionParams.of([F(1)] * (alg.k // 2), coords)
        rep = verify_monodromy(assemble(cfg, params))
        if rep.passed or not rep.agree:
            failures.append(("violation missed", str(alg), slot.name))
        made += 1
    if made < 10:
        failures.append("could not engineer 10 violations")
    _report("10 monodromy-two-route-agreement", failures)


def test_criterion_11_integrability_exponents():
    failures = []
    goldens = [
        (make_config("A", 1, [0]), SolutionParams.of([1, 1], UnipotentCoords(Algebra("A", 1)))),
        (
            make_config("B", 2, [0, 0]),
            SolutionParams.of([1, 1], UnipotentCoords(Algebra("B", 2))),
        ),
        (
            make_config("C", 3, C3_GAMMA),
            SolutionParams.of(
                [1, 2, 3],
                UnipotentCoords(Algebra("C", 3), {(3, 2): ExactScalar.of(1, 1)}),
            ),
        ),
        (
            make_config("B", 2, B2_GAMMA),
            SolutionParams.of([1, 2], UnipotentCoords(Algebra("B", 2), {(3, 0): ExactScalar.of(1)})),
        ),
    ]
    for cfg, params in goldens:
        bundle = assemble(cfg, params)
        rep = verify_integrability(bundle)
        for m, row in enumerate(rep.rows, start=1):
            if row.exponent_at_zero != 2 * cfg.gamma_tilde[m - 1]:
                failures.append((str(cfg.algebra), m, "exponent at 0"))
            if not row.exponent_at_infinity < -2:
                failures.append((str(cfg.algebra), m, "exponent at infinity"))
    _report("11 integrability-exponents", failures)
