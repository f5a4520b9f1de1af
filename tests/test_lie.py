from fractions import Fraction as F

import pytest

from toda.lie import (
    Algebra,
    Root,
    a_side_alpha,
    alpha_from_gamma,
    cartan,
    coordinate_map,
    delta_gamma,
    monodromy_element,
    positive_roots,
    symmetrized_gamma,
)


def test_cartan_c3_rows():
    data = cartan(Algebra("C", 3))
    assert data.matrix == ((2, -1, 0), (-1, 2, -1), (0, -2, 2))


def test_cartan_b2_inverse():
    data = cartan(Algebra("B", 2))
    assert data.matrix == ((2, -2), (-1, 2))
    assert data.inverse == ((F(1), F(1)), (F(1, 2), F(1)))


def test_cartan_a1():
    data = cartan(Algebra("A", 1))
    assert data.matrix == ((2,),)
    assert data.inverse == ((F(1, 2),),)


def test_cartan_c3_inverse_rows():
    inv = cartan(Algebra("C", 3)).inverse
    assert inv == (
        (F(1), F(1), F(1, 2)),
        (F(1), F(2), F(1)),
        (F(1), F(2), F(3, 2)),
    )


@pytest.mark.parametrize("family", ["A", "C", "B"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_cartan_inverse_exact(family, rank):
    data = cartan(Algebra(family, rank))
    n = rank
    for i in range(n):
        for j in range(n):
            acc = sum(F(data.matrix[i][l]) * data.inverse[l][j] for l in range(n))
            assert acc == (1 if i == j else 0)


def test_alpha_from_gamma_b2():
    assert alpha_from_gamma(Algebra("B", 2), [F(-1, 2), F(1, 4)]) == (F(-1, 4), F(0))


def test_alpha_from_gamma_zero():
    assert alpha_from_gamma(Algebra("C", 3), [0, 0, 0]) == (0, 0, 0)


def test_gamma_validation():
    with pytest.raises(ValueError):
        alpha_from_gamma(Algebra("C", 2), [F(-1), F(0)])
    with pytest.raises(ValueError):
        alpha_from_gamma(Algebra("C", 2), [F(0)])


# -- roots ----------------------------------------------------------------


def test_root_counts():
    assert len(positive_roots(Algebra("C", 2))) == 4
    assert len(positive_roots(Algebra("B", 2))) == 4
    assert len(positive_roots(Algebra("C", 3))) == 9
    assert len(positive_roots(Algebra("B", 3))) == 9
    assert len(positive_roots(Algebra("A", 3))) == 6


def test_b2_roots():
    got = {r.coeffs for r in positive_roots(Algebra("B", 2))}
    assert got == {(1, 0), (0, 1), (1, 1), (1, 2)}


def test_c3_contains_highest():
    got = {r.coeffs for r in positive_roots(Algebra("C", 3))}
    assert (2, 2, 1) in got


@pytest.mark.parametrize("family", ["C", "B"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_root_count_is_rank_squared(family, rank):
    assert len(positive_roots(Algebra(family, rank))) == rank * rank


def test_root_str_and_value():
    r = Root((1, 2))
    assert str(r) == "tau1+2*tau2"
    assert r.value((F(-1, 2), F(1, 4))) == 0


# -- coordinate slots -------------------------------------------------------


def _slot_roots(algebra):
    return {s.name: s.root.coeffs for s in coordinate_map(algebra)}


def test_coordinate_map_b2():
    slots = _slot_roots(Algebra("B", 2))
    assert slots == {
        "c10": (1, 0),
        "c21": (0, 1),
        "c20": (1, 1),
        "c30": (1, 2),
    }


def test_coordinate_map_c3():
    slots = _slot_roots(Algebra("C", 3))
    assert slots["c41"] == (0, 2, 1)
    assert slots["c10"] == (1, 0, 0)
    assert slots["c32"] == (0, 0, 1)
    assert slots["c50"] == (2, 2, 1)
    assert len(slots) == 9


@pytest.mark.parametrize("family", ["C", "B"])
@pytest.mark.parametrize("rank", range(1, 7))
def test_coordinate_map_bijection(family, rank):
    alg = Algebra(family, rank)
    slots = coordinate_map(alg)
    roots = {r.coeffs for r in positive_roots(alg)}
    assert len(slots) == len(roots) == rank * rank
    assert {s.root.coeffs for s in slots} == roots


# -- integral root sets ------------------------------------------------------


def test_delta_gamma_c3_example():
    got = {r.coeffs for r in delta_gamma(Algebra("C", 3), [F(-1, 2), F(1, 4), F(1)])}
    assert got == {(0, 0, 1), (1, 2, 1)}


def test_delta_gamma_b2_example():
    got = {r.coeffs for r in delta_gamma(Algebra("B", 2), [F(-1, 2), F(1, 4)])}
    assert got == {(1, 2)}


def test_delta_gamma_integer_weights():
    alg = Algebra("C", 3)
    got = delta_gamma(alg, [1, 0, 2])
    assert len(got) == len(positive_roots(alg))


def test_delta_gamma_closed_under_addition():
    import random

    from conftest import random_gamma

    rng = random.Random(11)
    all_pairs = []
    for family in ("C", "B"):
        for rank in (2, 3):
            for _ in range(10):
                alg = Algebra(family, rank)
                g = random_gamma(rng, rank)
                members = delta_gamma(alg, g)  # raises internally if not closed
                chosen = {r.coeffs for r in members}
                allr = {r.coeffs for r in positive_roots(alg)}
                for a in chosen:
                    for b in chosen:
                        s = tuple(x + y for x, y in zip(a, b))
                        if s in allr:
                            assert s in chosen
                all_pairs.append((alg, g))
    assert all_pairs


def test_cross_family_integrality_matches_a_side():
    # Each slot root pairs integrally with gamma iff the symmetrized A-side
    # span sum over (j+1..i) is an integer.
    import random

    from conftest import random_gamma

    rng = random.Random(3)
    for family in ("C", "B"):
        for rank in (2, 3):
            alg = Algebra(family, rank)
            for _ in range(10):
                g = random_gamma(rng, rank)
                gt = symmetrized_gamma(alg, g)
                for slot in coordinate_map(alg):
                    span = sum(gt[slot.col : slot.row], F(0))
                    assert (slot.root.value(g).denominator == 1) == (span.denominator == 1)


# -- monodromy ---------------------------------------------------------------


def test_monodromy_b2_example():
    m = monodromy_element(Algebra("B", 2), [F(-1, 2), F(1, 4)])
    assert m.exponents == (F(-1, 4), F(1, 4), F(0), F(-1, 4), F(1, 4))


def test_monodromy_b2_gamma_form():
    g1, g2 = F(1, 3), F(2, 5)
    m = monodromy_element(Algebra("B", 2), [g1, g2])
    assert m.exponents == (g1 + g2, g2, F(0), -g2, -g1 - g2)


def test_monodromy_c3_alpha_form():
    g = (F(1, 2), F(1, 3), F(3, 4))
    a1, a2, a3 = alpha_from_gamma(Algebra("C", 3), g)
    m = monodromy_element(Algebra("C", 3), g)
    assert m.exponents == (a1, a2 - a1, a3 - a2, a2 - a3, a1 - a2, -a1)


def test_monodromy_fixes_slot_matches_root_values():
    alg = Algebra("B", 2)
    g = (F(-1, 2), F(1, 4))
    m = monodromy_element(alg, g)
    for slot in coordinate_map(alg):
        assert m.fixes_slot(slot.row, slot.col) == (slot.root.value(g).denominator == 1)


def test_symmetrized_gamma_shapes():
    assert symmetrized_gamma(Algebra("C", 3), [1, 2, 3]) == (1, 2, 3, 2, 1)
    assert symmetrized_gamma(Algebra("B", 2), [1, 2]) == (1, 2, 2, 1)
    assert symmetrized_gamma(Algebra("A", 2), [1, 2]) == (1, 2)


def test_a_side_alpha_first_row():
    # alpha_1 = sum (k-j)/(k) * gamma_j for the A-side of size k-1.
    gt = (F(1, 2), F(1, 2))
    at = a_side_alpha(gt)
    assert at[0] == F(2, 3) * F(1, 2) + F(1, 3) * F(1, 2)
