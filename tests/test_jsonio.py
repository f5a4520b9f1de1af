import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_params
from toda.config import make_config
from toda.exact import ExactScalar, ZExpr
from toda.groups import UnipotentCoords
from toda.jsonio import (
    coords_to_json,
    form_to_json,
    matrix_to_json,
    parse_coords,
    parse_fraction,
    parse_scalar,
    scalar_to_json,
    scalar_to_object,
    solution_input_from_json,
    zexpr_from_json,
    zexpr_to_json,
)
from toda.lie import Algebra, coordinate_map
from toda.solutions import UnknownForm, assemble


@pytest.mark.parametrize(
    "text,expected",
    [
        ("1/2+3i/4", ExactScalar(F(1, 2), F(3, 4))),
        ("1+i", ExactScalar(F(1), F(1))),
        ("-i", ExactScalar(F(0), F(-1))),
        ("2", ExactScalar(F(2), F(0))),
        ("i/3", ExactScalar(F(0), F(1, 3))),
        ("-5/7-2i/9", ExactScalar(F(-5, 7), F(-2, 9))),
        ("0", ExactScalar(F(0), F(0))),
        ("3i/4", ExactScalar(F(0), F(3, 4))),
        ("-12i", ExactScalar(F(0), F(-12))),
        (" 1 + i ", ExactScalar(F(1), F(1))),
        ("1.5-i/2", ExactScalar(F(3, 2), F(-1, 2))),
    ],
)
def test_parse_scalar(text, expected):
    assert parse_scalar(text) == expected


@pytest.mark.parametrize("text", ["1+", "+", "1+-2", "1++2", "--1", "1 2", "i+1", "1i2"])
def test_parse_scalar_rejects_malformed(text):
    with pytest.raises(ValueError, match=f"malformed scalar '{re.escape(text)}'"):
        parse_scalar(text)


@pytest.mark.parametrize("text", ["1/0", "3i/0", "1-i/0", {"re": "1/0"}, {"im": "-2/0"}])
def test_parse_scalar_rejects_zero_denominator(text):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text)


def test_parse_coords_rejects_duplicate_slot():
    alg = Algebra("C", 2)
    with pytest.raises(ValueError, match=r"'c10' and 'c1_0' both set slot \(1, 0\)"):
        parse_coords(alg, {"c10": "1", "c1_0": "2"})


@pytest.mark.parametrize("name", ["z1_0", "c1_0_0", "c10_", "c_10", "c9", "c1a"])
def test_parse_coords_rejects_bad_name(name):
    with pytest.raises(ValueError, match=f"bad coordinate name '{name}'"):
        parse_coords(Algebra("C", 2), {name: "1"})


@pytest.mark.parametrize("obj", [[1], "x", 3, None], ids=["list", "string", "number", "null"])
def test_parse_coords_rejects_a_non_object(obj):
    with pytest.raises(ValueError, match="coordinates must be a JSON object"):
        parse_coords(Algebra("C", 2), obj)


@pytest.mark.parametrize("value", [True, False])
def test_parse_scalar_rejects_a_boolean(value):
    with pytest.raises(ValueError, match="boolean"):
        parse_scalar(value)
    with pytest.raises(ValueError, match="boolean"):
        parse_coords(Algebra("C", 2), {"c10": value})


@pytest.mark.parametrize(
    "obj", [{"re": "1", "imag": "2"}, {"real": "1"}, {"im": "1", "re": "2", "x": "0"}]
)
def test_parse_scalar_rejects_unknown_keys(obj):
    with pytest.raises(ValueError, match="unknown key"):
        parse_scalar(obj)
    with pytest.raises(ValueError, match="unknown key"):
        parse_coords(Algebra("C", 2), {"c10": obj})


@pytest.mark.parametrize(
    "coords",
    [["c10"], {"c10": True}, {"c10": {"re": "1", "imag": "2"}}],
    ids=["list", "boolean", "unknown-key"],
)
def test_solution_input_rejects_bad_coords(coords):
    with pytest.raises(ValueError):
        solution_input_from_json({"family": "C", "rank": 2, "gamma": ["0", "0"], "coords": coords})


def test_scalar_round_trip():
    vals = [
        ExactScalar(F(1, 2), F(3, 4)),
        ExactScalar(F(-2), F(0)),
        ExactScalar(F(0), F(-1)),
        ExactScalar(F(0), F(0)),
        ExactScalar(F(22, 7), F(-1, 100)),
    ]
    for v in vals:
        assert parse_scalar(scalar_to_json(v)) == v
        assert parse_scalar(scalar_to_object(v)) == v


def test_parse_fraction():
    assert parse_fraction("-1/2") == F(-1, 2)
    assert parse_fraction("3") == F(3)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        parse_fraction("1/0")
    for empty in ("", "  "):
        with pytest.raises(ValueError, match="empty field"):
            parse_fraction(empty)
    with pytest.raises(ValueError, match="empty field"):
        solution_input_from_json({"family": "C", "rank": 2, "gamma": ["0", ""]})


def test_zexpr_round_trip():
    e = ZExpr.monomial(ExactScalar(F(1, 2), F(-1, 3)), F(5, 2), F(-1)) + ZExpr.one()
    assert zexpr_from_json(zexpr_to_json(e)) == e


def test_form_to_json_matches_the_zexpr_records():
    # The records written from each integer form are those of its ZExpr,
    # term for term and string for string, for every F_m of A, C and B
    # bundles at zero and fractional gamma; between them the coefficient
    # parts take every sign, zero included.
    kinds = set()
    for family, rank, gamma in [
        ("A", 3, (0, 0, 0)),
        ("A", 3, (F(1, 3), F(1, 2), F(1, 3))),
        ("C", 2, (0, 0)),
        ("C", 3, (F(-1, 2), F(1, 4), 1)),
        ("B", 2, (0, 0)),
        ("B", 2, (F(-1, 2), F(1, 4))),
        ("B", 3, (F(1, 2), 0, F(1, 3))),
    ]:
        cfg = make_config(family, rank, gamma)
        for seed in range(3):
            bundle = assemble(cfg, random_params(cfg, random.Random(seed)))
            for form in bundle.forms:
                records = form_to_json(form)
                assert records == zexpr_to_json(form.expr), (family, rank, gamma, seed)
                for r in records:
                    for part in ("re", "im"):
                        text = r["coeff"][part]
                        kinds.add((part, "0" if text == "0" else text[0] == "-"))
    assert kinds == {(part, kind) for part in ("re", "im") for kind in ("0", True, False)}


_exponent = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def unknown_forms(draw):
    exponents = sorted(draw(st.sets(_exponent, min_size=1, max_size=5)))
    n = len(exponents)
    # Each entry nonzero, one part possibly zero; a form has at least one.
    part = st.integers(-(10**6), 10**6)
    coeff = st.tuples(part, part).filter(any)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), min_size=1, max_size=12))
    entries = [(i, j, *draw(coeff)) for i, j in sorted(pairs)]
    return UnknownForm(tuple(exponents), tuple(entries), draw(st.integers(1, 10**6)))


@settings(max_examples=200, deadline=None)
@given(unknown_forms())
def test_form_to_json_matches_the_zexpr_records_on_any_form(form):
    # Zero, negative and reducible parts and exponents of every sign.
    assert form_to_json(form) == zexpr_to_json(form.expr)


def test_coords_round_trip():
    alg = Algebra("B", 2)
    coords = UnipotentCoords(alg, {(3, 0): ExactScalar(F(1), F(1)), (1, 0): ExactScalar(F(-1, 2), F(0))})
    blob = coords_to_json(coords)
    assert blob == {"c10": "-1/2", "c30": "1+i"}
    assert parse_coords(alg, blob) == coords


@pytest.mark.parametrize(
    "algebra",
    [Algebra("A", n) for n in range(1, 13)]
    + [Algebra(f, n) for f in ("C", "B") for n in range(1, 7)],
    ids=str,
)
def test_coords_round_trip_every_slot(algebra):
    # k <= 13: rows and columns past 9 need the "c11_10" form to stay unique.
    values = {
        (s.row, s.col): ExactScalar(F(idx + 1, 2), F(-1, idx + 2))
        for idx, s in enumerate(coordinate_map(algebra))
    }
    coords = UnipotentCoords(algebra, values)
    blob = coords_to_json(coords)
    assert len(blob) == len(values)
    assert parse_coords(algebra, blob) == coords


def test_matrix_to_json():
    from toda.groups import form_matrix

    assert matrix_to_json(form_matrix(2)) == [["0", "1"], ["-1", "0"]]


def test_solution_input_from_json():
    config, params = solution_input_from_json(
        {
            "family": "B",
            "rank": 2,
            "gamma": ["-1/2", "1/4"],
            "lambda": ["1", "2"],
            "coords": {"c30": "1+i"},
        }
    )
    assert config.k == 5
    assert params.lambdas == (1, 2)
    assert params.coords.get(3, 0) == ExactScalar(F(1), F(1))


def test_solution_input_defaults():
    config, params = solution_input_from_json({"family": "C", "rank": 2, "gamma": ["0", "0"]})
    assert params.lambdas == (1, 1)
    assert not params.coords.values
