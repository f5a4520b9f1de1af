import json
import pathlib
import random
import re
from fractions import Fraction as F

import pytest

from conftest import replace
from toda.cli import main
from toda.config import make_config
from toda.exact import BranchCutError, CheckFailed, OriginError
from toda.groups import (
    NonzeroForbiddenCoordinate,
    NotPositiveDefinite,
    SingularDiagonal,
    random_coords,
)
from toda.jsonio import coords_to_json, parse_coords
from toda.lie import Algebra, coordinate_map
from toda.solutions import (
    IntegrabilityReport,
    IntegrabilityRow,
    SolutionParams,
    assemble,
    default_lambdas,
    verify,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_radial_b2(capsys):
    code, out, _ = run(capsys, "verify", "--family", "B", "--rank", "2", "--gamma", "0,0", "--points", "20")
    assert code == 0
    assert "overall: PASS" in out
    assert "  monodromy      PASS   algebraic=True analytic=True" in out.splitlines()


def test_verify_json_schema(capsys):
    code, out, _ = run(
        capsys, "verify", "--family", "C", "--rank", "2", "--gamma", "1/2,1/3", "--json"
    )
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == "toda-report/1"
    assert report["passed"] is True
    names = {c["name"] for c in report["checks"]}
    assert {"symmetry", "monodromy", "pde-residual", "integrability", "w-symmetry"} <= names


def test_verify_negative_gamma_tokens(capsys):
    code, out, _ = run(capsys, "verify", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4")
    assert code == 0


@pytest.mark.parametrize("target", ["c3", "b2"])
def test_demo_matches_golden(capsys, target):
    code, out, _ = run(capsys, "demo", target, "--json")
    assert code == 0
    golden = (GOLDEN / f"demo_{target}.json").read_text()
    assert out == golden


GOLDEN_COORDS = json.dumps(
    {
        "c10": "1/2-i/3", "c21": "-3/2+2i/3", "c32": "3/2+i/3", "c20": "-1/2-2i/3", "c31": "1/2+2i/3",
        "c30": "3/2-i/3", "c41": "-1/2+i/3", "c40": "1/2-2i/3", "c50": "-3/2-i/3",
    }
)


# The six slots of A3, with the values of the C3/B3 golden.
A3_COORDS = json.dumps({key: json.loads(GOLDEN_COORDS)[key] for key in ("c10", "c21", "c32", "c20", "c31", "c30")})


@pytest.mark.parametrize(
    "family,params",
    [
        ("C", ["--lambda", "1/2,3/2,1/2", "--coords", GOLDEN_COORDS]),
        ("B", ["--lambda", "1/2,3/2,1/2", "--coords", GOLDEN_COORDS]),
        ("A", ["--coords", A3_COORDS]),
    ],
    ids=["C", "B", "A"],
)
def test_verify_matches_golden(capsys, family, params):
    # The whole --json report, pde-residual "max=" text included, byte for
    # byte: dense coordinates at gamma = 0, default points and seed; A with
    # its default weights, so that its monic-form row passes.
    code, out, err = run(
        capsys, "verify", "--family", family, "--rank", "3", "--gamma", "0,0,0", *params, "--json"
    )
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"verify_{family.lower()}3.json").read_text()


def library_verify(family, rank, gamma, params):
    """toda.verify on the inputs of a toda verify command line, with its default options."""
    opts = dict(zip(params[::2], params[1::2]))
    cfg = make_config(family, rank, [F(x) for x in gamma.split(",")])
    lams = [F(x) for x in opts["--lambda"].split(",")] if "--lambda" in opts else default_lambdas(cfg)
    coords = parse_coords(cfg.algebra, json.loads(opts.get("--coords", "{}")))
    return verify(assemble(cfg, SolutionParams.of(lams, coords)), count=20, tol=1e-9, seed=0)


@pytest.mark.parametrize(
    "family,rank,gamma,params",
    [
        ("C", 3, "0,0,0", ["--lambda", "1/2,3/2,1/2", "--coords", GOLDEN_COORDS]),
        ("B", 3, "0,0,0", ["--lambda", "1/2,3/2,1/2", "--coords", GOLDEN_COORDS]),
        ("A", 3, "0,0,0", ["--coords", A3_COORDS]),
        # A forbidden coordinate: monodromy fails, with its witness.
        ("B", 2, "-1/2,1/4", ["--coords", '{"c10":"1"}']),
        # det H = 16: monic-form and the PDE fail.
        ("A", 1, "0", ["--lambda", "2,2"]),
    ],
    ids=["C3", "B3", "A3", "B2-forbidden", "A1-det16"],
)
def test_library_verify_decides_the_rows_of_the_cli(capsys, family, rank, gamma, params):
    result = library_verify(family, rank, gamma, params)
    code, out, _ = run(
        capsys, "verify", "--family", family, "--rank", str(rank), f"--gamma={gamma}", *params, "--json"
    )
    report = json.loads(out)
    assert [(r.name, r.passed, r.detail) for r in result.rows] == [
        (c["name"], c["passed"], c["detail"]) for c in report["checks"]
    ]
    assert result.passed is report["passed"]
    assert code == (0 if result.passed else 1)
    assert not any(r.witness for r in result.rows if r.passed)


@pytest.mark.parametrize(
    "name,argv",
    [
        # The sampled identity walk (k = 8) and the exhaustive one (k = 7).
        ("minors_c4", ["minors", "--family", "C", "--rank", "4", "--count", "2", "--seed", "0"]),
        ("minors_b3", ["minors", "--family", "B", "--rank", "3", "--count", "2", "--seed", "0"]),
        # Fractional coordinates on the one slot that ngamma marks integral.
        (
            "solve_b4",
            [
                "solve", "--family", "B", "--rank", "4", "--gamma", "1/2,1/3,1/2,1/4",
                "--lambda", "1/2,3/2,2/3,3", "--coords", '{"c52":"3/7-5i/4"}',
            ],
        ),
    ],
)
def test_group_side_matches_golden(capsys, name, argv):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"{name}.json").read_text()


def test_demo_deterministic(capsys):
    _, first, _ = run(capsys, "demo", "c3", "--json")
    _, second, _ = run(capsys, "demo", "c3", "--json")
    assert first == second


def test_json_deterministic_same_seed(capsys):
    argv = ["verify", "--family", "B", "--rank", "2", "--gamma", "0,0", "--seed", "3", "--json"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


def test_solve_with_coords(capsys):
    code, out, _ = run(
        capsys,
        "solve", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4",
        "--lambda", "1,2", "--coords", '{"c30":"1+i"}', "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["coords"] == {"c30": "1+i"}
    assert report["reduced"][0]["multiplier"] == "2"
    assert report["reduced"][1]["power"] == "1/2"


def test_coords_from_file(tmp_path, capsys):
    f = tmp_path / "coords.json"
    f.write_text('{"c30": "1/2-i/3"}')
    code, out, _ = run(
        capsys,
        "solve", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4",
        "--coords", f"@{f}", "--json",
    )
    assert code == 0
    assert json.loads(out)["coords"] == {"c30": "1/2-i/3"}


def test_ngamma_table(capsys):
    code, out, _ = run(capsys, "ngamma", "--family", "C", "--rank", "3", "--gamma", "-1/2,1/4,1", "--json")
    assert code == 0
    report = json.loads(out)
    assert len(report["rows"]) == 9
    assert report["members"] == 2
    assert report["dimension_of_unipotent_group"] == 9
    kept = [r["slot"] for r in report["rows"] if r["integral"]]
    assert kept == ["c32", "c40"]


def test_ngamma_integer_weights(capsys):
    code, out, _ = run(capsys, "ngamma", "--family", "B", "--rank", "2", "--gamma", "1,2", "--json")
    report = json.loads(out)
    assert report["members"] == 4


def test_roots_command(capsys):
    code, out, _ = run(capsys, "roots", "--family", "B", "--rank", "2", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 4


def test_minors_command(capsys):
    code, out, _ = run(capsys, "minors", "--family", "C", "--rank", "2", "--count", "2", "--json")
    assert code == 0
    report = json.loads(out)
    assert all(s["classified_as"] == "Sp" for s in report["samples"])


def test_minors_tests_membership_once_per_sample(monkeypatch, capsys):
    import toda.groups

    calls = []
    real = toda.groups._preserves_form

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(toda.groups, "_preserves_form", counting)
    code, _, _ = run(capsys, "minors", "--family", "C", "--rank", "2", "--count", "1")
    assert code == 0
    # Two constraint solves for the sampler's unipotent factors, then one
    # membership test shared by the sampler, the identity check and the
    # classification.
    assert len(calls) == 3


def test_ngamma_dimension_is_the_coordinate_count(capsys):
    code, out, _ = run(capsys, "ngamma", "--family", "A", "--rank", "3", "--gamma", "0,0,0", "--json")
    assert code == 0
    assert json.loads(out)["dimension_of_unipotent_group"] == 6


def test_wsym_command(capsys):
    code, out, _ = run(capsys, "wsym", "--family", "A", "--rank", "1", "--gamma", "1/2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["w"] == ["-5/16"]


def test_wsym_matches_golden(capsys):
    # Fractional weights: w, beta and the order of the README example.
    code, out, err = run(capsys, "wsym", "--family", "B", "--rank", "2", "--gamma=-1/2,1/4", "--json")
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "wsym_b2.json").read_text()


def test_verify_w_symmetry_fails_on_an_exponent_off_the_roots(monkeypatch, capsys):
    # F_1 must lie in ker L (x) ker conj(L): every exponent of its form is a
    # root of the indicial polynomial P.  At gamma = 0 P(a) = a(a-1)(a-2)(a-3),
    # so moving the top exponent 3 to 7/2 leaves P(7/2) = 105/16.
    import toda.solutions

    real = toda.solutions.assemble

    def shifted(cfg, params):
        bundle = real(cfg, params)
        f1 = bundle.forms[0]
        moved = replace(f1, exponents=f1.exponents[:-1] + (f1.exponents[-1] + F(1, 2),))
        return replace(bundle, forms=(moved,) + bundle.forms[1:])

    monkeypatch.setattr(toda.solutions, "assemble", shifted)
    argv = ["verify", "--family", "C", "--rank", "2", "--gamma", "0,0"]
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "  w-symmetry     FAIL   F_1 exponents off the roots of P: P(7/2) = 105/16" in out.splitlines()
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 1
    row = next(c for c in json.loads(out)["checks"] if c["name"] == "w-symmetry")
    assert row == {
        "name": "w-symmetry",
        "passed": False,
        "detail": "F_1 exponents off the roots of P: P(7/2) = 105/16",
    }


def test_usage_error_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--family", "B", "--rank", "2")
    assert code == 2
    assert "error" in err


def test_bad_gamma_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--family", "B", "--rank", "2", "--gamma", "-2,0")
    assert code == 2


def test_check_failure_exit_1(capsys):
    # A forbidden coordinate fails the monodromy check but still assembles.
    code, out, _ = run(
        capsys,
        "verify", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4",
        "--coords", '{"c10":"1"}',
    )
    assert code == 1
    assert "FAIL" in out
    # The human FAIL row names its witnesses: the slot c10 and its mirror
    # c43, and the terms of F_1 with a fractional exponent difference.
    assert (
        "  monodromy      FAIL   algebraic=False analytic=False slots=[c10, c43] "
        "F1_terms=[z^1/4 zb^3/4, z^3/4 zb^1/4, z^13/4 zb^15/4, z^15/4 zb^13/4]"
    ) in out.splitlines()
    assert "  symmetry       PASS   failures=[]" in out.splitlines()
    # The library row holds that line: its detail, then its witness.
    rows = library_verify("B", 2, "-1/2,1/4", ["--coords", '{"c10":"1"}']).rows
    row = next(r for r in rows if r.name == "monodromy")
    assert f"  monodromy      FAIL   {row.detail} {row.witness}" in out.splitlines()
    assert row.witness.startswith("slots=[c10, c43] F1_terms=[z^1/4 zb^3/4,")
    _, out, _ = run(
        capsys,
        "verify", "--family", "B", "--rank", "2", "--gamma", "-1/2,1/4",
        "--coords", '{"c10":"1"}', "--json",
    )
    report = json.loads(out)
    mono = next(c for c in report["checks"] if c["name"] == "monodromy")
    assert mono["detail"] == "algebraic=False analytic=False"
    assert report["monodromy_witnesses"]["algebraic"] == [[1, 0], [4, 3]]


def test_verify_failed_checks_report_their_witnesses(capsys):
    # det H = 16: the monic-form product and the PDE both fail, as report
    # rows with their witnesses, and the run exits 1.
    code, out, err = run(
        capsys, "verify", "--family", "A", "--rank", "1", "--gamma", "0", "--lambda", "2,2", "--json"
    )
    assert code == 1
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is False
    checks = {c["name"]: c for c in report["checks"]}
    assert checks["monic-form"] == {
        "name": "monic-form",
        "passed": False,
        "detail": "product of normalized weights is 16, expected 1",
    }
    pde = checks["pde-residual"]
    assert pde["passed"] is False
    assert re.fullmatch(r"max=\S+ points=20 m=1 z=\(\S+j\)", pde["detail"])
    assert checks["integrability"]["detail"] == "exponents at 0 match the doubled weights"


def test_verify_integrability_failure_names_its_indices(monkeypatch, capsys):
    # The extreme degrees of each F_m depend only on gamma, and every valid
    # gamma passes, so the failing report is substituted.
    import toda.solutions

    def failing(bundle):
        rows = (
            IntegrabilityRow(1, F(0), F(-4), True, True),
            IntegrabilityRow(2, F(-3), F(-4), False, False),
            IntegrabilityRow(3, F(1), F(-4), True, False),
        )
        return IntegrabilityReport(False, rows)

    monkeypatch.setattr(toda.solutions, "verify_integrability", failing)
    code, out, _ = run(capsys, "verify", "--family", "C", "--rank", "2", "--gamma", "0,0")
    assert code == 1
    assert "  integrability  FAIL   failures=[2, 3]\n" in out


@pytest.mark.parametrize(
    "flag,value",
    [("--gamma", "1/0,0"), ("--lambda", "1/0"), ("--coords", '{"c10":"3i/0"}')],
    ids=["gamma", "lambda", "coords"],
)
def test_zero_denominator_exit_2(capsys, flag, value):
    code, out, err = run(capsys, "solve", "--family", "C", "--rank", "2", "--gamma", "0,0", flag, value)
    assert code == 2
    assert err.startswith("error: ") and "zero denominator" in err
    assert out == ""


@pytest.mark.parametrize(
    "flag,value",
    [("--gamma", ",0,0,"), ("--gamma", "0,,0"), ("--lambda", "2,,1/2"), ("--lambda", "2,1/2,")],
    ids=["gamma-ends", "gamma-inner", "lambda-inner", "lambda-trailing"],
)
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_empty_list_field_exit_2(capsys, command, flag, value):
    # An empty field is an error, not a field left out: "2,,1/2" is not (2, 1/2).
    opts = {"--family": "C", "--rank": "2", "--gamma": "0,0", flag: value}
    code, out, err = run(capsys, command, *(x for item in opts.items() for x in item))
    assert code == 2
    assert err.startswith("error: ") and "empty field" in err
    assert out == ""


def test_duplicate_coordinate_slot_exit_2(capsys):
    code, _, err = run(
        capsys, "solve", "--family", "C", "--rank", "2", "--gamma", "0,0",
        "--coords", '{"c10":"1","c1_0":"2"}',
    )
    assert code == 2
    assert err.startswith("error: ") and "(1, 0)" in err


@pytest.mark.parametrize(
    "coords,key",
    [
        ('{"c10":"1","c10":"2"}', "c10"),
        ('{"c10":"1","c30":"2","c10":"1"}', "c10"),
        ('{"c10":{"re":"1","re":"2"}}', "re"),
    ],
    ids=["top", "same-value", "nested"],
)
@pytest.mark.parametrize("form", ["inline", "file"])
def test_repeated_coords_key_exit_2(tmp_path, capsys, coords, key, form):
    # json keeps the last of two equal keys; --coords refuses them at any
    # depth, inline or from a file, and names the key.
    if form == "file":
        f = tmp_path / "coords.json"
        f.write_text(coords)
        coords = f"@{f}"
    code, out, err = run(
        capsys, "solve", "--family", "C", "--rank", "2", "--gamma", "0,0", "--coords", coords
    )
    assert (code, out) == (2, "")
    assert err == f"error: --coords repeats the key {key!r}\n"


@pytest.mark.parametrize("name", ["c99", "c9_9"])
def test_coords_not_a_free_slot_exit_2(capsys, name):
    # The slot is named as lie.slot_name writes it, without KeyError's quotes.
    code, out, err = run(
        capsys, "solve", "--family", "C", "--rank", "2", "--gamma", "0,0",
        "--coords", json.dumps({name: "1"}),
    )
    assert (code, out) == (2, "")
    assert err == "error: c99 is not a free coordinate slot of C2\n"


@pytest.mark.parametrize(
    "coords,message",
    [
        ("[1]", "coordinates must be a JSON object"),
        ('"x"', "coordinates must be a JSON object"),
        ('{"c10": true}', "boolean"),
        ('{"c10": {"re": "1", "imag": "2"}}', "unknown key 'imag'"),
    ],
    ids=["list", "string", "boolean", "unknown-key"],
)
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_bad_coords_json_exit_2(capsys, command, coords, message):
    code, out, err = run(
        capsys, command, "--family", "C", "--rank", "2", "--gamma", "0,0", "--coords", coords
    )
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--gamma", "0,0"],
        ["roots"],
        ["ngamma", "--gamma", "0,0"],
        ["wsym", "--gamma", "0,0"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_only_where_read_exit_2(capsys, argv):
    # Only verify and minors read --seed; elsewhere it is an unknown option.
    assert main(argv + ["--family", "C", "--rank", "2"]) == 0
    with pytest.raises(SystemExit) as err:
        main(argv + ["--family", "C", "--rank", "2", "--seed", "3"])
    assert err.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_unknown_command_exit_2():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


@pytest.mark.parametrize("points", ["0", "-1"])
def test_verify_nonpositive_points_exit_2(capsys, points):
    code, out, err = run(
        capsys, "verify", "--family", "C", "--rank", "2", "--gamma", "0,0", f"--points={points}"
    )
    assert code == 2
    assert "--points" in err
    assert "pde-residual" not in out


@pytest.mark.parametrize("tol,shown", [("inf", "inf"), ("nan", "nan"), ("0", "0.0"), ("-1", "-1.0")])
def test_verify_tol_must_be_positive_finite_exit_2(capsys, tol, shown):
    # inf would make pde-residual pass whatever the residual; nan, 0 and
    # negative values are usage errors, not failed checks.
    code, out, err = run(
        capsys, "verify", "--family", "C", "--rank", "2", "--gamma", "0,0", f"--tol={tol}"
    )
    assert code == 2
    assert err == f"error: --tol must be a positive finite number, got {shown}\n"
    assert out == ""


@pytest.mark.parametrize("count", ["0", "-1"])
def test_minors_nonpositive_count_exit_2(capsys, count):
    code, out, err = run(capsys, "minors", "--family", "C", "--rank", "2", f"--count={count}")
    assert code == 2
    assert "--count" in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("minors", "--family", "C", "--rank", "2", "--count", "5"),
        ("verify", "--family", "C", "--rank", "2", "--gamma", "0,0"),
    ],
    ids=["minors", "verify"],
)
@pytest.mark.parametrize("seed", ["-1", "-2"])
def test_negative_seed_exit_2(capsys, argv, seed):
    # random.Random(-s) equals random.Random(s): "minors --seed -2 --count 5"
    # would report 5 samples but check only 3 distinct elements.
    code, out, err = run(capsys, *argv, "--seed", seed)
    assert code == 2
    assert err == f"error: --seed must be non-negative, got {seed}\n"
    assert out == ""


def test_verify_assembles_once(monkeypatch, capsys):
    import toda.solutions

    calls = []
    real = toda.solutions.assemble

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # The command and the checks inside toda.solutions look assemble up there.
    monkeypatch.setattr(toda.solutions, "assemble", counting)
    code, _, _ = run(capsys, "verify", "--family", "C", "--rank", "2", "--gamma", "0,0")
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 5)])
def test_minors_sampled_high_rank_passes(capsys, family, rank):
    # k = 9 and k = 10: the sampled identity check, 2000 drawn pairs.
    code, out, _ = run(capsys, "minors", "--family", family, "--rank", str(rank), "--count", "1", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    (sample,) = report["samples"]
    assert sample["pairs_checked"] == 2000
    assert sample["exhaustive"] is False
    assert sample["classified_as"] == ("Sp" if family == "C" else "SO")


@pytest.mark.parametrize("family,rank", [("B", 4), ("C", 5), ("B", 5), ("C", 6)])
def test_verify_dense_high_rank_passes(capsys, family, rank):
    # gamma = 0 makes every root integral, so every coordinate is nonzero:
    # the densest C, at k = 9, 10, 11 and 12.
    alg = Algebra(family, rank)
    coords = random_coords(alg, random.Random(rank), 3)
    assert len(coords.values) == len(coordinate_map(alg))
    code, out, _ = run(
        capsys,
        "verify", "--family", family, "--rank", str(rank), "--gamma", ",".join("0" * rank),
        "--lambda", ",".join(["3/2", "1/2", "2/3", "5/2", "1/3", "3"][: alg.k // 2]),
        "--coords", json.dumps(coords_to_json(coords)), "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert all(c["passed"] for c in report["checks"])


@pytest.mark.parametrize(
    "error",
    [
        NotPositiveDefinite(2, "-1"),
        SingularDiagonal("zero diagonal entry at 0"),
        NonzeroForbiddenCoordinate("c10", "1"),
        BranchCutError("(-1+0j) lies on the branch cut"),
        OriginError("negative exponent at the origin"),
    ],
    ids=type,
)
def test_failed_check_exceptions_exit_1(monkeypatch, capsys, error):
    # Every failed-check class exits 1, ahead of the generic ValueError -> 2,
    # and stays a ValueError for existing callers.
    import toda.cli

    def failing(args):
        raise error

    assert isinstance(error, CheckFailed) and isinstance(error, ValueError)
    monkeypatch.setattr(toda.cli, "cmd_roots", failing)
    code, out, err = run(capsys, "roots", "--family", "C", "--rank", "2")
    assert code == 1
    assert err == f"check failed: {error}\n"
    assert out == ""


@pytest.mark.parametrize("error", [ValueError("bad input"), KeyError("c99")], ids=type)
def test_other_errors_still_exit_2(monkeypatch, capsys, error):
    import toda.cli

    def failing(args):
        raise error

    monkeypatch.setattr(toda.cli, "cmd_roots", failing)
    code, _, err = run(capsys, "roots", "--family", "C", "--rank", "2")
    assert code == 2
    assert err == f"error: {error.args[0]}\n"


def _call(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, usage errors included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# verify, a usage error, roots, minors and verify again.  The first verify
# and the minors call set options that the later calls leave at their
# defaults, so a value left over from an earlier call would show.
PARSER_SEQUENCE = [
    (
        "verify", "--family", "C", "--rank", "2", "--gamma", "0,0", "--lambda", "3/2,2",
        "--coords", '{"c10": "1-i", "c30": "-1/2"}', "--points", "5", "--seed", "3", "--json",
    ),
    ("verify", "--family", "Q", "--rank", "2"),
    ("roots", "--family", "B", "--rank", "2"),
    ("minors", "--family", "C", "--rank", "2", "--count", "2", "--seed", "4", "--json"),
    ("minors", "--family", "C", "--rank", "2", "--json"),
    ("verify", "--family", "C", "--rank", "2", "--gamma", "0,0", "--json"),
]


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    import toda.cli

    built = []
    real = toda.cli.build_parser

    def counting():
        built.append(1)
        return real()

    monkeypatch.setattr(toda.cli, "_PARSER", None)
    monkeypatch.setattr(toda.cli, "build_parser", counting)
    codes = [_call(capsys, argv)[0] for argv in PARSER_SEQUENCE * 2]
    assert codes == [0, 2, 0, 0, 0, 0] * 2
    assert len(built) == 1


def test_reused_parser_answers_like_a_fresh_one(monkeypatch, capsys):
    import toda.cli

    fresh = []
    for argv in PARSER_SEQUENCE:
        monkeypatch.setattr(toda.cli, "_PARSER", None)
        fresh.append(_call(capsys, argv))
    monkeypatch.setattr(toda.cli, "_PARSER", None)
    reused = [_call(capsys, argv) for argv in PARSER_SEQUENCE]
    assert reused == fresh
    assert "invalid choice: 'Q'" in fresh[1][2]
    first, last = json.loads(fresh[0][1]), json.loads(fresh[-1][1])
    assert first["options"] == {"points": 5, "tol": 1e-9, "seed": 3}
    assert last["options"] == {"points": 20, "tol": 1e-9, "seed": 0}
    assert first["F1"] != last["F1"]
    assert [s["seed"] for s in json.loads(fresh[3][1])["samples"]] == [4, 5]
    assert [s["seed"] for s in json.loads(fresh[4][1])["samples"]] == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("command", ["solve", "verify"])
def test_json_reports_build_no_zexpr(monkeypatch, capsys, command):
    # F_1 is written from its integer form: no ZExpr is built, and the
    # records are those of the ZExpr, built afterwards as the check.
    from toda.config import make_config
    from toda.exact import ZExpr
    from toda.jsonio import zexpr_to_json
    from toda.solutions import SolutionParams, UnknownForm, assemble, default_lambdas

    cases = [
        ("A", 3, "1/3,1/2,1/3", "{}"),
        ("C", 3, "0,0,0", '{"c10": "1-i/2", "c31": "-3", "c50": "2i"}'),
        ("B", 2, "-1/2,1/4", '{"c30": "-1+i"}'),
    ]

    def refuse(*args):
        raise AssertionError("a ZExpr was built")

    monkeypatch.setattr(ZExpr, "from_terms", staticmethod(refuse))
    monkeypatch.setattr(UnknownForm, "expr", property(refuse))
    reports = []
    for family, rank, gamma, coords in cases:
        code, out, err = run(
            capsys, command, "--family", family, "--rank", str(rank), "--gamma", gamma,
            "--coords", coords, "--json",
        )
        assert (code, err) == (0, "")
        reports.append(json.loads(out))
    monkeypatch.undo()
    for (family, rank, gamma, coords), report in zip(cases, reports):
        cfg = make_config(family, rank, [F(x) for x in gamma.split(",")])
        params = SolutionParams.of(default_lambdas(cfg), parse_coords(cfg.algebra, json.loads(coords)))
        assert report["F1"] == zexpr_to_json(assemble(cfg, params).forms[0].expr)
