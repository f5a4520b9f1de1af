"""The correctness gate behind ok_frac."""

import copy
import json

import toda.cli
from gate import digest, judge
from workloads import WORKLOADS, build_ops, run_cli


def _solve_report():
    code, out, _ = run_cli(
        toda.cli.main, ["solve", "--family", "C", "--rank", "2", "--gamma", "0,0", "--json"]
    )
    assert code == 0
    return json.loads(out)


def test_perturbed_F1_coefficient_is_a_failure():
    report = _solve_report()
    reference = digest(report)
    assert judge(0, json.dumps(report), reference) == (None, reference)
    bad = copy.deepcopy(report)
    bad["F1"][0]["coeff"]["re"] = bad["F1"][0]["coeff"]["re"] + "1"
    reason, got = judge(0, json.dumps(bad), reference)
    assert reason and got != reference


def test_nonzero_exit_code_is_a_failure():
    report = _solve_report()
    reason, _ = judge(1, json.dumps(report), digest(report))
    assert reason == "exit code 1"


def test_passed_false_and_unreadable_reports_are_failures():
    report = {"command": "minors", "samples": [], "passed": False}
    assert judge(0, json.dumps(report), None)[0] == "report says passed=false"
    assert judge(0, "not json", None)[0].startswith("unreadable report")


def test_float_details_do_not_change_the_digest():
    code, out, _ = run_cli(
        toda.cli.main,
        ["verify", "--family", "B", "--rank", "2", "--gamma", "0,0", "--points", "5", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    restyled = copy.deepcopy(report)
    for check in restyled["checks"]:
        check["detail"] = "presented differently"
    restyled["options"]["tol"] = 1e-3
    assert digest(restyled) == digest(report)
    flipped = copy.deepcopy(report)
    flipped["checks"][0]["passed"] = False
    assert digest(flipped) != digest(report)


def test_inputs_repeat_for_a_seed_and_leave_non_integral_slots_out():
    workload = WORKLOADS["solve-sparse"]
    first = build_ops(toda.cli.main, workload, 5)
    assert first == build_ops(toda.cli.main, workload, 5)
    assert first != build_ops(toda.cli.main, workload, 6)
    argv = first[0].argv  # A7 with gamma 1/2,1/3,0,1/4,0,1/3,1/2
    coords = json.loads(argv[argv.index("--coords") + 1])
    assert sorted(coords) == ["c32", "c54"]
    assert all(v["re"] != "0" and v["im"] != "0" for v in coords.values())
