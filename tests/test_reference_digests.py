"""Every benchmark operation at the reference seed keeps its reference digest.

Replays each operation of every workload in `bench/workloads.py` at seed 0
through the in-process CLI, twice in the same process, and judges each call
with `bench/gate.py` against `bench/reference/digests-seed0.json`, which the
benchmark uses to refuse a run whose exact output changed.  Both modules
are loaded from their paths, without importing the `bench` package.
"""

import importlib.util
import json
import pathlib
import sys

import pytest

import toda.cli

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEED = 0
REFERENCE = json.loads((BENCH / "reference" / f"digests-seed{SEED}.json").read_text(encoding="utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


workloads = _load("workloads")
gate = _load("gate")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_keeps_reference_digests(name):
    ops = workloads.build_ops(toda.cli.main, workloads.WORKLOADS[name], SEED)
    assert [op.op_id for op in ops] == sorted(REFERENCE[name], key=lambda op_id: int(op_id.split(":")[0]))
    # Two passes in one process, as the benchmark worker runs them: state
    # that one call leaves behind for the next (the CLI parser is built once
    # per process) must not change any report.
    for replay in range(2):
        for op in ops:
            code, stdout, stderr = workloads.run_cli(toda.cli.main, op.argv)
            reason, _ = gate.judge(code, stdout, REFERENCE[name][op.op_id])
            assert reason is None, f"pass {replay} {op.op_id}: {reason} {stderr.strip()}"
