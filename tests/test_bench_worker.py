"""The benchmark worker runs each workload to the end on the current program,
and its `setup` mode, the source of `setup_s`, times the import of `toda.cli`.

`bench/worker.py` reads program objects that no CLI output shows (for
example `bundle.F` and the values of `all_minors` in its size counters), so
a program change can break it while every other test passes.  Each case runs
one short pass in a fresh process, on copies of `bench/` and `src/` in a
temporary directory, so that nothing the worker writes lands in the checkout.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_copy(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench-copy")
    ignore = shutil.ignore_patterns("__pycache__", ".bench_out")
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=ignore)
    return root


@pytest.mark.parametrize("workload", ["verify-dense", "minors"])
@pytest.mark.parametrize("mode", ["plain", "traced"])
def test_worker_runs_a_workload_without_failures(bench_copy, mode, workload):
    env = {**os.environ, "PYTHONPATH": str(bench_copy / "src")}
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", mode, "--workload", workload, "--seconds", "0.01"],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["failed"] == 0, summary["failures"]
    assert summary["attempted"] > 0 and summary["passes"]


def test_worker_setup_mode_prints_the_import_time(bench_copy):
    env = {**os.environ, "PYTHONPATH": str(bench_copy / "src")}
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "setup"],
        cwd=bench_copy, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    import_s = json.loads(proc.stdout.strip().splitlines()[-1])["import_s"]
    assert isinstance(import_s, float) and import_s > 0
