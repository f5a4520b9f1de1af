"""Benchmark of the `toda` CLI: end-to-end times, or a traced per-layer breakdown.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` it times the import of `toda.cli` in several fresh
processes (`setup_s`), then runs the workload untraced in one fresh process
for S seconds and reports the end-to-end metrics.  With `--trace 1` it runs
the workload untraced and then traced, each in its own fresh process for
S/2 seconds, and reports the per-layer metrics plus the tracing overhead.
Either way the last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Every operation is checked by the gate
in gate.py; see README.md for the workloads and what each metric predicts.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

# (name, unit, better); must match BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("frontier_s", "s", "lower"),
    ("rest_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_frac", "frac", "higher"),
)

_TIMED = (
    "solutions.assemble",
    "groups.all_minors",
    "groups.unipotent_from_coords",
    "groups.minor",
    "linalg.det",
    "groups.check_minor_identity",
    "groups.classify_by_minors",
    "groups.sample_group_element",
    "basis.nu_vector",
    "basis.wronskian",
    "solutions.verify_pde",
    "exact.evaluate",
    "solutions.verify_monodromy",
    "solutions.verify_symmetry",
    "solutions.verify_integrability",
    "solutions.characteristic_data",
    "solutions.a_case_form",
    "jsonio.parse_coords",
    "jsonio.zexpr_to_json",
)
PER_LAYER = (
    *((f"{name}.s", "s", "lower") for name in _TIMED),
    ("solutions.assemble.self_s", "s", "lower"),
    ("solutions.assemble.calls", "count", "lower"),
    ("groups.minor.calls", "count", "lower"),
    ("linalg.det.calls", "count", "lower"),
    ("basis.column_minor.calls", "count", "lower"),
    ("exact.evaluate.calls", "count", "lower"),
    ("groups.all_minors.entries", "count", "lower"),
    ("groups.all_minors.nonzero_frac", "frac", "higher"),
    ("exact.F_terms", "count", "lower"),
    ("exact.max_coeff_bits", "bits", "lower"),
    ("exact.exp_lcm", "count", "lower"),
    ("jsonio.report_bytes", "bytes", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


class BenchError(RuntimeError):
    pass


def _worker(args: list[str], deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON summary."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted before the next worker")
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "worker.py"), *args],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"worker {args} timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"worker {args} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def _mean(passes: list[dict], key: str) -> float:
    # The host's speed drifts within a run; the mean over passes averages the
    # drift, where the median of a few passes would pick one speed or another.
    return statistics.fmean(p[key] for p in passes)


def _end_to_end(args, deadline: float) -> tuple[dict, list[dict]]:
    setup = [_worker(["setup"], deadline)["import_s"] for _ in range(SETUP_SAMPLES)]
    run = _worker(_workload_args(args, args.seconds, "plain"), deadline)
    passes = run["passes"]
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": _mean(passes, "wall_s"),
        "frontier_s": _mean(passes, "frontier_s"),
        "rest_s": _mean(passes, "rest_s"),
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1.0 - run["failed"] / run["attempted"],
    }
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}, [run]


def _per_layer(args, deadline: float) -> tuple[dict, list[dict]]:
    half = args.seconds / 2
    plain = _worker(_workload_args(args, half, "plain"), deadline)
    traced = _worker(_workload_args(args, half, "traced"), deadline)
    passes = traced["passes"]
    # median_low reports a value one pass measured, so counts stay whole.
    values = {
        name: statistics.median_low(p["layers"].get(name, 0) for p in passes)
        for name, _, _ in PER_LAYER
    }
    values["trace.overhead_s"] = _mean(passes, "wall_s") - _mean(plain["passes"], "wall_s")
    return {name: (values[name], unit) for name, unit, _ in PER_LAYER}, [plain, traced]


def _workload_args(args, seconds: float, mode: str) -> list[str]:
    return [mode, "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "toda" / "cli.py").is_file():
        print(f"error: no toda sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = _per_layer if args.trace else _end_to_end
    try:
        metrics, runs = measure(args, deadline)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    failed = sum(r["failed"] for r in runs)
    for r in runs:
        for line in r["failures"]:
            print(f"FAILED {line}", file=sys.stderr)
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
