"""One fresh workload process.

Usage (normally started by run.py, with PYTHONPATH pointing at src/):

    python3 bench/worker.py setup
    python3 bench/worker.py plain|traced --workload NAME --seed N --seconds S

`setup` only times the import of `toda.cli` and prints it.  `plain` and
`traced` build the workload's inputs from the seed, then run passes over its
operation list, calling `toda.cli.main(argv)` in-process with stdout
captured, one operation at a time, until the next pass would overrun the
time budget (at least one pass).  The last stdout line is a JSON summary.
"""

import sys
import time

_T0 = time.perf_counter()
import toda.cli  # noqa: E402  -- timed first: every `toda` command pays this import

IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402

from gate import judge  # noqa: E402
from spans import Tracer, summarize, traced  # noqa: E402
from workloads import WORKLOADS, build_ops, run_cli  # noqa: E402

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_SEED = 0
REFERENCE_FILE = BENCH_DIR / "reference" / f"digests-seed{REFERENCE_SEED}.json"
SPAN_DIR = ROOT / ".bench_out"


def size_counters(results) -> dict[str, float]:
    """Sizes of the exact objects one operation returned, computed untimed.

    F sizes come from the operation's first assembled bundle (verify
    assembles the same bundle twice); minor-table sizes from every table.
    """
    out = {"exact.F_terms": 0, "exact.max_coeff_bits": 0, "exact.exp_lcm": 1,
           "minors.entries": 0, "minors.nonzero": 0}
    bundle = next((r for name, r in results if name == "solutions.assemble"), None)
    if bundle is not None:
        for f in bundle.F:
            out["exact.F_terms"] += len(f.terms)
            for t in f.terms:
                for q in (t.coeff.re, t.coeff.im):
                    bits = max(abs(q.numerator).bit_length(), q.denominator.bit_length())
                    out["exact.max_coeff_bits"] = max(out["exact.max_coeff_bits"], bits)
                for e in (t.exp_z, t.exp_zbar):
                    out["exact.exp_lcm"] = math.lcm(out["exact.exp_lcm"], e.denominator)
    for name, table in results:
        if name == "groups.all_minors":
            out["minors.entries"] += len(table)
            out["minors.nonzero"] += sum(1 for v in table.values() if not v.is_zero)
    return out


def layer_metrics(summaries: list[dict], sizes: list[dict], report_bytes: int) -> dict[str, float]:
    """Merge one pass's per-operation span summaries and size counters."""
    merged: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            acc = merged.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                acc[key] += value
    out = {}
    for name, row in merged.items():
        for key, value in row.items():
            out[f"{name}.{key}"] = value
    entries = sum(s["minors.entries"] for s in sizes)
    out["groups.all_minors.entries"] = entries
    out["groups.all_minors.nonzero_frac"] = (
        sum(s["minors.nonzero"] for s in sizes) / entries if entries else 0.0
    )
    out["exact.F_terms"] = sum(s["exact.F_terms"] for s in sizes)
    out["exact.max_coeff_bits"] = max(s["exact.max_coeff_bits"] for s in sizes)
    out["exact.exp_lcm"] = max(s["exact.exp_lcm"] for s in sizes)
    out["jsonio.report_bytes"] = report_bytes
    return out


def expected_digests(workload: str, seed: int) -> dict[str, str] | None:
    if seed != REFERENCE_SEED:
        return None
    with open(REFERENCE_FILE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def run(mode: str, workload_name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[workload_name]
    main = toda.cli.main
    ops = build_ops(main, workload, seed)
    reference = expected_digests(workload_name, seed)
    tracer = Tracer() if mode == "traced" else None
    frontier_id = ops[workload.frontier].op_id

    passes: list[dict] = []
    failures: list[str] = []
    attempted = 0
    digests: dict[str, str] = {}
    span_log: list[tuple] = []
    with traced(tracer) if tracer else contextlib.nullcontext():
        call = tracer.wrap("cli.main", main) if tracer else main
        start = time.perf_counter()
        while True:
            latencies: dict[str, float] = {}
            summaries, sizes = [], []
            report_bytes = 0
            for op in ops:
                if tracer:
                    tracer.op = op.op_id
                attempted += 1
                t0 = time.perf_counter()
                try:
                    code, out, _ = run_cli(call, op.argv)
                    error = None
                except Exception as err:  # the gate counts a raising op as failed
                    error = f"raised {type(err).__name__}: {err}"
                latencies[op.op_id] = time.perf_counter() - t0
                if error:
                    reason, got = error, None
                else:
                    if reference is not None:
                        expected = reference.get(op.op_id, "missing reference digest")
                    else:
                        expected = digests.get(op.op_id)
                    reason, got = judge(code, out, expected)
                    report_bytes += len(out.encode())
                if reason:
                    failures.append(f"pass {len(passes)} {op.op_id}: {reason}")
                digests.setdefault(op.op_id, got)
                if tracer:
                    spans, results = tracer.take()
                    summaries.append(summarize(spans))
                    sizes.append(size_counters(results))
                    span_log.extend(
                        (s.name, s.start, s.end, s.parent, s.op, len(passes)) for s in spans
                    )
            wall = sum(latencies.values())
            record = {
                "wall_s": wall,
                "frontier_s": latencies[frontier_id],
                "rest_s": wall - latencies[frontier_id],
            }
            if tracer:
                record["layers"] = layer_metrics(summaries, sizes, report_bytes)
            passes.append(record)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.fmean(p["wall_s"] for p in passes) > seconds:
                break
    if tracer:
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{workload_name}-seed{seed}.jsonl"
        with open(path, "w", encoding="utf-8") as fh:
            for row in span_log:
                fh.write(json.dumps(row) + "\n")
    return {
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "plain", "traced"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in pathlib.Path(toda.cli.__file__).resolve().parents:
        print(f"error: toda was imported from {toda.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.mode == "setup":
        result = {"import_s": IMPORT_S}
    else:
        if args.workload is None:
            parser.error("--workload is required")
        result = run(args.mode, args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
