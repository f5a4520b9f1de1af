"""Write the reference digests of every workload for the reference seed.

Usage, from the root of a checkout:

    PYTHONPATH=src python3 bench/make_reference.py

Run it only when a change to the program is meant to change the exact
content of a report; the benchmark counts any other change as a failure.
"""

import json
import sys

import toda.cli

from gate import judge
from worker import REFERENCE_FILE, REFERENCE_SEED
from workloads import WORKLOADS, build_ops, run_cli


def main() -> int:
    out = {}
    for name, workload in WORKLOADS.items():
        out[name] = {}
        for op in build_ops(toda.cli.main, workload, REFERENCE_SEED):
            code, stdout, stderr = run_cli(toda.cli.main, op.argv)
            reason, got = judge(code, stdout, None)
            if reason:
                print(f"{name} {op.op_id}: {reason} {stderr.strip()}", file=sys.stderr)
                return 1
            out[name][op.op_id] = got
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    REFERENCE_FILE.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
