"""Workload definitions and seeded input generation.

A workload is a fixed list of `toda` CLI operations.  Every coordinate and
weight is drawn from the workload seed; the program only sees the argv that
results.  Coordinates are nonzero rational-complex numbers, except on the
slots that `toda ngamma` marks non-integral, which are left out (zero) so
that every operation is a single-valued solution that must verify.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class OpSpec:
    command: str  # "verify", "solve" or "minors"
    family: str
    rank: int
    gamma: str | None = None  # comma-separated rationals; None for minors
    extra: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    ops: tuple[OpSpec, ...]
    frontier: int  # index into ops of the largest operation


def _zero_gamma(rank: int) -> str:
    return ",".join("0" for _ in range(rank))


def _verify(family: str, rank: int, gamma: str, points: int) -> OpSpec:
    return OpSpec("verify", family, rank, gamma, ("--points", str(points)))


WORKLOADS: dict[str, Workload] = {
    # gamma = 0 with every coordinate nonzero: the worst case for assembly,
    # which verify runs twice (once more inside verify_monodromy).
    "verify-dense": Workload(
        tuple(
            _verify(f, r, _zero_gamma(r), 20)
            for f, r in (("A", 3), ("A", 5), ("C", 2), ("C", 3), ("B", 2), ("B", 3), ("C", 4))
        ),
        frontier=6,
    ),
    # Non-integral gamma: C is sparse, exponents are fractional and nothing
    # is verified, so assembly runs once per operation.
    "solve-sparse": Workload(
        (
            OpSpec("solve", "A", 7, "1/2,1/3,0,1/4,0,1/3,1/2"),
            OpSpec("solve", "C", 4, "-1/2,1/4,1,0"),
            OpSpec("solve", "B", 4, "1/2,1/3,1/2,1/4"),
            OpSpec("solve", "B", 4, "-1/2,1/4,1,1/2"),
            OpSpec("solve", "C", 5, "-1/2,1/4,1,0,1/3"),
        ),
        frontier=4,
    ),
    # Many PDE points: the float residual (ZExpr.evaluate, including the
    # branch-cut path for fractional exponents) dominates, assembly is small.
    "pde-points": Workload(
        (
            _verify("B", 2, "-1/2,1/4", 400),
            _verify("C", 2, "-1/3,1/2", 400),
            _verify("A", 3, "1/3,1/2,1/3", 400),
            _verify("C", 3, "0,0,0", 400),
        ),
        frontier=3,
    ),
    # The only workload that runs sample_group_element, classify_by_minors
    # and the minor identities: exhaustive all_minors for k <= 7 and 2000
    # sampled minor()/det pairs for C4 (k = 8).
    "minors": Workload(
        (
            OpSpec("minors", "C", 3, extra=("--count", "5")),
            OpSpec("minors", "B", 3, extra=("--count", "3")),
            OpSpec("minors", "C", 4, extra=("--count", "1")),
        ),
        frontier=2,
    ),
}


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: tuple[str, ...]


def run_cli(main, argv) -> tuple[int, str, str]:
    """Call the in-process CLI entry point with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


# Values keep one shape across seeds: real parts ±{1,3}/2, imaginary parts
# ±{1,2}/3, weights {1,3}/2.  The seed picks values and signs but not the
# size of the exact numbers, which would otherwise dominate the spread of
# the times between seeds.
def _coordinate(rng: random.Random) -> dict:
    re = Fraction(rng.choice((1, 3)) * rng.choice((1, -1)), 2)
    im = Fraction(rng.choice((1, 2)) * rng.choice((1, -1)), 3)
    return {"re": str(re), "im": str(im)}


def _weight(rng: random.Random) -> str:
    return str(Fraction(rng.choice((1, 3)), 2))


def integral_slots(main, spec: OpSpec) -> list[str]:
    """Free coordinate slots that `toda ngamma` marks integral for this op."""
    code, out, err = run_cli(
        main, ("ngamma", "--family", spec.family, "--rank", str(spec.rank), "--gamma", spec.gamma, "--json")
    )
    if code != 0:
        raise RuntimeError(f"toda ngamma failed for {spec}: {err.strip()}")
    return [row["slot"] for row in json.loads(out)["rows"] if row["integral"]]


def build_ops(main, workload: Workload, seed: int) -> list[Op]:
    """Turn the workload's specs into argv lists drawn from `seed`."""
    rng = random.Random(seed)
    ops = []
    for idx, spec in enumerate(workload.ops):
        argv = [spec.command, "--family", spec.family, "--rank", str(spec.rank)]
        if spec.command == "minors":
            argv += ["--seed", str(seed)]
        else:
            argv += ["--gamma", spec.gamma]
            coords = {slot: _coordinate(rng) for slot in integral_slots(main, spec)}
            argv += ["--coords", json.dumps(coords, separators=(",", ":"))]
            if spec.family in ("C", "B"):
                argv += ["--lambda", ",".join(_weight(rng) for _ in range(spec.rank))]
            if spec.command == "verify":
                argv += ["--seed", str(seed)]
        argv += list(spec.extra) + ["--json"]
        label = f"{idx}:{spec.command}-{spec.family}{spec.rank}"
        ops.append(Op(label, tuple(argv)))
    return ops
