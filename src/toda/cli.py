"""Command-line front end.

Subcommands: solve, verify, roots, ngamma, minors, wsym, demo.  Rationals
are written "p/q" on the command line, comma-separated for vectors;
coordinates are a JSON object (inline or @file).  With --json the full
machine-readable report is printed to stdout; with the same seed and flags
the JSON output is byte-identical across runs.  Exit codes: 0 all requested
checks pass, 1 a check failed (a FAIL in the report, or an exception of the
toda.exact.CheckFailed family), 2 usage error (any other ValueError, bad
JSON, a missing file), 3 internal error.  The commands check their
arguments, call the library and format its results; no verdict is decided
here (verify prints the rows of toda.solutions.verify).

Every command loads toda.exact, toda.lie and toda.linalg (imported here);
each command imports the other modules it runs when it runs, so that a
fresh process compiles and executes no module it does not use:

    roots                 nothing more
    minors                toda.groups
    ngamma                toda.config, toda.groups, toda.jsonio
    solve, verify, wsym   those three and toda.basis, toda.solutions
    demo                  those five and toda.demos

Modules run from source when no bytecode cache is written
(PYTHONDONTWRITEBYTECODE), so each module a command skips saves its
compilation as well as its execution.

main builds the argument parser on its first call and reuses it for every
later call in the process.  The parser stores only the subcommand's name;
main looks the function cmd_<name> up in this module when the command
runs, so a cmd_* replaced here (as tests do) is the one called.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from typing import TYPE_CHECKING

from . import __version__
from .exact import CheckFailed, format_fraction
from .lie import Algebra, coordinate_map, format_root_table, positive_roots

if TYPE_CHECKING:
    from .groups import UnipotentCoords
    from .solutions import SolutionParams

SCHEMA = "toda-report/1"


def _fraction_list(text: str) -> list[Fraction]:
    from .jsonio import parse_fraction

    return [parse_fraction(x) for x in text.split(",")]


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a key repeated within it is a ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"--coords repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_coords_arg(algebra: Algebra, raw: str | None) -> UnipotentCoords:
    from .jsonio import parse_coords

    if not raw:
        return parse_coords(algebra, {})
    if raw.startswith("@"):
        with open(raw[1:], "r", encoding="utf-8") as fh:
            raw = fh.read()
    return parse_coords(algebra, json.loads(raw, object_pairs_hook=_unique_keys))


def _algebra_from_args(args) -> Algebra:
    if args.family is None or args.rank is None:
        raise ValueError("--family and --rank are required")
    return Algebra(args.family, args.rank)


def _config_from_args(args) -> tuple:
    from .config import make_config

    algebra = _algebra_from_args(args)
    if getattr(args, "gamma", None) is None:
        raise ValueError("--gamma is required for this command")
    cfg = make_config(args.family, args.rank, _fraction_list(args.gamma))
    return algebra, cfg


def _params_from_args(algebra: Algebra, cfg, args) -> SolutionParams:
    from .solutions import SolutionParams, default_lambdas

    coords = _load_coords_arg(algebra, getattr(args, "coords", None))
    raw = getattr(args, "lambdas", None)
    lams = _fraction_list(raw) if raw else default_lambdas(cfg)
    return SolutionParams.of(lams, coords)


def _emit(report: dict, args, human_lines) -> None:
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for line in human_lines:
            print(line)


def _check_lines(rows) -> list[str]:
    """Human lines of verify's rows, each with its detail and witness."""
    return [
        f"  {row.name:<14} {'PASS' if row.passed else 'FAIL'}   {row.detail} {row.witness}".rstrip()
        for row in rows
    ]


def cmd_solve(args) -> int:
    from .jsonio import config_to_json, coords_to_json, form_to_json, fractions_to_json
    from .solutions import assemble

    algebra, cfg = _config_from_args(args)
    params = _params_from_args(algebra, cfg, args)
    bundle = assemble(cfg, params)
    report = {
        "schema": SCHEMA,
        "command": "solve",
        "config": config_to_json(cfg),
        "lambda_full": fractions_to_json(bundle.lambdas),
        "coords": coords_to_json(params.coords),
        "beta": fractions_to_json(bundle.nu.beta),
        "chi": fractions_to_json(bundle.nu.chi),
        "F1": form_to_json(bundle.forms[0]),
        "term_counts": [len(form.entries) for form in bundle.forms],
    }
    if bundle.reduced is not None:
        report["reduced"] = [
            {
                "index": r.index,
                "multiplier": format_fraction(r.multiplier),
                "power": format_fraction(r.power),
                "ln2_offset": format_fraction(r.ln2_coefficient),
            }
            for r in bundle.reduced
        ]
    lines = [
        f"solution for {cfg.family}{cfg.rank}, gamma = {args.gamma}",
        f"  exponents beta: {', '.join(fractions_to_json(bundle.nu.beta))}",
        f"  F_1 has {len(bundle.forms[0].entries)} terms",
    ]
    _emit(report, args, lines)
    return 0


def cmd_verify(args) -> int:
    from .jsonio import config_to_json, form_to_json
    from .solutions import assemble, verify

    if args.points <= 0:
        raise ValueError(f"--points must be positive, got {args.points}")
    if not 0 < args.tol < float("inf"):  # false for nan as well
        raise ValueError(f"--tol must be a positive finite number, got {args.tol}")
    _check_seed(args.seed)
    algebra, cfg = _config_from_args(args)
    params = _params_from_args(algebra, cfg, args)
    t0 = time.monotonic()
    bundle = assemble(cfg, params)
    result = verify(bundle, count=args.points, tol=args.tol, seed=args.seed)
    elapsed = time.monotonic() - t0
    mono = result.monodromy
    report = {
        "schema": SCHEMA,
        "command": "verify",
        "config": config_to_json(cfg),
        "options": {"points": args.points, "tol": args.tol, "seed": args.seed},
        "checks": [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in result.rows],
        "exponents": [
            {
                "index": row.index,
                "at_zero": format_fraction(row.exponent_at_zero),
                "at_infinity": format_fraction(row.exponent_at_infinity),
            }
            for row in result.integrability.rows
        ],
        "monodromy_witnesses": {
            "algebraic": [list(x) for x in mono.algebraic_offenders],
            "analytic": list(mono.analytic_offenders),
        },
        "F1": form_to_json(bundle.forms[0]),
        "passed": result.passed,
    }
    lines = [f"verification for {cfg.family}{cfg.rank}:"]
    lines += _check_lines(result.rows)
    lines.append(f"  overall: {'PASS' if result.passed else 'FAIL'} ({elapsed:.2f}s)")
    _emit(report, args, lines)
    return 0 if result.passed else 1


def cmd_roots(args) -> int:
    algebra = _algebra_from_args(args)
    roots = positive_roots(algebra)
    report = {
        "schema": SCHEMA,
        "command": "roots",
        "algebra": {"family": algebra.family, "rank": algebra.rank},
        "count": len(roots),
        "roots": [{"coeffs": list(r.coeffs), "name": str(r)} for r in roots],
    }
    lines = [f"{algebra}: {len(roots)} positive roots"]
    lines += [f"  {r}" for r in roots]
    _emit(report, args, lines)
    return 0


def cmd_ngamma(args) -> int:
    from .jsonio import config_to_json

    algebra, cfg = _config_from_args(args)
    rows = format_root_table(algebra, cfg.gamma)
    members = sum(1 for r in rows if r["integral"])
    report = {
        "schema": SCHEMA,
        "command": "ngamma",
        "config": config_to_json(cfg),
        "rows": rows,
        "members": members,
        "dimension_of_unipotent_group": len(coordinate_map(algebra)),
    }
    lines = [f"integral-root table for {algebra}, gamma = {args.gamma}"]
    lines.append(f"  {'slot':<6} {'root':<22} {'value':<8} member")
    for r in rows:
        lines.append(
            f"  {r['slot']:<6} {r['root_str']:<22} {r['value']:<8} {'yes' if r['integral'] else 'no'}"
        )
    lines.append(f"  members: {members} / {len(rows)}")
    lines.append(f"  dim N = {report['dimension_of_unipotent_group']}")
    _emit(report, args, lines)
    return 0


def _check_seed(seed: int) -> None:
    # random.Random(-s) is random.Random(s): a negative seed would repeat the
    # draws of its absolute value.
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def cmd_minors(args) -> int:
    from .groups import check_minor_identity, classify_by_minors, expected_tag, sample_group_element

    if args.count <= 0:
        raise ValueError(f"--count must be positive, got {args.count}")
    _check_seed(args.seed)
    algebra = _algebra_from_args(args)
    results = []
    ok = True
    for idx in range(args.count):
        g = sample_group_element(algebra, seed=args.seed + idx, bound=3)
        rep = check_minor_identity(g)
        tag = classify_by_minors(g)
        good = tag == expected_tag(algebra.k)
        ok = ok and good
        results.append(
            {
                "seed": args.seed + idx,
                "pairs_checked": rep.pairs_checked,
                "exhaustive": rep.exhaustive,
                "classified_as": tag,
                "passed": good,
            }
        )
    report = {
        "schema": SCHEMA,
        "command": "minors",
        "algebra": {"family": algebra.family, "rank": algebra.rank},
        "samples": results,
        "passed": ok,
    }
    lines = [f"minor identities for {algebra} ({args.count} samples)"]
    for r in results:
        lines.append(
            f"  seed {r['seed']}: {r['pairs_checked']} pairs, classified {r['classified_as']}"
        )
    lines.append(f"  overall: {'PASS' if ok else 'FAIL'}")
    _emit(report, args, lines)
    return 0 if ok else 1


def cmd_wsym(args) -> int:
    from .jsonio import config_to_json, fractions_to_json
    from .solutions import characteristic_data

    _, cfg = _config_from_args(args)
    data = characteristic_data(cfg)
    report = {
        "schema": SCHEMA,
        "command": "wsym",
        "config": config_to_json(cfg),
        "w": fractions_to_json(data.w),
        "beta": fractions_to_json(data.beta),
        "order": cfg.k,
        "passed": True,
    }
    lines = [
        f"characteristic data for {cfg.family}{cfg.rank}:",
        f"  w    = [{', '.join(fractions_to_json(data.w))}]",
        f"  beta = [{', '.join(fractions_to_json(data.beta))}]",
        f"  operator order {cfg.k}; annihilates every basis power",
    ]
    _emit(report, args, lines)
    return 0


def cmd_demo(args) -> int:
    from .demos import build_demo

    body = build_demo(args.target)
    report = {"schema": SCHEMA, "command": "demo", **body}
    lines = [f"demo {args.target}: {body['family']}{body['rank']}, gamma = {','.join(body['gamma'])}"]
    lines.append("  dependent entries:")
    for row in body["dependent_entries"]:
        lines.append(f"    {row['formula']:<40} {'ok' if row['matches'] else 'MISMATCH'}")
    lines.append(f"  monodromy exponents: {', '.join(body['monodromy_exponents'])}")
    lines.append(f"  coordinates with integral roots: {', '.join(body['nonzero_coordinates'])}")
    if "ln2_offsets" in body:
        lines.append(f"  ln2 offsets: {', '.join(body['ln2_offsets'])}")
    lines.append(f"  all formulas match: {body['all_formulas_match']}")
    _emit(report, args, lines)
    return 0 if body["all_formulas_match"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toda",
        description="Exact construction and verification of singular 2D Toda solutions (A/C/B).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, gamma=True, params=False, points=False, seed=False):
        p.add_argument("--family", choices=["A", "C", "B"])
        p.add_argument("--rank", type=int)
        if gamma:
            p.add_argument("--gamma", help="comma-separated rationals, e.g. -1/2,1/4")
        if params:
            p.add_argument("--lambda", dest="lambdas", help="comma-separated positive rationals")
            p.add_argument("--coords", help='JSON object {"c30":"1+i"} or @file')
        if points:
            p.add_argument("--points", type=int, default=20)
            p.add_argument("--tol", type=float, default=1e-9)
        if seed:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true", help="machine-readable report on stdout")

    p = sub.add_parser("solve", help="assemble a solution and print its exact data")
    common(p, params=True)

    p = sub.add_parser("verify", help="run every verification for a configuration")
    common(p, params=True, points=True, seed=True)

    p = sub.add_parser("roots", help="list the positive roots")
    common(p, gamma=False)

    p = sub.add_parser("ngamma", help="integral-root table and coordinate restrictions")
    common(p)

    p = sub.add_parser("minors", help="minor identities on sampled group elements")
    common(p, gamma=False, seed=True)
    p.add_argument("--count", type=int, default=5)

    p = sub.add_parser("wsym", help="characteristic operator data")
    common(p)

    p = sub.add_parser("demo", help="worked example (c3 or b2)")
    p.add_argument("target", choices=["c3", "b2"])
    p.add_argument("--json", action="store_true")

    return parser


def _merge_negative_values(argv: list[str]) -> list[str]:
    # Values like "-1/2,1/4" look like options to argparse; glue them onto
    # their flag with "=".
    merged = []
    skip = False
    value_flags = {"--gamma", "--lambda"}
    for i, tok in enumerate(argv):
        if skip:
            skip = False
            continue
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            merged.append(f"{tok}={argv[i + 1]}")
            skip = True
        else:
            merged.append(tok)
    return merged


_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = _PARSER.parse_args(_merge_negative_values(list(argv)))
    try:
        return globals()[f"cmd_{args.command}"](args)
    except CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as err:
        # str() of a KeyError is the repr of its message.
        message = err.args[0] if isinstance(err, KeyError) and err.args else err
        print(f"error: {message}", file=sys.stderr)
        return 2
    except Exception as err:  # internal failure
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
