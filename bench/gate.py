"""Correctness gate: exit code, pass flag and a digest of the exact content.

The digest covers only the exact mathematical fields of a report, so that a
change in how a report is presented (float details such as `max=...e-14`,
key order, indentation) is not counted as a failure, while any change to an
exact coefficient, exponent, check verdict or classification is.
"""

from __future__ import annotations

import hashlib
import json

# Exact fields per command.  Check entries keep only name and verdict.
_EXACT_FIELDS = {
    "solve": ("F1", "term_counts", "beta", "chi", "reduced"),
    "verify": ("F1", "exponents", "checks", "passed"),
    "minors": ("samples", "passed"),
}


def exact_content(report: dict) -> dict:
    """The exact mathematical fields of a `--json` report."""
    fields = _EXACT_FIELDS[report["command"]]
    out = {"command": report["command"]}
    for key in fields:
        value = report.get(key)
        if key == "checks":
            value = [[c["name"], c["passed"]] for c in value]
        out[key] = value
    return out


def digest(report: dict) -> str:
    blob = json.dumps(exact_content(report), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def judge(code: int, stdout: str, expected: str | None) -> tuple[str | None, str | None]:
    """Return (failure reason or None, digest or None) for one operation.

    `expected` is the reference digest, or None when no reference applies.
    """
    if code != 0:
        return f"exit code {code}", None
    try:
        report = json.loads(stdout)
        got = digest(report)
    except (ValueError, KeyError, TypeError) as err:
        return f"unreadable report: {err}", None
    if report.get("passed") is False:
        return "report says passed=false", got
    if expected is not None and got != expected:
        return "exact content differs from the reference", got
    return None, got
