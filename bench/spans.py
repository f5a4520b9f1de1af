"""Spans recorded from outside the program by rebinding its functions.

Each traced function is replaced, in every `toda` module namespace (and
class) where its callers look it up, by a wrapper that records a span:
name, start, end, parent span and operation id.  Spans stay in memory and
are written out when the run ends.  Nothing in the program is edited, and
`traced()` restores every rebound name on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (module, attribute) of every traced function; "Class.method" for methods.
# The span name is "<last module component>.<function>".
TARGETS = (
    ("toda.solutions", "assemble"),
    ("toda.solutions", "verify_pde"),
    ("toda.solutions", "verify_monodromy"),
    ("toda.solutions", "verify_symmetry"),
    ("toda.solutions", "verify_integrability"),
    ("toda.solutions", "characteristic_data"),
    ("toda.solutions", "a_case_form"),
    ("toda.groups", "all_minors"),
    ("toda.groups", "unipotent_from_coords"),
    ("toda.groups", "minor"),
    ("toda.groups", "check_minor_identity"),
    ("toda.groups", "classify_by_minors"),
    ("toda.groups", "sample_group_element"),
    ("toda.linalg", "det"),
    ("toda.basis", "nu_vector"),
    ("toda.basis", "wronskian"),
    ("toda.basis", "column_minor"),
    ("toda.exact", "ZExpr.evaluate"),
    ("toda.jsonio", "parse_coords"),
    ("toda.jsonio", "zexpr_to_json"),
)

# Functions whose return values feed the size counters.
KEEP_RESULTS = frozenset({"solutions.assemble", "groups.all_minors"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    op: str


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.results: list[tuple[str, object]] = []
        self.op = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, results = self.spans, self._stack, self.results
        clock = time.perf_counter
        keep = name in KEEP_RESULTS

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1, self.op)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if keep:
                results.append((name, result))
            return result

        return traced_call

    def take(self) -> tuple[list[Span], list[tuple[str, object]]]:
        """Hand over the spans and kept results so far and start afresh.

        Parent indices of the returned spans refer to the returned list.
        """
        if self._stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans, results = list(self.spans), list(self.results)
        self.spans.clear()
        self.results.clear()
        return spans, results


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.rsplit('.', 1)[-1]}"


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Rebind every target where it is looked up; restore all on exit."""
    saved: list[tuple[object, str, object]] = []
    try:
        for module, attr in TARGETS:
            mod = importlib.import_module(module)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[meth]
                saved.append((owner, meth, original))
                setattr(owner, meth, tracer.wrap(span_name(module, attr), original))
                continue
            original = getattr(mod, attr)
            wrapper = tracer.wrap(span_name(module, attr), original)
            for name, loaded in list(sys.modules.items()):
                if name != "toda" and not name.startswith("toda."):
                    continue
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        saved.append((loaded, key, original))
                        setattr(loaded, key, wrapper)
        yield saved
    finally:
        for owner, key, original in reversed(saved):
            setattr(owner, key, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for idx, span in enumerate(spans):
        # Children sorted by start; clip each to the span and to what earlier
        # children already cover, so overlaps count once.
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: number of calls, total time and self time."""
    out: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["s"] += span.end - span.start
        row["self_s"] += own
    return out
