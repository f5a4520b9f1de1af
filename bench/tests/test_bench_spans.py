"""Self-time arithmetic and the rebinding of traced functions."""

import sys

import pytest

import toda.cli
from spans import TARGETS, Span, Tracer, self_times, summarize, traced


def test_self_time_subtracts_children_on_a_synthetic_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, "op"),
        Span("a", 1.0, 4.0, 0, "op"),
        Span("a.child", 2.0, 3.0, 1, "op"),
        Span("b", 3.5, 6.0, 0, "op"),  # overlaps a: the union 1..6 counts once
        Span("c", 8.0, 12.0, 0, "op"),  # runs past the root: clipped at 10
    ]
    assert self_times(spans) == pytest.approx([10.0 - 5.0 - 2.0, 2.0, 1.0, 2.5, 4.0])
    summary = summarize(spans)
    assert summary["a"] == pytest.approx({"calls": 1, "s": 3.0, "self_s": 2.0})
    assert summary["root"]["self_s"] == pytest.approx(3.0)


def test_nested_wrappers_record_parents_and_results():
    tracer = Tracer()
    inner = tracer.wrap("solutions.assemble", lambda: "bundle")
    outer = tracer.wrap("outer", lambda: inner())
    tracer.op = "op-1"
    assert outer() == "bundle"
    spans, results = tracer.take()
    assert [(s.name, s.parent, s.op) for s in spans] == [("outer", -1, "op-1"), ("solutions.assemble", 0, "op-1")]
    assert results == [("solutions.assemble", "bundle")]
    assert tracer.take() == ([], [])


def _bindings():
    """Every (namespace, key) -> object in the toda modules and ZExpr."""
    out = {}
    for name, mod in sys.modules.items():
        if name == "toda" or name.startswith("toda."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
    for key, value in vars(toda.exact.ZExpr).items():
        out[("ZExpr", key)] = value
    return out


def test_traced_rebinds_every_lookup_and_restores_all():
    before = _bindings()
    tracer = Tracer()
    with traced(tracer) as saved:
        assert toda.cli.assemble is not before[("toda.cli", "assemble")]
        assert toda.solutions.all_minors is not before[("toda.solutions", "all_minors")]
        assert toda.groups.generic_det is not before[("toda.groups", "generic_det")]
        assert toda.basis.generic_det is toda.groups.generic_det
        assert toda.cli.verify_pde is not before[("toda.cli", "verify_pde")]
        rebound = {(getattr(owner, "__name__", owner), key) for owner, key, _ in saved}
        assert len(rebound) >= len(TARGETS)
        assert toda.cli.main(["roots", "--family", "C", "--rank", "2"]) == 0
    assert _bindings() == before


def test_traced_restores_when_the_body_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            raise RuntimeError("boom")
    assert _bindings() == before


@pytest.mark.parametrize("command, assemblies", [("solve", 1), ("verify", 2)])
def test_traced_counts_calls_through_the_cli(capsys, command, assemblies):
    tracer = Tracer()
    with traced(tracer):
        code = toda.cli.main([command, "--family", "C", "--rank", "2", "--gamma", "0,0", "--json"])
    capsys.readouterr()
    assert code == 0
    spans, results = tracer.take()
    names = [s.name for s in spans]
    assert names.count("solutions.assemble") == assemblies
    assert names.count("groups.all_minors") == assemblies
    # Results are kept in return order: the minor table returns inside assemble.
    assert [name for name, _ in results][:2] == ["groups.all_minors", "solutions.assemble"]
