"""Every function that `bench/run.py --trace 1` rebinds must exist.

The tracer looks each (module, attribute) of `bench/spans.py` `TARGETS` up
with getattr, so a deleted or renamed function would break a traced run.
The module is loaded from its path, without importing the `bench` package.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look the module up by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module,attr", TARGETS, ids=[f"{m}:{a}" for m, a in TARGETS])
def test_traced_target_resolves(module, attr):
    obj = importlib.import_module(module)
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj)
