"""Which `toda` modules each entry point loads, each in a fresh process."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CORE = ["toda", "toda.cli", "toda.exact", "toda.lie", "toda.linalg"]


def modules_after(code: str) -> list[str]:
    """Every module in sys.modules after running `code` in a fresh interpreter."""
    probe = (
        "import contextlib, io, json, sys\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        + "".join(f"    {line}\n" for line in code.splitlines())
        + "print(json.dumps(sorted(sys.modules)))\n"
    )
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def loaded_after(code: str) -> list[str]:
    """The `toda` modules in sys.modules after running `code` in a fresh interpreter."""
    return [m for m in modules_after(code) if m == "toda" or m.startswith("toda.")]


def test_import_cli_loads_only_the_core():
    assert loaded_after("import toda.cli") == CORE


def test_import_toda_loads_no_submodule():
    assert loaded_after("import toda") == ["toda"]


@pytest.mark.parametrize(
    "argv, absent",
    [
        (
            ["minors", "--family", "C", "--rank", "3", "--count", "1"],
            ["toda.solutions", "toda.basis", "toda.config", "toda.jsonio", "toda.demos"],
        ),
        (["roots", "--family", "C", "--rank", "3"], ["toda.groups"]),
    ],
    ids=["minors", "roots"],
)
def test_subcommand_skips_modules_it_does_not_run(argv, absent):
    loaded = loaded_after(f"import toda.cli\nassert toda.cli.main({argv!r}) == 0")
    assert set(CORE) <= set(loaded)
    assert not set(absent) & set(loaded)


def test_verify_loads_the_modules_it_runs_and_no_more():
    # The symmetry certificate runs inside toda.solutions on ints and the
    # random module it already imports: verify loads no module for it.
    argv = ["verify", "--family", "C", "--rank", "2", "--gamma", "0,0", "--json"]
    loaded = loaded_after(f"import toda.cli\nassert toda.cli.main({argv!r}) == 0")
    assert loaded == sorted(CORE + ["toda.basis", "toda.config", "toda.groups", "toda.jsonio", "toda.solutions"])


@pytest.mark.parametrize(
    "argv",
    [
        None,
        ["solve", "--family", "C", "--rank", "2", "--gamma", "0,1/2"],
        ["verify", "--family", "B", "--rank", "2", "--gamma", "0,0", "--points", "2"],
        ["minors", "--family", "C", "--rank", "3", "--count", "1"],
        ["roots", "--family", "C", "--rank", "3"],
        ["ngamma", "--family", "C", "--rank", "3", "--gamma", "1/2,0,0"],
        ["wsym", "--family", "B", "--rank", "2", "--gamma", "0,0"],
        ["demo", "c3"],
    ],
    ids=lambda argv: argv[0] if argv else "import",
)
def test_no_command_loads_dataclasses_or_inspect(argv):
    # The value classes derive from exact.Record, which generates no code:
    # neither the stdlib dataclass machinery nor the inspect module it loads
    # is part of any command's start-up.
    code = "import toda.cli" + (f"\nassert toda.cli.main({argv!r}) == 0" if argv else "")
    loaded = {"dataclasses", "inspect"} & set(modules_after(code))
    assert not loaded


def test_public_name_loads_its_module_on_access():
    loaded = loaded_after("from toda import minor")
    assert "toda.groups" in loaded and "toda.solutions" not in loaded
    # The library decides the verdict of verify; only the CLI formats it.
    loaded = loaded_after("from toda import verify")
    assert "toda.solutions" in loaded and not {"toda.jsonio", "toda.cli"} & set(loaded)


def test_unknown_name_raises_attribute_error():
    import toda

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        toda.no_such_name
    with pytest.raises(ImportError):
        exec("from toda import no_such_name", {})
    assert not hasattr(toda, "sigma_vector")
