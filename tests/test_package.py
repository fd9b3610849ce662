"""The package namespace: every public name loads on first use from its
defining module, and a command loads only the modules it runs."""

import argparse
import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import causalbox
from causalbox import casestudies, cli

SRC = str(Path(causalbox.__file__).resolve().parents[1])


def _loaded_after(script: str) -> set[str]:
    """causalbox submodules a fresh interpreter holds after script; the
    script's own stdout is discarded up to the last line."""
    script += (
        "\nimport sys\n"
        "print(' '.join(m for m in sys.modules if m.startswith('causalbox.')))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert done.returncode == 0, done.stderr
    return {m.removeprefix("causalbox.") for m in done.stdout.splitlines()[-1].split()}


def test_every_public_name_is_its_defining_modules_object():
    assert len(causalbox.__all__) == 69
    for module, removed in (
        (causalbox.boxes, ("canonical_box", "embed_general", "restrict_embedded")),
        (causalbox.jamming, ("boundary_functions", "valid_h_range")),
    ):
        for name in removed:
            assert name not in causalbox.__all__
            assert not hasattr(causalbox, name)
            assert not hasattr(module, name)
    for name in causalbox.__all__:
        module = importlib.import_module(f"causalbox.{causalbox._MODULE_OF[name]}")
        assert getattr(causalbox, name) is getattr(module, name), name


def test_every_public_name_has_a_use_outside_the_tests():
    # A public name that only tests call is test code: the package, the
    # benchmark or the README must use it.  A use is a load of the name,
    # bare or as an attribute; a definition, an import or a string is not.
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in (*(root / "src" / "causalbox").glob("*.py"), *(root / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    readme = (root / "README.md").read_text(encoding="utf-8")
    unused = [
        name
        for name in causalbox.__all__
        if name not in used and not re.search(rf"\b{name}\b", readme)
    ]
    assert unused == []


def test_every_import_is_used():
    # An imported name must be loaded as a bare name in its module, or
    # named by a string there (as in `__all__`); `__future__` imports
    # bind nothing.
    root = Path(__file__).resolve().parents[1]
    unused = []
    paths = (*(root / "src" / "causalbox").glob("*.py"), *(root / "tests").glob("*.py"))
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, used = [], set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [a.asname or a.name.partition(".")[0] for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                used.add(node.value)
        where = f"{path.parent.name}/{path.name}"
        unused += [f"{where}: {name}" for name in imported if name not in used]
    assert unused == []


def test_lookup_follows_a_patched_module_and_is_not_cached(monkeypatch):
    original = causalbox.jamming.verify_config
    assert causalbox.verify_config is original
    sentinel = object()
    monkeypatch.setattr(causalbox.jamming, "verify_config", sentinel)
    assert causalbox.verify_config is sentinel
    monkeypatch.undo()
    assert causalbox.verify_config is original
    assert "verify_config" not in vars(causalbox)


def test_dir_lists_every_public_name():
    assert set(causalbox.__all__) <= set(dir(causalbox))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from causalbox import *", namespace)
    assert set(causalbox.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        causalbox.no_such_name


def test_bare_import_loads_no_submodule():
    assert _loaded_after("import causalbox") == set()


def test_submodule_attribute_loads_that_module():
    script = "import causalbox\nassert causalbox.simplex.solve_lp is causalbox.solve_lp"
    assert _loaded_after(script) == {"simplex"}


def test_check_loads_only_what_it_runs():
    script = (
        "import runpy, sys\n"
        "sys.argv = ['causalbox', 'check', '--preset', 'bell_standard']\n"
        "try:\n"
        "    runpy.run_module('causalbox', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
    )
    loaded = _loaded_after(script)
    assert "ons" in loaded
    unused = {"casestudies", "monogamy", "jamming", "protocol", "poincare", "svg", "simplex"}
    assert not loaded & unused


def test_model_choices_are_the_casestudies_models():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    case_study = commands.choices["case-study"]
    model = next(a for a in case_study._actions if a.dest == "model")
    assert tuple(model.choices) == casestudies.MODELS
