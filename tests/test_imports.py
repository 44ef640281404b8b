"""The runtime needs nothing beyond the standard library, a run writes no
file, and every declared console script imports."""
from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricres

THIRD_PARTY = ("numpy", "sympy", "hypothesis")

IMPORT_ALL = f"""
import importlib, json, pkgutil, sys
import toricres
names = ["toricres." + m.name for m in pkgutil.iter_modules(toricres.__path__)]
for name in names:
    importlib.import_module(name)
print(json.dumps({{"modules": names,
                  "third_party": [n for n in {THIRD_PARTY!r} if n in sys.modules]}}))
"""


def test_every_module_imports_without_numpy_sympy_or_hypothesis():
    src = str(Path(toricres.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-B", "-c", IMPORT_ALL], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert "toricres.cech" in out["modules"] and len(out["modules"]) >= 8
    assert out["third_party"] == []


RESULTANT_RUN = """
import hashlib
from toricres.fixtures import sturmfels_problem
from toricres.qpoly import poly_to_text
from toricres.resultant import a_resultant
delta = a_resultant(sturmfels_problem()).delta
print(hashlib.sha256(poly_to_text(delta).encode()).hexdigest()[:16])
"""


def test_a_resultant_run_writes_no_file(tmp_path):
    """A full run in a fresh process, with HOME, TMPDIR and the working
    directory in one empty dir and no other variable set, leaves that dir
    empty and the source tree as it was (the child runs with -B, as the
    tests do, so no bytecode lands next to the sources), and its result is
    the one every other run gets."""
    src = Path(toricres.__file__).resolve().parent.parent
    before = sorted(src.rglob("*"))
    env = {"PYTHONPATH": str(src), "HOME": str(tmp_path), "TMPDIR": str(tmp_path)}
    run = subprocess.run([sys.executable, "-B", "-c", RESULTANT_RUN], capture_output=True,
                         text=True, cwd=tmp_path, env=env, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "9c93f61499ad08e3"
    assert list(tmp_path.iterdir()) == []
    assert sorted(src.rglob("*")) == before


def test_every_console_script_target_imports():
    """Each [project.scripts] entry names a callable that exists, so an
    installed command does not crash on import."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert project["name"] == "toricres"
    for command, target in project.get("scripts", {}).items():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr)), command
