"""The runtime needs nothing beyond the standard library, and every
declared console script imports."""
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
    run = subprocess.run([sys.executable, "-c", IMPORT_ALL], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert "toricres.cech" in out["modules"] and len(out["modules"]) >= 8
    assert out["third_party"] == []


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
