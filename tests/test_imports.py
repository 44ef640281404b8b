"""The runtime needs nothing beyond the standard library, a run writes no
file, and every declared console script imports."""
from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricres
from helpers_examples import STURMFELS_LABELS, STURMFELS_SUPPORTS

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
    assert {"toricres.cech", "toricres.implicit"} <= set(out["modules"])
    assert out["third_party"] == []


SOLVE_PATH_DATACLASSES = """
import dataclasses, json, sys
from toricres import cech
fresh = [m for m in ("toricres.resultant", "toricres.fixtures") if m not in sys.modules]
made = []
real = dataclasses.dataclass

def counted(*args, **kwargs):
    made.append(sys._getframe(1).f_globals["__name__"])
    return real(*args, **kwargs)

dataclasses.dataclass = counted
import toricres.resultant, toricres.fixtures
print(json.dumps({"fresh": fresh, "made": made}))
"""


def test_the_solve_path_creates_no_dataclass():
    """What the solve imports past `toricres.cech` (the benchmark child's
    import before its timer) creates no dataclass: each one generates and
    execs its methods on every import, a fixed cost of every process."""
    src = str(Path(toricres.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-B", "-c", SOLVE_PATH_DATACLASSES],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["fresh"] == ["toricres.resultant", "toricres.fixtures"]
    assert out["made"] == []


SOLVE_PATH_MODULES = """
import json, sys
from toricres import cech
before = set(sys.modules)
from toricres import resultant, weyman
added = sorted(m for m in set(sys.modules) - before if m.startswith("toricres"))
from toricres import qlinalg
wrapped = {resultant: ("a_resultant", "variety_of", "koszul_generic", "primitive_part",
                       "kth_root", "weyman_differential"),
           weyman: ("weyman_terms", "contributing_points", "family_certs"),
           qlinalg: ("QMatrix",)}
# what perfbench/trace.py reads of them: the memo's misses, the three
# counter keys, and 2-tuple points whose second items tell the patterns
# apart; on the squares each class has one pattern, so four classes are read
from toricres.toric import support_problem, variety_of
square = ((0, 0), (1, 0), (0, 1), (1, 1))
x = variety_of(support_problem([square] * 3))
results = [weyman.contributing_points(x, alpha) for alpha in ((-2, -2), (-2, 2), (2, -2), (2, 2))]
points = [p for pts in results for p in pts]
print(json.dumps({"added": added,
                  "missing": [f"{m.__name__}.{n}" for m, names in wrapped.items()
                              for n in names if not hasattr(m, n)],
                  "misses_is_int": type(weyman.family_certs.cache_info().misses) is int,
                  "counters": sorted(cech.cache_counters),
                  "pairs": all(type(pts) is tuple for pts in results) and all(
                      type(p) is tuple and len(p) == 2 for p in points),
                  "seconds": len({f for _, f in points}),
                  "patterns": len({tuple(v < 0 for v in w) for w, _ in points})}))
"""


def test_the_solve_path_loads_only_the_pipeline():
    """Past `toricres.cech` (the benchmark child's import before its timer),
    the solve imports exactly the three pipeline modules, never `implicit`:
    without cached bytecode each module loaded is compiled in every
    process.  The names `perfbench/trace.py` wraps stay where it
    looks for them, with the shapes it reads."""
    src = str(Path(toricres.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-B", "-c", SOLVE_PATH_MODULES],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout)
    assert out["added"] == ["toricres.complexes", "toricres.resultant", "toricres.weyman"]
    assert out["missing"] == []
    assert out["misses_is_int"] and out["counters"] == ["built", "disk", "memory"]
    assert out["pairs"] and out["seconds"] == out["patterns"] == 4


FIXTURES_AFTER_CECH = """
import json, sys
from toricres import cech
before = set(sys.modules)
from toricres import fixtures
print(json.dumps(sorted(m for m in set(sys.modules) - before if m.startswith("toricres"))))
"""


def test_the_printed_twists_need_nothing_past_cech():
    """`toricres.fixtures`, which the printed-Sturmfels solve imports after
    `toricres.cech`, loads no other module of the package: it holds only
    the printed twists and their regrading, and the worked examples live
    with the tests."""
    src = str(Path(toricres.__file__).resolve().parent.parent)
    run = subprocess.run([sys.executable, "-B", "-c", FIXTURES_AFTER_CECH],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout) == ["toricres.fixtures"]


def test_every_top_level_import_in_src_is_used():
    """Each name a module of `src/toricres` imports at top level is used in
    that module or listed in its `__all__`: a dead import loads, and
    without cached bytecode compiles, code for nothing."""
    dead = []
    for path in sorted(Path(toricres.__file__).resolve().parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = [(a.asname or a.name).partition(".")[0]
                    for node in tree.body
                    if isinstance(node, ast.Import) or (
                        isinstance(node, ast.ImportFrom) and node.module != "__future__")
                    for a in node.names]
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                used |= set(ast.literal_eval(node.value))
        dead += [f"{path.name}: {name}" for name in imported if name not in used]
    assert dead == []


def test_only_qlinalg_imports_fractions():
    """The coefficient ring is Z past the input boundary (see `qpoly`): of
    the modules in `src/toricres`, only `qlinalg`, whose QMatrix is the
    tests' rank reference over Q, imports `fractions`, at any level."""
    importers = []
    for path in sorted(Path(toricres.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m.partition(".")[0] == "fractions" for m in modules):
                importers.append(path.name)
    assert importers == ["qlinalg.py"]


def test_no_module_in_src_reads_an_error_message():
    """No `... in str(name)` test in `src/toricres`: a failure that a caller
    must tell apart has its own exception type (ExactnessFailure), so no
    module parses another's message."""
    found = []
    for path in sorted(Path(toricres.__file__).resolve().parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and any(
                    isinstance(op, (ast.In, ast.NotIn)) and isinstance(c, ast.Call)
                    and isinstance(c.func, ast.Name) and c.func.id == "str"
                    and len(c.args) == 1 and isinstance(c.args[0], ast.Name)
                    for op, c in zip(node.ops, node.comparators)):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


RESULTANT_RUN = f"""
import hashlib
from toricres.qpoly import poly_to_text
from toricres.resultant import a_resultant
from toricres.toric import support_problem
delta = a_resultant(support_problem({STURMFELS_SUPPORTS!r}, {STURMFELS_LABELS!r})).delta
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
