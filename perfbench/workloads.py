"""The benchmark's workloads: fixed inputs, the calls that solve them, and
the check of their answers.

BENCHMARK.json lists squares-default and sturmfels-printed.  m33-zero runs
only on request (`--workload m33-zero` or `all`): its 40-60 s cold child
and 10 s warm child would push the 22 runs per workload of a benchmark
check past the time the check allows.

`solve` runs inside a child process and is the timed region: it starts at
the first library call and ends when the last result is returned; see
`calibrate` for how its time is scaled to a nominal processor speed.  `check`
is not timed.  Inputs are fixed data; the workload seed only draws the
sample points of the squares check.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from . import verify

SQUARE = ((0, 0), (1, 0), (0, 1), (1, 1))

# the paper's printed 15x15 example
STURMFELS_SUPPORTS = (
    ((0, 0), (2, 2), (1, 3)),
    ((0, 0), (2, 0), (1, 2)),
    ((3, 0), (1, 1)),
)
STURMFELS_LABELS = (("a1", "a2", "a3"), ("b1", "b2", "b3"), ("c1", "c2"))

# the paper's space example with multiplicity 14
M33_SUPPORTS = (
    ((0, 0, 0), (0, 2, 4), (-2, 5, 8)),
    ((-2, 4, 6), (1, 0, 1), (4, -4, -4)),
    ((3, -3, -3), (0, 1, 2)),
    ((0, 0, 0), (2, -4, -4)),
)


def answer(out) -> dict:
    """Plain form of a `ResultantOutput`, as `verify` expects it."""
    return {
        "delta": verify.poly_of(out.delta.vars, out.delta.terms),
        "root": verify.poly_of(out.root.vars, out.root.terms),
        "multiplicity": out.multiplicity,
        "e1": {(p, q): r for p, q, r in out.e1.to_obj() if r},
        "term_ranks": {i: n for i, n in out.term_ranks.items() if n},
    }


def _solve_squares():
    from toricres import resultant
    from toricres.toric import support_problem
    problem = support_problem((SQUARE,) * 3)
    return problem, [resultant.a_resultant(problem)]


def _solve_sturmfels():
    from toricres import resultant
    from toricres.fixtures import sturmfels_twist
    from toricres.toric import support_problem, variety_of
    problem = support_problem(STURMFELS_SUPPORTS, STURMFELS_LABELS)
    x = variety_of(problem)
    return problem, [resultant.a_resultant(problem, twist=sturmfels_twist(x, which))
                     for which in ("unit", "stable")]


def _solve_m33():
    from toricres import resultant
    from toricres.toric import support_problem
    problem = support_problem(M33_SUPPORTS)
    return problem, [resultant.a_resultant(problem, twist=(0, 0, 0, 0))]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    solve: Callable[[], tuple]
    check: Callable[[list[dict], object, int], list[str]]
    # children per timed run: cold ones, then at least warm_min warm ones;
    # a run adds warm children while the next still fits in --seconds
    cold_min: int = 1
    warm_min: int = 1


WORKLOADS = {w.name: w for w in (
    Workload(
        "squares-default",
        "three unit squares at the default twist: nearly all time is the "
        "polynomial determinant, the Cech layer is trivial",
        _solve_squares,
        lambda answers, problem, seed: verify.check_squares(
            answers, problem.supports, problem.labels, seed),
        # 11-14 s children: two of each keep a run near 50 s
        cold_min=2, warm_min=2),
    Workload(
        "sturmfels-printed",
        "the paper's printed 15x15 example at the unit and stable twists: time "
        "is in the Cech sign-pattern table, the determinant is tiny",
        _solve_sturmfels,
        lambda answers, problem, seed: verify.check_sturmfels(answers),
        cold_min=3, warm_min=2),
    Workload(
        "m33-zero",
        "the M33 space example at the zero twist: cold reduces and writes 72 "
        "certificate families, warm reads them back; multiplicity 14",
        _solve_m33,
        lambda answers, problem, seed: verify.check_m33(answers)),
)}
