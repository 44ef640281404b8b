"""The printed Sturmfels twists, regraded to a computed chart.

The paper prints its surface's facet normals, its class-group grading (one
row per ray, the rows not paired with the rays) and two twist classes in
that grading.  `sturmfels_twist` carries a printed class over to the chart
that `toric.variety_of` computes.  The worked examples themselves (supports,
eliminants, matrices and cohomology tables) live with the tests.
"""
from __future__ import annotations

from .errors import InputError
from .qlinalg import solve_int
from .toric import ToricVariety

# facet normals and class-group grading of the associated surface, as
# published
STURMFELS_PAPER_RAYS: tuple[tuple[int, int], ...] = (
    (-1, -2), (-2, -1), (-1, -1), (2, -1), (3, -1), (0, 1), (-1, 1), (1, 2),
)

STURMFELS_PAPER_GRADING: tuple[tuple[int, ...], ...] = (
    (1, 0, 0, 0, 0, 0),
    (0, 1, 0, 0, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 0, 0, 1, 0),
    (0, 0, 1, 2, 2, 3),
    (-1, 1, 0, -1, -1, -2),
    (1, -1, 2, 2, 0, 1),
)

# the printed grading row of each printed ray: the table does not pair its
# rows with the rays, and this is the one pairing under which every linear
# relation among the rays has degree zero
STURMFELS_PAPER_ROWS: tuple[int, ...] = (0, 6, 5, 3, 2, 4, 7, 1)

STURMFELS_TWIST_UNIT: tuple[int, ...] = (1, 1, 1, 1, 1, 1)
STURMFELS_TWIST_STABLE: tuple[int, ...] = (4, 7, 16, 12, 3, 2)


def sturmfels_twist(x: ToricVariety, which: str = "unit") -> tuple[int, ...]:
    """The printed unit or stable twist, regraded to x's chart.

    The printed class is lifted to an integral divisor on the printed rays,
    each ray graded by its pinned row, and x grades that divisor; the answer
    does not depend on the lift, because both gradings present the class
    group of the same fan."""
    c = {"unit": STURMFELS_TWIST_UNIT, "stable": STURMFELS_TWIST_STABLE}.get(which)
    if c is None:
        raise InputError(f"which must be 'unit' or 'stable', not {which!r}")
    if set(STURMFELS_PAPER_RAYS) != set(x.rays):
        raise InputError("the printed rays do not match this fan")
    rows = [STURMFELS_PAPER_GRADING[j] for j in STURMFELS_PAPER_ROWS]
    d = solve_int([list(col) for col in zip(*rows)], c)
    divisor = [0] * x.n_rays
    for r, k in zip(STURMFELS_PAPER_RAYS, d):
        divisor[x.rays.index(r)] = k
    return x.degree_of(divisor)
