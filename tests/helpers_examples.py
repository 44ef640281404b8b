"""Frozen worked examples of the source paper, as the tests read them.

Point supports, published eliminants, matrices and cohomology tables for a
handful of named examples, plus constructors that package them as resultant
problems.  The printed rays, grading and twists of the Sturmfels surface
stay in `toricres.fixtures`, which regrades the twists to a computed chart.
"""
from __future__ import annotations

from toricres.qpoly import PolyMatrix, SparsePoly, poly_from_text
from toricres.toric import SupportProblem, support_problem

# -- bidegree (2,2)/(2,2)/(3,1) plane example --------------------------------

STURMFELS_VARS = ("a1", "a2", "a3", "b1", "b2", "b3", "c1", "c2")

STURMFELS_SUPPORTS: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((0, 0), (2, 2), (1, 3)),
    ((0, 0), (2, 0), (1, 2)),
    ((3, 0), (1, 1)),
)

# coefficient label of each support point, in listed order
STURMFELS_LABELS: tuple[tuple[str, ...], ...] = (
    ("a1", "a2", "a3"),
    ("b1", "b2", "b3"),
    ("c1", "c2"),
)

# the eliminant of the system; 20 terms, degree (5, 7, 7) in the a/b/c groups
STURMFELS_ELIMINANT_TEXT = " + ".join([
    "1 * a1^5 * b3^7 * c1^6 * c2",
    "3 * a1^4 * a2 * b2^2 * b3^5 * c1^4 * c2^3",
    "3 * a1^3 * a2^2 * b2^4 * b3^3 * c1^2 * c2^5",
    "-13 * a1^3 * a2 * a3 * b1^2 * b2 * b3^4 * c1^5 * c2^2",
    "-7 * a1^3 * a3^2 * b1 * b2^3 * b3^3 * c1^4 * c2^3",
    "6 * a1^2 * a2^3 * b1^3 * b2 * b3^3 * c1^4 * c2^3",
    "1 * a1^2 * a2^3 * b2^6 * b3 * c2^7",
    "-1 * a1^2 * a2^2 * a3 * b1^2 * b2^3 * b3^2 * c1^3 * c2^4",
    "5 * a1^2 * a2 * a3^2 * b1^4 * b3^3 * c1^6 * c2",
    "-1 * a1^2 * a2 * a3^2 * b1 * b2^5 * b3 * c1^2 * c2^5",
    "14 * a1^2 * a3^3 * b1^3 * b2^2 * b3^2 * c1^5 * c2^2",
    "1 * a1^2 * a3^3 * b2^7 * c1 * c2^6",
    "-2 * a1 * a2^4 * b1^3 * b2^3 * b3 * c1^2 * c2^5",
    "-5 * a1 * a2^3 * a3 * b1^5 * b3^2 * c1^5 * c2^2",
    "2 * a1 * a2^2 * a3^2 * b1^4 * b2^2 * b3 * c1^4 * c2^3",
    "-2 * a1 * a2 * a3^3 * b1^3 * b2^4 * c1^3 * c2^4",
    "-7 * a1 * a3^4 * b1^5 * b2 * b3 * c1^6 * c2",
    "1 * a2^5 * b1^6 * b3 * c1^4 * c2^3",
    "1 * a2^2 * a3^3 * b1^6 * b2 * c1^5 * c2^2",
    "1 * a3^5 * b1^7 * c1^7",
])

# a published 15x15 matrix whose determinant equals the eliminant up to sign
_M15: dict[tuple[int, int], str] = {
    (1, 10): "-1 * b1", (1, 14): "1 * a1",
    (2, 11): "-1 * b1", (2, 15): "1 * a1",
    (3, 4): "1 * c1", (3, 10): "-1 * b2",
    (4, 2): "1 * a1 * b3", (4, 4): "1 * c2", (4, 12): "-1 * b1",
    (5, 5): "1 * c1", (5, 11): "-1 * b2",
    (6, 2): "-1 * a2 * b1", (6, 3): "1 * a1 * b3", (6, 5): "1 * c2", (6, 13): "-1 * b1",
    (7, 1): "-1 * a1 * b3 * c1", (7, 3): "-1 * a2 * b1", (7, 6): "1 * c1", (7, 12): "-1 * b2",
    (8, 2): "-1 * a3 * b1", (8, 6): "1 * c2",
    (9, 2): "-1 * a2 * b2", (9, 7): "1 * c1", (9, 13): "-1 * b2",
    (10, 1): "-1 * a2 * b1 * c2", (10, 3): "-1 * a3 * b1", (10, 7): "1 * c2", (10, 10): "-1 * b3",
    (11, 3): "-1 * a2 * b2", (11, 8): "1 * c1",
    (12, 1): "1 * a3 * b1 * c1", (12, 2): "-1 * a3 * b2", (12, 8): "1 * c2",
    (12, 11): "-1 * b3", (12, 14): "1 * a2",
    (13, 1): "-1 * a2 * b2 * c2", (13, 3): "-1 * a3 * b2", (13, 9): "1 * c1", (13, 15): "1 * a2",
    (14, 9): "1 * c2", (14, 12): "-1 * b3", (14, 14): "1 * a3",
    (15, 1): "-1 * a3 * b2 * c2", (15, 13): "-1 * b3", (15, 15): "1 * a3",
}

STURMFELS_MATRIX_CELLS: list[list[str]] = [
    [_M15.get((i, j), "0") for j in range(1, 16)] for i in range(1, 16)
]

# first-page cohomology table for the unit twist: E1[q][p], p = -3..0
STURMFELS_E1_UNIT: dict[int, tuple[int, ...]] = {
    2: (15, 12, 0, 0),
    1: (0, 0, 2, 0),
    0: (0, 0, 0, 1),
}

# term ranks of the stable-twist direct image, read from degree 0 down to -2
STURMFELS_STABLE_SHAPE: tuple[int, ...] = (23, 27, 4)


def sturmfels_eliminant() -> SparsePoly:
    return poly_from_text(STURMFELS_ELIMINANT_TEXT, STURMFELS_VARS)


def sturmfels_matrix() -> PolyMatrix:
    return PolyMatrix.from_text(STURMFELS_MATRIX_CELLS, STURMFELS_VARS)


# -- space example with multiplicity 14 --------------------------------------

M33_SUPPORTS: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((0, 0, 0), (0, 2, 4), (-2, 5, 8)),
    ((-2, 4, 6), (1, 0, 1), (4, -4, -4)),
    ((3, -3, -3), (0, 1, 2)),
    ((0, 0, 0), (2, -4, -4)),
)

M33_MULTIPLICITY = 14

# eliminant in the auto-generated coefficient labels (index_point with - -> m)
M33_ELIMINANT_TEXT = (
    "1 * a1_m2_4_6 * a2_3_m3_m3^2"
    " + -1 * a1_1_0_1 * a2_3_m3_m3 * a2_0_1_2"
    " + 1 * a1_4_m4_m4 * a2_0_1_2^2"
)

# first-page cohomology table: E1[q][p], p = -4..0
M33_E1: dict[int, tuple[int, ...]] = {
    3: (19, 20, 1, 0, 0),
    2: (0, 21, 21, 1, 0),
    1: (0, 0, 2, 2, 0),
    0: (0, 0, 0, 0, 1),
}


# -- direct-image family on a surface ----------------------------------------

def m34_supports(k: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return (
        ((0, 0), (0, 3 * k), (3, 2 * k)),
        ((1, 1), (2, 2), (k, 2 * k)),
        ((-1, 5), (-2, 2), (3, 0)),
    )


M34_K8_RANKS: tuple[int, ...] = (8, 364, 356)


# -- three generic linear forms in the plane ---------------------------------

LINEAR3_SUPPORTS: tuple[tuple[tuple[int, ...], ...], ...] = (
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (1, 0), (0, 1)),
    ((0, 0), (1, 0), (0, 1)),
)


# -- problem constructors -----------------------------------------------------

def sturmfels_problem() -> SupportProblem:
    return support_problem(STURMFELS_SUPPORTS, STURMFELS_LABELS)


def m33_problem() -> SupportProblem:
    return support_problem(M33_SUPPORTS)


def m34_problem(k: int) -> SupportProblem:
    return support_problem(m34_supports(k))


def linear3_problem() -> SupportProblem:
    return support_problem(LINEAR3_SUPPORTS)
