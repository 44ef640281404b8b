"""The printed Sturmfels chart: its pinned pairing with the fan, and the
twists regraded through it."""
import itertools

import pytest

from helpers_examples import sturmfels_problem

from toricres.errors import InputError
from toricres.fixtures import (
    STURMFELS_PAPER_GRADING,
    STURMFELS_PAPER_RAYS,
    STURMFELS_PAPER_ROWS,
    sturmfels_twist,
)
from toricres.toric import variety_from_points, variety_of


def brute_force_rows(x, grading):
    """Reference: scan every ray permutation for the unique pairing under
    which every linear relation among the rays maps to zero."""
    n = x.n_rays
    sols = []
    for pi in itertools.permutations(range(n)):
        if all(sum(x.rays[i][k] * grading[pi[i]][c] for i in range(n)) == 0
               for k in range(x.dim) for c in range(len(grading[0]))):
            sols.append(pi)
    if len(sols) != 1:
        return len(sols)
    return tuple(tuple(grading[sols[0][i]]) for i in range(n))


def test_pairing_matches_the_permutation_scan_on_sturmfels():
    """The scan over all 8! pairings finds the pinned one and no other, and
    the twists regraded through it are the printed unit and stable twists
    in the computed chart."""
    x = variety_of(sturmfels_problem())
    pinned = {r: STURMFELS_PAPER_GRADING[j]
              for r, j in zip(STURMFELS_PAPER_RAYS, STURMFELS_PAPER_ROWS)}
    assert brute_force_rows(x, STURMFELS_PAPER_GRADING) == tuple(pinned[r] for r in x.rays)
    assert sturmfels_twist(x, "unit") == (0, 1, 1, 2, -1, -1)
    assert sturmfels_twist(x, "stable") == (2, 2, 3, 9, 8, 12)
    with pytest.raises(InputError, match="rays"):
        sturmfels_twist(variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1))))


@pytest.mark.parametrize("which", ["unti", "Stable"])
def test_sturmfels_twist_refuses_an_unknown_name(which):
    """Only "unit" and "stable" name a printed twist; a misspelt name raises
    instead of giving the stable class."""
    x = variety_of(sturmfels_problem())
    with pytest.raises(InputError, match="'unit' or 'stable'"):
        sturmfels_twist(x, which)
