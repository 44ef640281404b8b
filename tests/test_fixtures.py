"""Pairing printed grading tables with the fans they grade."""
import itertools
import random

import pytest

from helpers_reference import published_rows_by_fractions
from toricres.errors import InputError
from toricres.fixtures import (
    STURMFELS_PAPER_GRADING,
    STURMFELS_PAPER_RAYS,
    _published_rows_for,
    sturmfels_problem,
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
    x = variety_of(sturmfels_problem())
    rng = random.Random(5)
    rows = list(STURMFELS_PAPER_GRADING)
    rng.shuffle(rows)
    rays = [tuple(-v for v in r) for r in STURMFELS_PAPER_RAYS]
    rng.shuffle(rays)
    negated = [tuple(-v for v in r) for r in STURMFELS_PAPER_GRADING]
    for published_rays, grading in ((STURMFELS_PAPER_RAYS, STURMFELS_PAPER_GRADING),
                                    (rays, rows), (STURMFELS_PAPER_RAYS, negated)):
        grading = tuple(tuple(g) for g in grading)
        got = _published_rows_for(x, tuple(published_rays), grading)
        assert got == brute_force_rows(x, grading)


def test_pairing_rejects_an_ambiguous_or_impossible_grading():
    sq = variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1)))
    rays = tuple(sq.rays)
    # opposite rays need equal rows, and either pair of rows fits either
    # pair of rays
    ambiguous = ((1, 0), (1, 0), (0, 1), (0, 1))
    assert brute_force_rows(sq, ambiguous) == 8
    with pytest.raises(InputError, match="not unique"):
        _published_rows_for(sq, rays, ambiguous)
    # the line: a placement at the pivot row forces the same ray again
    line = variety_from_points(((0,), (1,)))
    assert brute_force_rows(line, ((1,), (-1,))) == 0
    with pytest.raises(InputError, match="no pairing"):
        _published_rows_for(line, line.rays, ((1,), (-1,)))
    x = variety_of(sturmfels_problem())
    broken = [list(g) for g in STURMFELS_PAPER_GRADING]
    broken[5][5] += 1
    broken = tuple(tuple(g) for g in broken)
    assert brute_force_rows(x, broken) == 0
    with pytest.raises(InputError, match="no pairing"):
        _published_rows_for(x, STURMFELS_PAPER_RAYS, broken)
    with pytest.raises(InputError, match="rows"):
        _published_rows_for(x, STURMFELS_PAPER_RAYS, STURMFELS_PAPER_GRADING[:-1])


def test_integer_pairing_search_equals_the_fraction_search():
    """The published chart, a row-permuted copy of it with shuffled negated
    rays, and the three charts the errors above reject: the integer search
    returns the same rows, or raises the same error, as the search on the
    unscaled Fraction basis."""
    x = variety_of(sturmfels_problem())
    rng = random.Random(11)
    rows = list(STURMFELS_PAPER_GRADING)
    rng.shuffle(rows)
    rays = [tuple(-v for v in r) for r in STURMFELS_PAPER_RAYS]
    rng.shuffle(rays)
    broken = [list(g) for g in STURMFELS_PAPER_GRADING]
    broken[5][5] += 1
    sq = variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1)))
    line = variety_from_points(((0,), (1,)))
    cases = [(x, STURMFELS_PAPER_RAYS, STURMFELS_PAPER_GRADING),
             (x, rays, rows),
             (x, STURMFELS_PAPER_RAYS, broken),
             (sq, sq.rays, ((1, 0), (1, 0), (0, 1), (0, 1))),
             (line, line.rays, ((1,), (-1,)))]

    def outcome(search, y, published_rays, grading):
        try:
            return search(y, tuple(map(tuple, published_rays)), tuple(map(tuple, grading)))
        except InputError as err:
            return str(err)

    got = [outcome(_published_rows_for.__wrapped__, *c) for c in cases]
    assert got == [outcome(published_rows_by_fractions, *c) for c in cases]
    assert [type(g) for g in got] == [tuple, tuple, str, str, str]
