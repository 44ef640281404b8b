from __future__ import annotations

import dataclasses
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers_examples import M33_SUPPORTS, STURMFELS_SUPPORTS, m34_supports
from helpers_reference import (
    facets_by_brute_force,
    int_kernel_basis,
    irrelevant_exponents,
    lattice_points_in_window,
    max_cones_by_rank,
)
from toricres import toric
from toricres.errors import InputError, MathFailure, UnsupportedGeometryError
from toricres.fixtures import STURMFELS_PAPER_RAYS
from toricres.qlinalg import int_rank, solve_int
from toricres.toric import (
    ToricVariety,
    codimension,
    degree_fiber,
    divisor_class,
    facet_normals,
    homogenized_exponent,
    minkowski_points,
    support_problem,
    variety_from_points,
    variety_from_simplex,
    variety_of,
)

SIMPLEX2 = ((0, 0), (1, 0), (0, 1))


def test_projective_plane_fan():
    x = variety_from_points(SIMPLEX2)
    assert x.dim == 2
    assert set(x.rays) == {(-1, -1), (0, 1), (1, 0)}
    assert len(x.max_cones) == 3
    assert x.class_rank == 1
    # grading kills the rays and is constant +-1 on a smooth plane
    cols = {g[0] for g in x.grading}
    assert cols in ({1}, {-1})
    assert x.degree_of([1, 1, 1]) in ((3,), (-3,))


def test_p1xp1_fan():
    x = variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1)))
    assert set(x.rays) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
    assert len(x.max_cones) == 4
    assert x.class_rank == 2
    for cone in x.max_cones:
        assert len(cone) == 2


def test_grading_annihilates_rays():
    for pts in (SIMPLEX2, ((0, 0), (2, 0), (1, 3)), ((0, 0), (1, 0), (0, 1), (2, 2))):
        x = variety_from_points(pts)
        for k in range(x.dim):
            vec = [x.rays[r][k] for r in range(x.n_rays)]
            assert x.degree_of(vec) == (0,) * x.class_rank


def test_interval_fan():
    x = variety_from_points(((0,), (2,)))
    assert x.rays == ((-1,), (1,))
    assert len(x.max_cones) == 2
    assert x.class_rank == 1
    assert abs(x.degree_of([1, 1])[0]) == 2


def test_irrelevant_exponents():
    x = variety_from_points(SIMPLEX2)
    gens = irrelevant_exponents(x)
    assert len(gens) == 3
    for cone, g in zip(x.max_cones, gens):
        for r in range(x.n_rays):
            assert g[r] == (0 if r in cone else 1)


def test_homogenized_exponents_unit_simplex():
    x = variety_from_points(SIMPLEX2)
    exps = [homogenized_exponent(x, SIMPLEX2, p) for p in SIMPLEX2]
    # the three points homogenize to the three variables
    assert sorted(exps) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    for e in exps:
        assert x.degree_of(e) == divisor_class(x, SIMPLEX2)


def test_sturmfels_variety_matches_published_rays():
    prob = support_problem(STURMFELS_SUPPORTS)
    x = variety_of(prob)
    assert x.dim == 2
    assert set(x.rays) == set(STURMFELS_PAPER_RAYS)
    assert len(x.rays) == 8
    assert len(x.max_cones) == 8
    assert x.class_rank == 6
    assert x.torsion == ()


def test_space_example_variety():
    prob = support_problem(M33_SUPPORTS)
    x = variety_of(prob)
    assert x.dim == 3
    assert x.n_rays == 7
    assert x.class_rank == 4
    assert x.torsion == ()


# sha256 prefix of repr((rays, max_cones, grading, torsion)) of each variety
LATTICE_PINS = {
    "squares": "1726ff278cdd94ef",
    "sturmfels": "943f6a9cf34e8d7c",
    "m33": "6b174daf25a05ebf",
    "m34 k=1": "361530ac2069d9e3",
}


def test_lattice_data_match_their_pins():
    """The fan, the class-group grading and the torsion, frozen: a Smith
    form whose transforms move changes the grading, and fails here by the
    variety's name."""
    supports = {"squares": (((0, 0), (1, 0), (0, 1), (1, 1)),) * 3,
                "sturmfels": STURMFELS_SUPPORTS, "m33": M33_SUPPORTS,
                "m34 k=1": m34_supports(1)}
    for name, sup in supports.items():
        x = variety_of(support_problem(sup))
        data = repr((x.rays, x.max_cones, x.grading, x.torsion)).encode()
        assert hashlib.sha256(data).hexdigest()[:16] == LATTICE_PINS[name], name


def test_a_torsion_class_group_is_refused():
    """The triangle's fan has class group Z + Z/2; the degree fibers, and so
    the resultant, refuse it."""
    from toricres.resultant import a_resultant

    tri = ((0, 0), (0, 2), (2, 1))
    assert variety_from_points(tri).torsion == (2,)
    with pytest.raises(UnsupportedGeometryError, match="torsion"):
        a_resultant(support_problem([tri] * 3))


def test_minkowski_points():
    pts = minkowski_points((((0,), (1,)), ((0,), (2,))))
    assert pts == [(0,), (1,), (2,), (3,)]


def test_codimension_values():
    assert codimension(STURMFELS_SUPPORTS) == 1
    assert codimension(M33_SUPPORTS) == 1
    assert codimension((((0, 0), (1, 0), (0, 1)),) * 3) == 1
    # three univariate supports: one too many equations
    assert codimension((((0,), (1,)),) * 3) == 2


def test_degenerate_span_rejected():
    for points in ([(3,)], [(0, 0), (1, 1), (2, 2)],
                   [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 0)]):
        with pytest.raises(UnsupportedGeometryError, match="do not span"):
            facet_normals(points)
        with pytest.raises(UnsupportedGeometryError, match="do not span"):
            variety_from_points(points)


@st.composite
def _point_sets(draw):
    """2-10 distinct points in a small box of dimension 1-4 (at most 8 in
    4D, where the reference tries every 4-subset); many are coplanar, and
    some do not span."""
    dim = draw(st.integers(min_value=1, max_value=4))
    coord = st.integers(min_value=-2, max_value=2)
    return draw(st.lists(st.tuples(*[coord] * dim), min_size=2,
                         max_size=8 if dim == 4 else 10, unique=True))


@given(_point_sets())
@settings(max_examples=150, deadline=None)
@example(list(itertools.product(range(3), repeat=1))).via("the segment [0, 2]")
@example(list(itertools.product(range(3), repeat=2))).via("the 3 x 3 grid")
@example(list(itertools.product(range(3), repeat=3))).via("the 3 x 3 x 3 box")
@example(list(itertools.product(range(2), repeat=4))).via("the 4-cube")
@example([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
          (1, 1, 1, 1), (2, 0, 0, 0)]).via("a 4D simplex with two more points")
def test_facets_and_max_cones_match_the_brute_force_reference(points):
    dim = len(points[0])
    if int_rank([[a - b for a, b in zip(p, points[0])] for p in points]) < dim:
        with pytest.raises(UnsupportedGeometryError):
            facet_normals(points)
        return
    facets = facet_normals(points)
    assert facets == facets_by_brute_force(points)
    x = variety_from_points(points)
    assert x.rays == tuple(u for u, _ in facets)
    assert x.max_cones == max_cones_by_rank(points, x.rays)


def test_facets_of_the_4d_box_of_side_two():
    """Eight facets, each holding the 27 points of a 3D face; the max cones
    are the 16 corners, each meeting four facets."""
    pts = sorted(itertools.product(range(3), repeat=4))
    facets = facet_normals(pts)
    units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
    assert [u for u, _ in facets] == sorted(units + [tuple(-v for v in e) for e in units])
    for u, mask in facets:
        i = next(i for i, v in enumerate(u) if v)
        side = 0 if u[i] > 0 else 2
        assert mask == sum(1 << k for k, p in enumerate(pts) if p[i] == side)
    x = variety_from_points(pts)
    assert len(x.max_cones) == 16 and {len(c) for c in x.max_cones} == {4}


def test_projective_four_space_fan():
    x = variety_from_simplex(4)
    assert x.dim == 4 and x.n_rays == 5 and len(x.max_cones) == 5
    assert x.class_rank == 1 and x.torsion == ()
    assert sorted(x.max_cones) == sorted(itertools.combinations(range(5), 4))


def test_zero_length_support_points_are_an_input_error():
    with pytest.raises(InputError, match="at least one coordinate"):
        support_problem([[()]])
    with pytest.raises(InputError):
        facet_normals([()])


def test_primitive_of_the_zero_vector_is_a_math_failure():
    assert toric._primitive((4, -6, 2)) == (2, -3, 1)
    with pytest.raises(MathFailure, match="zero vector"):
        toric._primitive((0, 0, 0))


def test_lattice_points_projective_plane():
    x = variety_from_points(SIMPLEX2)
    alpha = x.degree_of([2, 0, 0])
    pts = lattice_points_in_window(x, alpha, (0, 0, 0))
    assert len(pts) == 6
    for u in pts:
        assert x.degree_of(u) == alpha
        assert all(c >= 0 for c in u)
    pts = lattice_points_in_window(x, alpha, (-1, -1, -1))
    assert len(pts) == 21
    # window around an unreachable class stays empty
    assert lattice_points_in_window(x, alpha, (3, 3, 3)) == []


def _window_box(x, alpha, lower):
    """A priori ranges holding every w >= lower of degree alpha.  For a
    functional phi positive on every ray class, phi(deg e_r) * (w_r -
    lower_r) <= phi(alpha) - phi(deg lower); take the least such bound."""
    hi = [None] * x.n_rays
    for phi in itertools.product(range(-3, 4), repeat=x.class_rank):
        wts = [sum(p * g for p, g in zip(phi, row)) for row in x.grading]
        if all(v > 0 for v in wts):
            slack = (sum(p * a for p, a in zip(phi, alpha))
                     - sum(v * lo for v, lo in zip(wts, lower)))
            hi = [b if h is None else min(h, b)
                  for h, b in zip(hi, (lo + slack // v for lo, v in zip(lower, wts)))]
    assert None not in hi, "no positive functional found"
    return [range(lo, h + 1) for lo, h in zip(lower, hi)]


@pytest.mark.parametrize("points", [
    SIMPLEX2,
    ((0, 0), (1, 0), (0, 1), (1, 1)),
    ((0, 0), (1, 0), (0, 1), (2, 2)),
    ((0, 0), (1, 0), (2, 1), (1, 2), (0, 1)),
    ((0,), (3,)),
])
def test_lattice_points_match_brute_force_in_a_box(points):
    x = variety_from_points(points)
    lowers = [(0,) * x.n_rays, (-1,) * x.n_rays,
              tuple((-1) ** r * (r % 3) for r in range(x.n_rays))]
    for u in itertools.product(range(-1, 2), repeat=x.n_rays):
        alpha = x.degree_of(u)
        for lower in lowers:
            brute = [w for w in itertools.product(*_window_box(x, alpha, lower))
                     if x.degree_of(w) == alpha]
            assert lattice_points_in_window(x, alpha, lower) == brute


@st.composite
def _boxed_fibers(draw):
    """(u0, kernel, mix, bounds, box) for m = 1, 2 or 3 kernel vectors.  The
    first 2m coordinates are t_i and -t_i, one-sided bounds that keep t in
    box (an empty range when some hi < lo, a single point when lo = hi);
    1-3 more coordinates get random kernel entries and bounds of either
    sign.  mix is a unimodular m x m matrix, a product of elementary row
    operations."""
    m = draw(st.integers(min_value=1, max_value=3))
    small = st.integers(min_value=-2, max_value=2)
    box = []
    for _ in range(m):
        lo = draw(small)
        box.append((lo, lo + draw(st.integers(min_value=-1, max_value=2))))
    cols, bounds, u0 = [], [], []
    for i, (lo, hi) in enumerate(box):
        unit = tuple(int(i == j) for j in range(m))
        for s, bound in ((1, lo), (-1, -hi)):   # t_i >= lo, -t_i >= -hi
            c = draw(small)
            if draw(st.booleans()):   # the coordinate is -t_i, its bound negated
                cols.append(tuple(-v for v in unit))
                bounds.append((-s, bound - s * c))
            else:
                cols.append(unit)
                bounds.append((s, bound + s * c))
            u0.append(c)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        cols.append(tuple(draw(small) for _ in range(m)))
        bounds.append((draw(st.sampled_from((1, -1))), draw(st.integers(-4, 4))))
        u0.append(draw(small))
    kernel = [tuple(col[i] for col in cols) for i in range(m)]
    mix = [[int(i == j) for j in range(m)] for i in range(m)]
    for _ in range(draw(st.integers(min_value=0, max_value=4)) if m > 1 else 0):
        i, j = draw(st.permutations(range(m)))[:2]
        k = draw(st.sampled_from((-2, -1, 1, 2)))
        mix[i] = [a + k * b for a, b in zip(mix[i], mix[j])]
    return tuple(u0), kernel, mix, bounds, box


@given(_boxed_fibers())
@settings(max_examples=200, deadline=None)
@example(((0, 0, 0, 0, 5), [(1, -1, 0, 0, 1), (0, 0, 1, -1, 1)], [[1, 1], [0, 1]],
          [(1, 0), (1, -1), (1, 1), (1, 0), (1, 0)], [(0, 1), (1, 0)])).via("an empty box")
@example(((0,) * 7, [(1, -1, 0, 0, 0, 0, 1), (0, 0, 1, -1, 0, 0, 1), (0, 0, 0, 0, 1, -1, 1)],
          [[1, 0, 0], [2, 1, 0], [0, -1, 1]],
          [(1, 1), (1, -1), (1, 0), (1, 0), (1, -2), (1, 2), (-1, -3)],
          [(1, 1), (0, 0), (-2, -2)])).via("a single point")
def test_fiber_points_match_brute_force_over_the_box(fiber):
    u0, kernel, mix, bounds, box = fiber

    def point(t):
        return tuple(u + sum(ti * k[rho] for ti, k in zip(t, kernel))
                     for rho, u in enumerate(u0))

    brute = [w for w in map(point, itertools.product(*(range(lo, hi + 1) for lo, hi in box)))
             if all(s * v >= b for v, (s, b) in zip(w, bounds))]
    # increasing t is the product order of the box
    assert toric.fiber_points(u0, kernel, bounds) == brute
    # a unimodular change of kernel basis keeps the set of points
    mixed = [tuple(sum(c * k[rho] for c, k in zip(row, kernel)) for rho in range(len(u0)))
             for row in mix]
    assert sorted(toric.fiber_points(u0, mixed, bounds)) == sorted(brute)


def test_lattice_points_interval():
    x = variety_from_points(((0,), (3,)))
    alpha = x.degree_of([1, 2])
    pts = lattice_points_in_window(x, alpha, (0, 0))
    assert len(pts) == 4  # monomials of degree 3 in two variables
    assert lattice_points_in_window(x, alpha, (-2, -2)) != []


small_support = st.lists(
    st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
    min_size=3, max_size=5, unique=True,
)


@given(small_support)
@settings(max_examples=40, deadline=None)
def test_variety_invariants_random(points):
    try:
        x = variety_from_points(tuple(points))
    except UnsupportedGeometryError:
        return  # collinear draw
    # grading annihilates every ray direction
    for k in range(x.dim):
        vec = [x.rays[r][k] for r in range(x.n_rays)]
        assert x.degree_of(vec) == (0,) * x.class_rank
    assert len(x.max_cones) >= 3
    assert x.class_rank == x.n_rays - x.dim
    for cone in x.max_cones:
        assert len(cone) >= x.dim


@given(small_support)
@settings(max_examples=20, deadline=None)
def test_homogenization_lands_in_divisor_class(points):
    try:
        x = variety_from_points(tuple(points))
    except UnsupportedGeometryError:
        return
    sup = tuple(points)
    cls = divisor_class(x, sup)
    for p in sup:
        e = homogenized_exponent(x, sup, p)
        assert all(c >= 0 for c in e)
        assert x.degree_of(e) == cls


def test_non_integer_support_point_is_an_input_error():
    for bad in ([[(0.5,), (1.9,)], [(0,), (1,)]], [[("a",)]], [[0, 1]]):
        with pytest.raises(InputError, match="integer vectors"):
            support_problem(bad)


@pytest.mark.parametrize("label", [1, "a 1", "a^2", "a\n", ""])
def test_a_coefficient_label_that_is_not_a_name_is_an_input_error(label):
    """A label must read back through poly_from_text; otherwise to_obj()
    and repr(delta) of a finished resultant raise TypeError."""
    sup = [[(0,), (1,)], [(0,), (1,)]]
    with pytest.raises(InputError, match="not a name"):
        support_problem(sup, labels=[[label, "a1"], ["b0", "b1"]])
    assert support_problem(sup, labels=[["_a0", "A1"], ["b0", "b_1"]])


def test_empty_point_set_is_an_input_error():
    with pytest.raises(InputError):
        variety_from_points([])


def test_point_outside_the_support_is_an_input_error():
    x = variety_from_points(SIMPLEX2)
    with pytest.raises(InputError):
        homogenized_exponent(x, SIMPLEX2, (2, 2))


def test_kernel_rank_mismatch_is_unsupported_geometry():
    # a grading of rank 2 on three rays leaves a rank-1 kernel, not dim 2
    bad = ToricVariety(dim=2, rays=((1, 0), (0, 1), (-1, -1)),
                       max_cones=((0, 1), (0, 2), (1, 2)),
                       grading=((1, 0), (0, 1), (0, 0)))
    with pytest.raises(UnsupportedGeometryError):
        lattice_points_in_window(bad, (0, 0), (0, 0, 0))


FIXTURE_VARIETIES = {
    "P1": lambda: variety_from_points(((0,), (1,))),
    "P2": lambda: variety_from_points(SIMPLEX2),
    "P3": lambda: variety_from_points(((0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1))),
    "P1P1": lambda: variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1))),
    "sturmfels": lambda: variety_of(support_problem(STURMFELS_SUPPORTS)),
    "m33": lambda: variety_of(support_problem(M33_SUPPORTS)),
    "m34_1": lambda: variety_of(support_problem(m34_supports(1))),
    "m34_8": lambda: variety_of(support_problem(m34_supports(8))),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_VARIETIES))
def test_degree_fiber_matches_solve_int_and_kernel_reference(name):
    """degree_fiber solves every target from one Smith form per variety; the
    reference solves each target from scratch.  The doubled grading's first
    class coordinate is even on every exponent, so an odd one has no
    solution."""
    x = FIXTURE_VARIETIES[name]()
    doubled = dataclasses.replace(
        x, grading=tuple((2 * g[0],) + g[1:] for g in x.grading))
    draw = random.Random(7)
    targets = [tuple(draw.randint(-6, 6) for _ in range(x.class_rank)) for _ in range(24)]
    unsolvable = 0
    for y in (x, doubled):
        g_rows = [[g[i] for g in y.grading] for i in range(y.class_rank)]
        kernel = tuple(tuple(k) for k in int_kernel_basis(g_rows))
        for t in targets:
            u0 = solve_int(g_rows, list(t))
            want = (tuple(u0) if u0 is not None else None), kernel
            assert degree_fiber(y, t) == want, (y, t)
            unsolvable += u0 is None
    assert unsolvable >= 10


def test_equal_varieties_built_separately_share_hash_and_memo_entries():
    from toricres import cech

    a = variety_of(support_problem(STURMFELS_SUPPORTS))
    b = variety_of(support_problem(STURMFELS_SUPPORTS))
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a) == hash((a.dim, a.rays, a.max_cones, a.grading, a.torsion))
    assert a != dataclasses.replace(a, torsion=(2,))
    w = tuple(-1 if rho in (0, 2) else 0 for rho in range(a.n_rays))
    cech.family_certs(a, w)
    degree_fiber(a, (0,) * a.class_rank)
    before = (cech.family_certs.cache_info(), degree_fiber.cache_info())
    assert cech.pattern_table(b) is cech.pattern_table(a)
    assert cech.family_certs(b, w) is cech.family_certs(a, w)
    assert degree_fiber(b, (0,) * b.class_rank) == degree_fiber(a, (0,) * a.class_rank)
    after = (cech.family_certs.cache_info(), degree_fiber.cache_info())
    # the family memo, a pattern table per variety, counts no hits: both
    # lookups found the family without building it
    assert (after[0].misses, after[0].currsize) == (before[0].misses, before[0].currsize)
    assert (after[1].hits, after[1].misses, after[1].currsize) == \
        (before[1].hits + 2, before[1].misses, before[1].currsize)


def test_variety_of_is_built_once_per_problem_instance(monkeypatch):
    prob = support_problem(STURMFELS_SUPPORTS)
    builds = []
    build = toric.variety_from_points
    monkeypatch.setattr(toric, "variety_from_points",
                        lambda pts: builds.append(pts) or build(pts))
    x = variety_of(prob)
    assert variety_of(prob) is x and len(builds) == 1
    again = dataclasses.replace(prob)
    assert again == prob
    y = variety_of(again)
    assert len(builds) == 2 and y is not x and y == x
    assert variety_of(again) is y and variety_of(prob) is x
