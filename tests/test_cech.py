from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers_cohomology import bott_pn, cls_of_degree, kunneth_p1p1, p1p1_class
from helpers_reference import (
    by_cell,
    by_degree,
    by_position,
    by_position_entries,
    expanded_certs,
    family_block,
    family_rank_dims,
    family_sigma,
    generator_subsets,
    pattern_certs,
    pattern_family,
    rank_dims,
    ray_circuits_by_smith,
    retract_identity_failures,
    stabilization_level,
    strand_blocks,
    strand_dims,
    subset_mask,
    support_patterns,
)
from toricres import cech
from toricres.cech import cech_depth
from toricres.errors import MathFailure
from toricres.qlinalg import cnorm
from toricres.toric import variety_from_points, variety_from_simplex


P2 = variety_from_simplex(2)
P1 = variety_from_simplex(1)
P1P1 = variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1)))


def test_cech_depth():
    assert cech_depth(P1) == 1
    assert cech_depth(P2) == 2
    assert cech_depth(P1P1) == 3


@pytest.mark.parametrize("a", list(range(-6, 7)))
def test_p2_strand_dims_match_closed_form(a):
    alpha = cls_of_degree(P2, a)
    e = stabilization_level(P2, alpha)
    dims = strand_dims(P2, alpha, e)
    assert list(dims[:3]) == bott_pn(2, -a)
    # one level up the dimensions must not move
    bigger = strand_dims(P2, alpha, tuple(c + 1 for c in e))
    assert bigger[:3] == dims[:3]


@pytest.mark.parametrize("a", list(range(-6, 7)))
def test_p1_strand_dims_match_closed_form(a):
    alpha = cls_of_degree(P1, a)
    dims = strand_dims(P1, alpha, stabilization_level(P1, alpha))
    assert list(dims[:2]) == bott_pn(1, -a)


@pytest.mark.parametrize("bi", [(0, 0), (1, 2), (-2, 1), (2, 3), (-2, -3), (-1, -1)])
def test_p1p1_strand_dims_match_kunneth(bi):
    d1, d2 = bi
    alpha = p1p1_class(P1P1, d1, d2)
    dims = strand_dims(P1P1, alpha, stabilization_level(P1P1, alpha))
    assert list(dims[:3]) == kunneth_p1p1(-d1, -d2)


def test_stabilization_level_projective_plane():
    assert stabilization_level(P2, cls_of_degree(P2, 3)) == (1, 1, 1)
    assert stabilization_level(P2, cls_of_degree(P2, 0)) == (0, 0, 0)
    # section-only classes need no negative exponents at all
    assert stabilization_level(P2, cls_of_degree(P2, -2)) == (0, 0, 0)
    # deepest top-cohomology monomial of degree -a is (-1, -1, -(a - 2))
    assert stabilization_level(P2, cls_of_degree(P2, 4)) == (2, 2, 2)
    assert stabilization_level(P2, cls_of_degree(P2, 6)) == (4, 4, 4)


def _checked_strand_dims(x, alpha, e):
    """Model dimensions of the strand at level e from the certificates of its
    blocks, each distinct block family checked against the retract
    identities; they must equal the rank-only strand_dims."""
    depth, blocks = strand_blocks(x, alpha, e)
    dims = [0] * (depth + 1)
    checked = set()
    for w, fam in blocks:
        sigma = family_sigma(fam, depth + 1)
        c = cech.FamilyCerts(sigma, depth + 1)
        if fam not in checked:
            per_q, entries, *red = expanded_certs(c, sigma)
            assert per_q == by_degree(fam, depth + 1)
            assert retract_identity_failures(per_q, entries, *red) == [], w
            checked.add(fam)
        for q, d in enumerate(c.dims):
            dims[q] += d
    assert tuple(dims) == strand_dims(x, alpha, e)
    return tuple(dims)


def test_reduced_strand_invariants_p2():
    for a in (0, 1, 3, 4, -2):
        alpha = cls_of_degree(P2, a)
        dims = _checked_strand_dims(P2, alpha, stabilization_level(P2, alpha))
        assert list(dims[:3]) == bott_pn(2, -a)


def test_reduced_strand_invariants_larger_level():
    # past the exact level, and with blocks truncated below their depth
    dims = _checked_strand_dims(P2, cls_of_degree(P2, 4), (2, 2, 2))
    assert list(dims[:3]) == bott_pn(2, -4)
    dims = _checked_strand_dims(P2, cls_of_degree(P2, 6), (2, 2, 2))
    assert dims[2] < bott_pn(2, -6)[2]


def test_reduced_strand_empty():
    assert strand_blocks(P2, cls_of_degree(P2, 1), (0, 0, 0)) == (2, [])
    assert _checked_strand_dims(P2, cls_of_degree(P2, 1), (0, 0, 0)) == (0, 0, 0)


def test_strand_determinism():
    depth, blocks = strand_blocks(P2, cls_of_degree(P2, 3), (1, 1, 1))
    assert blocks
    pers = [by_degree(fam, depth + 1) for _, fam in blocks]
    first = [cech._reduce_block(per_q, by_cell(per_q, family_block(per_q))) for per_q in pers]
    again = [cech._reduce_block(per_q, by_cell(per_q, family_block(per_q))) for per_q in pers]
    assert first == again


def test_sturmfels_variety_strand_smoke():
    from helpers_examples import STURMFELS_SUPPORTS
    from toricres.toric import divisor_class, support_problem, variety_of

    prob = support_problem(STURMFELS_SUPPORTS)
    x = variety_of(prob)
    beta = divisor_class(x, prob.supports[0])
    # sections of the nef class: strand of -beta; 5 = lattice points of the
    # first support triangle, and no higher cohomology
    neg = tuple(-c for c in beta)
    assert _checked_strand_dims(x, neg, stabilization_level(x, neg))[:3] == (5, 0, 0)
    # dual orientation: only the top group survives, one interior point
    e = stabilization_level(x, beta)
    assert e == (5,) * 8
    assert _checked_strand_dims(x, beta, e)[:3] == (0, 0, 1)
    # dimensions hold still past the exact level
    assert strand_dims(x, beta, tuple(c + 1 for c in e))[:3] == (0, 0, 1)


# -- the pattern table and its points against a Fraction reference -------------

def _reference_families(x):
    """Every pattern's family, from intersections of cone frozensets."""
    subsets = generator_subsets(len(x.max_cones))
    cones = [frozenset(c) for c in x.max_cones]
    common = {T: frozenset.intersection(*(cones[j] for j in T)) for T in subsets}
    return {neg: tuple(T for T in subsets if not (set(neg) & common[T]))
            for neg in _all_patterns(x)}


def _reference_patterns(x):
    """The support pattern table with every rank taken over Q (QMatrix)."""
    depth = cech.cech_depth(x)
    q_top = min(x.dim, depth)
    out = {}
    for neg, fam in _reference_families(x).items():
        if not fam:
            continue
        dims = family_rank_dims(fam, depth + 1)
        if any(dims[:q_top + 1]):
            out[neg] = (fam, depth, dims)
    return out


def _reference_fiber_points(x, u0, kernel, neg):
    """Fiber points with w < 0 exactly on neg: Fourier-Motzkin over Fraction."""
    m = len(kernel)
    if m == 0:
        ok = all((u0[r] <= -1) == (r in neg) for r in range(x.n_rays))
        return [tuple(u0)] if ok else []
    rows = []
    for r in range(x.n_rays):
        c = tuple(Fraction(kernel[i][r]) for i in range(m))
        if r in neg:
            rows.append((tuple(-v for v in c), Fraction(1 + u0[r])))
        else:
            rows.append((c, Fraction(-u0[r])))
    systems = [rows]
    for var in range(m - 1, 0, -1):
        lowers = [(c, b) for c, b in systems[-1] if c[var] > 0]
        uppers = [(c, b) for c, b in systems[-1] if c[var] < 0]
        keep = [(c, b) for c, b in systems[-1] if not c[var]]
        for cl, bl in lowers:
            for cu, bu in uppers:
                wl, wu = -cu[var], cl[var]
                keep.append((tuple(wl * a + wu * b for a, b in zip(cl, cu)), wl * bl + wu * bu))
        if any(not any(c) and b > 0 for c, b in keep):
            return []
        systems.append([(c, b) for c, b in keep if any(c)])
    systems.reverse()
    out, point = [], [Fraction(0)] * m

    def walk(level):
        lo = hi = None
        for c, b in systems[level]:
            if c[level]:
                rest = b - sum(ci * ti for i, (ci, ti) in enumerate(zip(c, point))
                               if i != level and ci)
                bound = rest / c[level]
                if c[level] > 0:
                    lo = bound if lo is None else max(lo, bound)
                else:
                    hi = bound if hi is None else min(hi, bound)
        for t in range(math.ceil(lo), math.floor(hi) + 1):
            point[level] = Fraction(t)
            if level + 1 == m:
                out.append(tuple(u0[r] + sum(kernel[i][r] * int(point[i]) for i in range(m))
                                 for r in range(x.n_rays)))
            else:
                walk(level + 1)
        point[level] = Fraction(0)

    walk(0)
    return out


def _squares_variety():
    from toricres.toric import support_problem, variety_of
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    return variety_of(support_problem([sq] * 3))


def _sturmfels_variety():
    from helpers_examples import STURMFELS_SUPPORTS
    from toricres.toric import support_problem, variety_of
    return variety_of(support_problem(STURMFELS_SUPPORTS))


VARIETIES = {"P1": lambda: P1, "P2": lambda: P2, "P3": lambda: variety_from_simplex(3),
             "P1P1": lambda: P1P1, "squares": _squares_variety,
             "sturmfels": _sturmfels_variety}


def _all_patterns(x):
    return [tuple(r for r in range(x.n_rays) if bits >> r & 1)
            for bits in range(1 << x.n_rays)]


@pytest.mark.parametrize("name", sorted(VARIETIES))
def test_pattern_family_bitmasks_match_the_cone_intersections(name):
    x = VARIETIES[name]()
    # the max cones of a complete fan share no ray, so no pattern's family
    # is empty: each holds the subset of all generators
    top = tuple(range(len(x.max_cones)))
    for neg, fam in _reference_families(x).items():
        assert pattern_family(x, neg) == fam
        sigma = cech._sigma(x, neg)
        assert tuple(T for T in generator_subsets(len(top))
                     if subset_mask(T) not in sigma) == fam
        assert top in fam, neg


@pytest.mark.parametrize("name", ["P1", "P2", "P3", "P1P1", "squares", "sturmfels"])
def test_pattern_table_and_points_match_fraction_reference(name):
    from toricres import cech
    from toricres.toric import degree_fiber

    x = VARIETIES[name]()
    ref = _reference_patterns(x)
    assert support_patterns(x) == tuple(sorted(ref, key=lambda neg: sum(1 << r for r in neg)))
    # the certificates of every pattern, in the table or not, have the
    # Fraction reference's dims in every degree
    depth = cech.cech_depth(x)
    for neg in _all_patterns(x):
        want = family_rank_dims(pattern_family(x, neg), depth + 1)
        assert pattern_certs(x, neg).dims == want
    # classes: multiples of the anticanonical class and of each ray's class
    classes = {x.anticanonical_class()}
    for r in range(x.n_rays):
        unit = [0] * x.n_rays
        unit[r] = 1
        classes.add(x.degree_of(unit))
    for k in (-2, 0, 1, 2):
        for base in list(classes):
            classes.add(tuple(k * c for c in base))
    for alpha in sorted(classes):
        u0, kernel = degree_fiber(x, tuple(-a for a in alpha))
        want = sorted((w, neg) for neg in ref
                      for w in _reference_fiber_points(x, u0, kernel, set(neg)))
        assert list(cech.contributing_points(x, alpha)) == \
            [(w, pattern_certs(x, neg)) for w, neg in want]


# M33's pattern table as computed from the ranks of the full Cech families
M33_PATTERNS = (
    (), (0, 2), (3, 4), (0, 2, 3, 4), (1, 5), (2, 5), (0, 2, 5), (1, 2, 5),
    (1, 3, 4, 5), (2, 3, 4, 5), (0, 2, 3, 4, 5), (1, 2, 3, 4, 5), (0, 6), (1, 6),
    (0, 1, 6), (0, 2, 6), (0, 3, 4, 6), (1, 3, 4, 6), (0, 1, 3, 4, 6),
    (0, 2, 3, 4, 6), (1, 5, 6), (0, 1, 2, 5, 6), (1, 3, 4, 5, 6),
    (0, 1, 2, 3, 4, 5, 6),
)


def test_m33_pattern_table_is_frozen():
    from helpers_examples import m33_problem
    from toricres.toric import variety_of

    assert support_patterns(variety_of(m33_problem())) == M33_PATTERNS


# -- the ray-circuit screen against walking every pattern ------------------------

def _unscreened_points(x, alpha):
    """contributing_points without the circuit screen: walk every pattern of
    the eager table."""
    from toricres.toric import degree_fiber, fiber_points

    u0, kernel = degree_fiber(x, tuple(-a for a in alpha))
    pts = []
    if u0 is not None:
        for neg in support_patterns(x):
            signs = [(-1, 1) if rho in neg else (1, 0) for rho in range(x.n_rays)]
            pts.extend((w, pattern_certs(x, neg)) for w in fiber_points(u0, kernel, signs))
    return tuple(sorted(pts, key=lambda pt: pt[0]))


def _fixture_problem(name):
    import helpers_examples as ex
    return {"sturmfels": ex.sturmfels_problem, "m33": ex.m33_problem,
            "m34_1": lambda: ex.m34_problem(1),
            "m34_2": lambda: ex.m34_problem(2),
            "m34_8": lambda: ex.m34_problem(8)}[name]()


@pytest.mark.parametrize("name,multiples", [
    ("sturmfels", (2, 1, 0)), ("m33", (2, 1, 0)), ("m34_1", (2, 1, 0)),
    ("m34_2", (2, 1, 0)), ("m34_8", (2,)),
])
def test_screened_points_match_walking_every_pattern(name, multiples, monkeypatch):
    from toricres import cech, weyman
    from toricres.complexes import koszul_generic
    from toricres.toric import variety_of

    problem = _fixture_problem(name)
    x = variety_of(problem)
    K = koszul_generic(problem)
    asked = []

    def checked(x_, alpha):
        got = cech.contributing_points(x_, alpha)
        assert got == _unscreened_points(x_, alpha), alpha
        asked.append(alpha)
        return got

    monkeypatch.setattr(weyman, "contributing_points", checked)
    a = x.anticanonical_class()
    for k in multiples:   # the twists 2A, A and 0
        weyman.weyman_terms(K.twist(tuple(k * c for c in a)))
    assert len(asked) >= 8 * len(multiples)


def _apex_survivors(x, alpha):
    """The nonempty patterns that pass the circuit screen for alpha and whose
    rays share a max cone: the survivors contributing_points skips without
    reducing their family.  The screen is taken pattern by pattern over the
    Smith-form circuits, with no bitset."""
    from toricres.toric import degree_fiber

    u0, _ = degree_fiber(x, tuple(-a for a in alpha))
    if u0 is None:
        return set()
    circuits = ray_circuits_by_smith(x)
    out = set()
    for neg in _all_patterns(x)[1:]:
        b = subset_mask(neg)
        if not any(set(neg) <= set(cone) for cone in x.max_cones):
            continue
        if not any(negs & ~b == 0 and not pos & b
                   and sum(ai * ui for ai, ui in zip(a, u0)) < c
                   for a, pos, negs, c in circuits):
            out.add(neg)
    return out


@pytest.mark.parametrize("name,twist", [
    ("squares", "zero"), ("sturmfels", "unit"), ("sturmfels", "stable"), ("m33", "zero"),
])
def test_apex_skipped_survivors_carry_no_cohomology(name, twist):
    """A survivor whose rays share a max cone has a cone for Sigma, so its
    family is acyclic: each such family of the twisted Koszul complex's
    classes, reduced over Q, has every dim 0."""
    from toricres.complexes import koszul_generic
    from toricres.fixtures import sturmfels_twist
    from toricres.toric import support_problem, variety_of

    square = ((0, 0), (1, 0), (0, 1), (1, 1))
    problem = support_problem((square,) * 3) if name == "squares" else _fixture_problem(name)
    x = variety_of(problem)
    beta = (0,) * x.class_rank if twist == "zero" else sturmfels_twist(x, twist)
    C = koszul_generic(problem).twist(beta)
    skipped = set()
    for classes in C.degrees.values():
        for alpha in classes:
            skipped |= _apex_survivors(x, alpha)
    assert skipped   # not vacuous
    n = len(x.max_cones)
    for neg in skipped:
        assert family_rank_dims(pattern_family(x, neg), n) == (0,) * n, neg


@pytest.mark.parametrize("name", ["P1", "P2", "P1P1", "squares", "sturmfels", "m33", "m34_8"])
def test_ray_circuits_are_the_minimal_primitive_relations(name):
    from toricres import cech
    from toricres.qlinalg import int_rank
    from toricres.toric import degree_fiber, variety_of

    x = VARIETIES[name]() if name in VARIETIES else variety_of(_fixture_problem(name))
    n = x.n_rays
    _, kernel = degree_fiber(x, (0,) * x.class_rank)

    def rank(rays):
        return int_rank([list(x.rays[r]) for r in rays]) if rays else 0

    circuits = cech._ray_circuits(x)
    vectors = {a for a, _, _, _ in circuits}
    supports = set()
    for a, pos, negs, c in circuits:
        supp = [r for r in range(n) if a[r]]
        assert math.gcd(*a) == 1 and len(supp) <= x.dim + 1
        assert all(sum(a[r] * x.rays[r][i] for r in range(n)) == 0 for i in range(x.dim))
        assert all(sum(v * k[r] for r, v in enumerate(a)) == 0 for k in kernel)
        assert pos == sum(1 << r for r in supp if a[r] > 0)
        assert negs == sum(1 << r for r in supp if a[r] < 0)
        assert c == sum(-v for v in a if v < 0)
        assert tuple(-v for v in a) in vectors
        # no smaller relation on the support: every proper subset is independent
        assert rank(supp) == len(supp) - 1
        assert all(rank([s for s in supp if s != r]) == len(supp) - 1 for r in supp)
        supports.add(frozenset(supp))
    # and every minimal dependent set of rays is there, once in each sign
    want = set()
    for bits in range(1, 1 << n):
        S = [r for r in range(n) if bits >> r & 1]
        if rank(S) == len(S) - 1 and all(rank([s for s in S if s != r]) == len(S) - 1
                                         for r in S):
            want.add(frozenset(S))
    assert supports == want
    assert len(circuits) == len(vectors) == 2 * len(want)


@st.composite
def _ray_configurations(draw):
    """A variety presented by rays alone, in dimension 1-4: the unit
    vectors (so the rays span the lattice), then 1-5 more rays, each new
    from a small box or a multiple of one before it (parallel rays, so
    many subsets are rank deficient), in a random order.  The grading is
    the class-group presentation of variety_from_points; the cones are
    never read."""
    from toricres.qlinalg import smith_normal_form
    from toricres.toric import ToricVariety

    dim = draw(st.integers(min_value=1, max_value=4))
    rays = [tuple(int(i == j) for j in range(dim)) for i in range(dim)]
    new = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dim).filter(any)
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        if draw(st.booleans()):
            rays.append(draw(new))
        else:
            k = draw(st.sampled_from((-2, -1, 1, 2)))
            rays.append(tuple(k * c for c in draw(st.sampled_from(rays))))
    rays = draw(st.permutations(rays))
    _, left, _ = smith_normal_form([list(r) for r in rays])
    grading = tuple(tuple(row[r] for row in left[dim:]) for r in range(len(rays)))
    return ToricVariety(dim=dim, rays=tuple(rays), max_cones=(tuple(range(dim)),),
                        grading=grading)


@given(_ray_configurations())
@settings(max_examples=150, deadline=None)
def test_ray_circuits_match_the_smith_form_reference(x):
    from toricres import cech

    circuits = cech._ray_circuits(x)
    assert len(circuits) == len(set(circuits))
    assert frozenset(circuits) == ray_circuits_by_smith(x)
    # the two signs of a circuit are adjacent
    for (a, pos, negs, _), (b, b_pos, b_negs, _) in zip(circuits[::2], circuits[1::2]):
        assert b == tuple(-v for v in a) and (b_pos, b_negs) == (negs, pos)


@pytest.mark.parametrize("name", ["P1", "P2", "P1P1", "sturmfels", "m33", "m34_1"])
def test_circuit_pattern_bitsets_match_enumerating_the_patterns(name):
    from toricres import cech
    from toricres.toric import variety_of

    x = VARIETIES[name]() if name in VARIETIES else variety_of(_fixture_problem(name))
    bitsets = cech._circuit_patterns(x)
    assert len(bitsets) == len(cech._ray_circuits(x))
    for (_, pos, negs, _), got in zip(cech._ray_circuits(x), bitsets):
        want = sum(1 << bits for bits in range(1 << x.n_rays)
                   if negs & bits == negs and not pos & bits)
        assert got == want


def test_warm_sturmfels_walks_only_the_fibers_with_points(monkeypatch, built_families):
    from toricres import cech, resultant
    from helpers_examples import sturmfels_problem
    from toricres.fixtures import sturmfels_twist
    from toricres.toric import fiber_points, variety_of

    problem = sturmfels_problem()
    x = variety_of(problem)
    twists = [sturmfels_twist(x, which) for which in ("unit", "stable")]
    cech.clear_caches()   # memos empty: with nothing on disk, a warm process is a cold one
    walks = []

    def counted(u0, kernel, bounds):
        out = fiber_points(u0, kernel, bounds)
        walks.append(len(out))
        return out

    monkeypatch.setattr(cech, "fiber_points", counted)
    for tw in twists:
        resultant.a_resultant(problem, twist=tw)
    # 16 classes times 200 table patterns without the screen
    assert len(walks) == 13 and all(walks)
    # a family is built for each pattern that passes the screen and whose
    # rays share no max cone, as its dims size W, and for each pattern where
    # a walk chain lands; every walk chain holds generator 0, as the
    # certificates live on the critical cells
    assert len(built_families) == 39
    assert cech.cache_counters == {"memory": 0, "disk": 0, "built": 39}


def test_screening_the_sturmfels_classes_in_either_order_decides_the_same():
    """The pattern table decides each pattern once, for whichever class
    reaches it first: after clear_caches, which empties the tables,
    screening the 16 Koszul classes of the printed Sturmfels twists in
    forward and in reverse order gives the same points per class, builds
    the same number of families, and leaves the same decided and
    contributing bitsets."""
    from helpers_examples import sturmfels_problem
    from toricres.complexes import koszul_generic
    from toricres.fixtures import sturmfels_twist
    from toricres.toric import variety_of

    problem = sturmfels_problem()
    x = variety_of(problem)
    K = koszul_generic(problem)
    classes = [alpha for which in ("unit", "stable")
               for alphas in K.twist(sturmfels_twist(x, which)).degrees.values()
               for alpha in alphas]
    assert len(classes) == 16
    runs = []
    for order in (classes, classes[::-1]):
        cech.clear_caches()
        assert cech.family_certs.cache_info().currsize == 0
        # the families are rebuilt after clear_caches, so compare their contents
        points = [[(w, _certs_obj(c)) for w, c in cech.contributing_points(x, alpha)]
                  for alpha in order]
        table = cech.pattern_table(x)
        runs.append((dict(zip(order, points)), cech.cache_counters["built"],
                     table.decided, table.contributing))
    assert runs[0] == runs[1]
    _, built, decided, contributing = runs[0]
    # four patterns carry cohomology, and each was decided
    assert built and contributing.bit_count() == 4 and contributing & ~decided == 0


@st.composite
def _small_supports(draw):
    """n + 1 supports of 2-3 distinct points in [0, 3]^n, n = 1 or 2 (mostly
    2: a line has two rays and few patterns)."""
    n = draw(st.sampled_from((2, 1, 2, 2)))
    point = st.tuples(*[st.integers(min_value=0, max_value=3)] * n)
    return [draw(st.lists(point, min_size=2, max_size=3, unique=True)) for _ in range(n + 1)]


@given(_small_supports(), st.data())
@settings(max_examples=60, deadline=None)
def test_screened_points_match_walking_every_pattern_on_random_supports(supports, data):
    from toricres import cech
    from toricres.errors import UnsupportedGeometryError
    from toricres.toric import support_problem, variety_of

    try:
        x = variety_of(support_problem(supports))
    except UnsupportedGeometryError:
        assume(False)   # a flat Minkowski sum: no complete fan
    if x.torsion:
        with pytest.raises(UnsupportedGeometryError):
            cech.contributing_points(x, x.anticanonical_class())
        return
    box = st.lists(st.integers(min_value=-3, max_value=3),
                   min_size=x.n_rays, max_size=x.n_rays)
    classes = {x.degree_of(data.draw(box)) for _ in range(6)}
    classes.update(tuple(k * c for c in x.anticanonical_class()) for k in range(-2, 3))
    for alpha in sorted(classes):
        assert cech.contributing_points(x, alpha) == _unscreened_points(x, alpha)


# -- the block reduction against the full-rescan reduction ---------------------

def _reference_reduce_block(per_q: list[list[tuple[int, ...]]],
                            entries: list[dict[tuple[int, int], int]]):
    """The block reduction over Q with a full rescan of every nonzero per
    pivot, a non-unit pivot taken like any other: the reduction, and its
    pivots in the order taken."""
    depth1 = len(per_q)
    sizes = [len(v) for v in per_q]
    active = [set(range(s)) for s in sizes]
    # d[q]: row -> {col: coeff}
    d = [dict() for _ in range(depth1 - 1)]
    for q, ent in enumerate(entries):
        dq = d[q]
        for (i, j), c in ent.items():
            dq.setdefault(i, {})[j] = c
    iota = [{i: {i: 1} for i in range(s)} for s in sizes]   # model row -> chain covector
    rho = [{i: {i: 1} for i in range(s)} for s in sizes]    # model col -> chain vector
    h = [dict() for _ in range(depth1 - 1)]                 # chain(q+1) -> {chain(q): c}
    pivots = []

    def pick_pivot():
        best = None
        for q in range(depth1 - 1):
            for i, row in d[q].items():
                for j, a in row.items():
                    cand = (0 if abs(a) == 1 else 1, len(row) - 1, q, i, j, a)
                    if best is None or cand[:5] < best[:5]:
                        best = cand
        return best

    while True:
        piv = pick_pivot()
        if piv is None:
            break
        _, _, q, pi, pj, a = piv
        pivots.append(a)
        inv_a = Fraction(1, 1) / Fraction(a)
        row_piv = d[q].get(pi, {})
        col_entries = [(i, r[pj]) for i, r in d[q].items() if pj in r and i != pi]
        row_entries = [(j, c) for j, c in row_piv.items() if j != pj]

        iota_piv = iota[q][pi]
        rho_piv = rho[q + 1][pj]

        # homotopy gains 1/a * (rho column at pivot) x (iota row at pivot)
        hq = h[q]
        for c1, v1 in rho_piv.items():
            dst = hq.setdefault(c1, {})
            for c0, v0 in iota_piv.items():
                s = dst.get(c0, 0) + v1 * v0 * inv_a
                if s:
                    dst[c0] = cnorm(s)
                else:
                    del dst[c0]
            if not dst:
                del hq[c1]

        # iota rows at q: subtract (C/a) * pivot row
        for i, cval in col_entries:
            f = cval * inv_a
            tgt = iota[q][i]
            for c0, v0 in iota_piv.items():
                s = tgt.get(c0, 0) - f * v0
                if s:
                    tgt[c0] = cnorm(s)
                else:
                    tgt.pop(c0, None)
        # rho columns at q+1: subtract (B/a) * pivot column
        for j, bval in row_entries:
            f = bval * inv_a
            tgt = rho[q + 1][j]
            for c1, v1 in rho_piv.items():
                s = tgt.get(c1, 0) - f * v1
                if s:
                    tgt[c1] = cnorm(s)
                else:
                    tgt.pop(c1, None)

        # Schur complement on d[q]
        for i, cval in col_entries:
            fi = cval * inv_a
            ri = d[q].setdefault(i, {})
            for j, bval in row_entries:
                s = ri.get(j, 0) - fi * bval
                if s:
                    ri[j] = cnorm(s)
                else:
                    ri.pop(j, None)
            if not ri:
                del d[q][i]

        # drop pivot row/col everywhere
        active[q].discard(pi)
        active[q + 1].discard(pj)
        iota[q].pop(pi, None)
        rho[q].pop(pi, None)
        iota[q + 1].pop(pj, None)
        rho[q + 1].pop(pj, None)
        d[q].pop(pi, None)
        for i in list(d[q]):
            d[q][i].pop(pj, None)
            if not d[q][i]:
                del d[q][i]
        if q + 1 < depth1 - 1:
            d[q + 1].pop(pj, None)
        if q - 1 >= 0:
            for i in list(d[q - 1]):
                d[q - 1][i].pop(pi, None)
                if not d[q - 1][i]:
                    del d[q - 1][i]

    return (active, iota, rho, h), pivots


def _assert_every_certificate_value_is_an_int(red):
    values = [v for certs in red[1:] for level in certs
              for row in level.values() for v in row.values()]
    assert all(type(v) is int for v in values)


def _check_against_reference(per_q, entries) -> bool:
    """_reduce_block against the rescan reference: where every pivot the
    reference takes is +-1 the two reductions are equal, with integer
    certificates, and the result is True; otherwise _reduce_block refuses
    the block, and the result is False.  _reduce_block keys its entries
    and its reduction by cell, the reference by position."""
    want, pivots = _reference_reduce_block(per_q, entries)
    if all(a in (1, -1) for a in pivots):
        got = by_position(per_q, cech._reduce_block(per_q, by_cell(per_q, entries)))
        assert got == want
        _assert_every_certificate_value_is_an_int(got)
        return True
    with pytest.raises(MathFailure, match="no unit pivot"):
        cech._reduce_block(per_q, by_cell(per_q, entries))
    return False


@pytest.mark.parametrize("name", ["P2", "P1P1", "squares", "sturmfels"])
def test_block_reduction_matches_full_rescan_reference(name):
    """Every pattern family of the fixtures, reduced whole, pivots on units
    alone."""
    x = VARIETIES[name]()
    depth = cech.cech_depth(x)
    fams = {pattern_family(x, neg) for neg in _all_patterns(x)}
    for fam in sorted(fams):
        if fam:
            per_q = by_degree(fam, depth + 1)
            assert _check_against_reference(per_q, family_block(per_q))


def test_block_reduction_matches_full_rescan_reference_on_m33_critical_cells(monkeypatch):
    """The blocks production reduces: the critical cells of every M33
    family, as FamilyCerts builds them, up to 64 cells."""
    from toricres.toric import variety_of

    x = variety_of(_fixture_problem("m33"))
    reduce_block = cech._reduce_block
    sizes = []

    def checked(per_q, entries):
        got = reduce_block(per_q, entries)
        want, pivots = _reference_reduce_block(per_q, by_position_entries(per_q, entries))
        assert by_position(per_q, got) == want and all(a in (1, -1) for a in pivots)
        _assert_every_certificate_value_is_an_int(by_position(per_q, got))
        sizes.append(sum(map(len, per_q)))
        return got

    monkeypatch.setattr(cech, "_reduce_block", checked)
    for sigma in sorted({cech._sigma(x, neg) for neg in _all_patterns(x)}, key=sorted):
        cech.FamilyCerts(sigma, len(x.max_cones))
    assert max(sizes) == 64


@pytest.mark.parametrize("order", ["sorted", "reversed"])
@pytest.mark.parametrize("name", ["P2", "P1P1", "squares", "sturmfels"])
def test_every_pattern_family_satisfies_the_retract_identities(name, order, request):
    if order == "reversed":
        request.getfixturevalue("reversed_subset_order")
    x = VARIETIES[name]()
    n = len(x.max_cones)
    for neg in _all_patterns(x):
        fam = pattern_family(x, neg)
        per_q = by_degree(fam, n)
        if order == "reversed":
            per_q = [level[::-1] for level in per_q]
        entries = family_block(per_q)
        want = family_rank_dims(fam, n)
        # the whole family by block reduction
        red = by_position(per_q, cech._reduce_block(per_q, by_cell(per_q, entries)))
        assert retract_identity_failures(per_q, entries, *red) == [], neg
        assert tuple(map(len, red[0])) == want
        # the production reduction, on the critical cells of Sigma alone
        per_q, entries, *red = expanded_certs(pattern_certs(x, neg), cech._sigma(x, neg))
        assert per_q == by_degree(fam, n)
        assert retract_identity_failures(per_q, entries, *red) == [], neg
        assert tuple(map(len, red[0])) == want


@st.composite
def _random_sigmas(draw):
    """A downward-closed Sigma on 1-6 generators, the subsets of a few drawn
    facets, with the number of generators: its family, every nonempty
    subset outside it, is a random upward-closed family."""
    n = draw(st.integers(min_value=1, max_value=6))
    facets = draw(st.lists(st.sampled_from(generator_subsets(n)), max_size=6))
    return frozenset(subset_mask(T) for T in generator_subsets(n)
                     if any(set(f).issuperset(T) for f in facets)), n


@given(_random_sigmas())
@settings(max_examples=200, deadline=None)
def test_cone_reduction_of_random_upward_closed_families(drawn):
    sigma, n = drawn
    c = cech.FamilyCerts(sigma, n)
    per_q, entries, *red = expanded_certs(c, sigma)
    assert retract_identity_failures(per_q, entries, *red) == []
    assert c.dims == tuple(map(len, red[0])) == rank_dims(per_q, entries)
    _assert_every_certificate_value_is_an_int(red)


def test_cone_reduction_rejects_a_family_not_closed_under_generator_0():
    # the family {{1}} on two generators: Sigma holds {0, 1} but not {1}
    with pytest.raises(MathFailure):
        cech.FamilyCerts(frozenset({0b01, 0b11}), 2)


@pytest.mark.parametrize("name", ["sturmfels", "m33"])
def test_every_certificate_chain_is_a_critical_cell(name):
    """The certificates live on the critical cells K of the cone-point
    matching: in the family of every pattern, which includes every family a
    walk reaches, each chain of an iota row, a rho_t key and an h row, key
    or value, is a family member that holds generator 0, with T - {0} empty
    or in Sigma."""
    from toricres.toric import variety_of

    x = variety_of(_fixture_problem(name))
    seen = 0
    for neg in _all_patterns(x):
        sigma = cech._sigma(x, neg)
        c = pattern_certs(x, neg)
        chains = {T for level in c.iota for row in level for T in row}
        chains.update(T for level in c.rho_t for T in level)
        for level in c.h:
            for T, row in level.items():
                chains.add(T)
                chains.update(row)
        assert all(T & 1 and T not in sigma and (T == 1 or T ^ 1 in sigma)
                   for T in chains), neg
        seen += bool(chains)
    assert seen


def test_models_keep_the_order_the_reduction_saw_them():
    """Two degree-2 models whose lex order, the order of K's cells, is not
    their bitmask order: {0, 2, 6} before {0, 4, 5}."""
    sigma = cech._down_closure([18, 34, 52, 70])
    c = cech.FamilyCerts(sigma, 7)
    assert c.dims == (0, 0, 2, 0, 0, 0, 0)
    assert c.active[2] == [0b1000101, 0b0110001]
    assert retract_identity_failures(*expanded_certs(c, sigma)) == []


_SIZES = st.lists(st.integers(min_value=1, max_value=8), min_size=2, max_size=4)
_ENTRY = st.sampled_from([0, 0, 0, 0, 0, 1, -1, 1, -1, 2, -3])


def _block(sizes, entries):
    return [[(q, i) for i in range(n)] for q, n in enumerate(sizes)], entries


@st.composite
def _random_blocks(draw):
    """Blocks of random sparse integer maps (not complexes): many run out of
    unit pivots, which _reduce_block refuses."""
    sizes = draw(_SIZES)
    entries = []
    for q in range(len(sizes) - 1):
        cells = [(i, j) for i in range(sizes[q]) for j in range(sizes[q + 1])]
        values = draw(st.lists(_ENTRY, min_size=len(cells), max_size=len(cells)))
        entries.append({ij: v for ij, v in zip(cells, values) if v})
    return _block(sizes, entries)


@given(_random_blocks())
@settings(max_examples=200, deadline=None)
# a row grows under a pivot while the entry of its old key is still a unit:
# the key's stale fill must not let that entry pivot early.  This example and
# the next take two unit pivots and then need a non-unit one (6, then 5), so
# both are refused
@example(_block([4, 5], [{(0, 2): 2, (0, 3): -1, (0, 4): 1, (1, 0): 2, (1, 1): 2,
                          (1, 2): 2, (1, 3): -1, (2, 1): 1, (2, 3): 1, (2, 4): 2,
                          (3, 3): 2}]))
# the unit of row 1's old key becomes -2 at the same fill, so row 2 wins
# column 1
@example(_block([3, 7], [{(0, 0): 1, (0, 1): 1, (0, 3): 1, (1, 0): 3, (1, 1): 1,
                          (1, 2): 5, (2, 1): 1, (2, 5): 1, (2, 6): 1}]))
# the same two faults on blocks that pivot on units throughout, so the
# reductions are compared: keeping a row's key while its entry is still a
# unit (stale fill), and re-keying a row only when its fill changes (stale
# unit flag), each gives a reduction other than the reference's
@example(_block([4, 2], [{(0, 0): -1, (1, 0): -2, (1, 1): 1, (2, 1): -1, (3, 0): 1,
                          (3, 1): -1}]))
@example(_block([3, 6], [{(0, 1): -1, (0, 3): 2, (0, 4): 2, (0, 5): 2, (1, 0): -1,
                          (1, 1): 1, (1, 3): 2, (1, 5): -1, (2, 0): -1, (2, 2): 2,
                          (2, 3): -1, (2, 4): 1}]))
def test_block_reduction_matches_full_rescan_reference_on_random_blocks(block):
    _check_against_reference(*block)


def test_block_reduction_refuses_a_non_unit_pivot():
    """The 1x1 block [[2]] has no unit to pivot on: over Z it has no
    retract by unit pivots, so the reduction refuses it."""
    with pytest.raises(MathFailure, match="no unit pivot"):
        per_q, entries = _block([1, 1], [{(0, 0): 2}])
        cech._reduce_block(per_q, by_cell(per_q, entries))


# -- guards and the memos -------------------------------------------------------------

def test_generator_cap_raises_resource_guard(monkeypatch):
    """The cap bounds the max cones of one ray, whose submasks Sigma
    enumerates, not the number of generators."""
    from toricres import cech
    from toricres.errors import ResourceGuard

    monkeypatch.setattr(cech, "_GENERATOR_CAP", 2)
    # three generators, each ray in two max cones; past the memo
    assert cech._ray_cones.__wrapped__(P2) == (0b011, 0b101, 0b110)
    monkeypatch.setattr(cech, "_GENERATOR_CAP", 1)
    with pytest.raises(ResourceGuard, match="2 max cones"):
        cech._ray_cones.__wrapped__(P2)
    # and on the path that builds a family: a fresh pattern table, past
    # the memo
    monkeypatch.setattr(cech, "_ray_cones", cech._ray_cones.__wrapped__)
    with pytest.raises(ResourceGuard):
        cech._PatternTable(P2)[0b1]


def test_pattern_ray_cap_raises_unsupported_geometry(monkeypatch):
    from toricres import cech
    from toricres.errors import UnsupportedGeometryError

    alpha = cls_of_degree(P2, 3)
    cech.contributing_points.cache_clear()   # past the memo
    monkeypatch.setattr(cech, "_PATTERN_RAY_CAP", 2)
    with pytest.raises(UnsupportedGeometryError):
        cech.contributing_points(P2, alpha)   # three rays
    monkeypatch.setattr(cech, "_PATTERN_RAY_CAP", 3)
    assert cech.contributing_points(P2, alpha)


def test_pattern_ray_cap_stops_contributing_points_before_any_circuit(monkeypatch):
    from toricres import cech
    from toricres.errors import UnsupportedGeometryError

    # a pentagon no other test builds, so no memo holds its pattern table
    x = variety_from_points(((0, 0), (3, 0), (4, 1), (2, 3), (0, 2)))
    enumerated = []
    monkeypatch.setattr(cech, "_ray_circuits", lambda x_: enumerated.append(x_) or ())
    monkeypatch.setattr(cech, "pattern_table", lambda *a: enumerated.append(a))
    monkeypatch.setattr(cech, "_PATTERN_RAY_CAP", 2)
    with pytest.raises(UnsupportedGeometryError):
        cech.contributing_points(x, x.anticanonical_class())
    assert not enumerated


def test_kernel_rank_mismatch_is_unsupported_geometry():
    from toricres import cech
    from toricres.errors import UnsupportedGeometryError
    from toricres.toric import ToricVariety

    # a grading of rank 2 on three rays leaves a rank-1 kernel, not dim 2
    bad = ToricVariety(dim=2, rays=((1, 0), (0, 1), (-1, -1)),
                       max_cones=((0, 1), (0, 2), (1, 2)),
                       grading=((1, 0), (0, 1), (0, 0)))
    with pytest.raises(UnsupportedGeometryError):
        cech.contributing_points(bad, (0, 0))
    with pytest.raises(UnsupportedGeometryError):
        strand_dims(bad, (0, 0), (0, 0, 0))


def _certs_obj(c):
    return (c.active, c.dims, c.iota, c.rho_t, c.h)


def test_clear_caches_then_rebuild_gives_identical_family_certs():
    from toricres import cech

    x = _sturmfels_variety()
    negs = support_patterns(x)[:12]
    cech.clear_caches()
    before = {neg: pattern_certs(x, neg) for neg in negs}
    points = [(w, _certs_obj(c)) for w, c in cech.contributing_points(x, x.anticanonical_class())]
    circuits = cech._ray_circuits(x)
    patterns = cech._circuit_patterns(x)
    built = cech.cache_counters["built"]
    assert built > 0
    cech.clear_caches()
    assert not any(cech.cache_counters.values())
    for fn in (cech._ray_cones, cech._ray_circuits, cech._circuit_patterns,
               cech.contributing_points, cech.family_certs):
        assert fn.cache_info().currsize == 0
    for neg, c in before.items():
        again = pattern_certs(x, neg)
        assert again is not c
        assert _certs_obj(again) == _certs_obj(c)
    assert [(w, _certs_obj(c))
            for w, c in cech.contributing_points(x, x.anticanonical_class())] == points
    assert cech.cache_counters["built"] == built   # everything is built again
    assert cech._ray_circuits(x) == circuits
    assert cech._circuit_patterns(x) == patterns
