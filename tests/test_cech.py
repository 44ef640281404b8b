from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import pytest

from helpers_cohomology import bott_pn, kunneth_p1p1
from toricres.cech import (
    build_reduced_strand,
    cache_clear,
    cache_stats,
    cech_depth,
    model_transfer,
    reduced_strand,
    stabilization_level,
    strand_dims,
    strand_invariants_ok,
)
from toricres.complexes import variety_from_simplex
from toricres.qlinalg import QMatrix
from toricres.toric import variety_from_points


def cls_of_degree(x, a: int):
    """Class a * deg(x_1); on projective space this is the degree-a twist."""
    unit = [0] * x.n_rays
    unit[0] = 1
    return tuple(a * c for c in x.degree_of(unit))


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
    # build a class of bidegree (d1, d2) from an explicit monomial
    horizontal = [r for r, u in enumerate(P1P1.rays) if u[0] != 0]
    vertical = [r for r, u in enumerate(P1P1.rays) if u[1] != 0]
    expo = [0] * 4
    expo[horizontal[0]] = d1
    expo[vertical[0]] = d2
    alpha = P1P1.degree_of(expo)
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


def test_reduced_strand_invariants_p2():
    for a in (0, 1, 3, 4, -2):
        alpha = cls_of_degree(P2, a)
        s = build_reduced_strand(P2, alpha, stabilization_level(P2, alpha))
        assert strand_invariants_ok(s)
        assert list(s.dims()[:3]) == bott_pn(2, -a)


def test_reduced_strand_invariants_larger_level():
    s = build_reduced_strand(P2, cls_of_degree(P2, 4), (2, 2, 2))
    assert strand_invariants_ok(s)
    assert list(s.dims()[:3]) == bott_pn(2, -4)


def test_reduced_strand_empty():
    s = build_reduced_strand(P2, cls_of_degree(P2, 1), (0, 0, 0))
    assert s.dims() == (0, 0, 0)
    assert strand_invariants_ok(s)


def test_both_pivot_policies_agree_on_dims():
    alpha = cls_of_degree(P2, 3)
    a = build_reduced_strand(P2, alpha, (1, 1, 1), policy="sparse")
    b = build_reduced_strand(P2, alpha, (1, 1, 1), policy="first")
    assert a.dims() == b.dims()
    assert strand_invariants_ok(a) and strand_invariants_ok(b)


def test_strand_determinism():
    alpha = cls_of_degree(P2, 3)
    a = build_reduced_strand(P2, alpha, (1, 1, 1))
    b = build_reduced_strand(P2, alpha, (1, 1, 1))
    assert a.model_labels == b.model_labels
    assert a.chain_labels == b.chain_labels
    assert all(x == y for x, y in zip(a.h, b.h))
    assert all(x == y for x, y in zip(a.iota, b.iota))


def test_model_transfer_invertible():
    alpha = cls_of_degree(P2, 3)
    small = build_reduced_strand(P2, alpha, (1, 1, 1))
    big = build_reduced_strand(P2, alpha, (2, 2, 2))
    ts = model_transfer(small, big)
    for q, t in enumerate(ts):
        assert t.nrows == t.ncols == len(small.model_labels[q])
        if t.nrows:
            inv = t.inverse()  # raises if singular
            assert t.matmul(inv) == QMatrix.identity(t.nrows)


def test_strand_round_trip_serialization():
    from toricres.cech import ReducedStrand

    s = build_reduced_strand(P2, cls_of_degree(P2, 3), (1, 1, 1))
    obj = json.loads(json.dumps(s.to_obj()))
    s2 = ReducedStrand.from_obj(obj)
    assert s2.model_labels == s.model_labels
    assert s2.chain_labels == s.chain_labels
    assert all(a == b for a, b in zip(s.diff, s2.diff))
    assert all(a == b for a, b in zip(s.h, s2.h))


def test_disk_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("TORICRES_CACHE_DIR", str(tmp_path))
    from toricres import cech
    cech._memory_cache.clear()
    alpha = cls_of_degree(P2, 3)
    s1 = reduced_strand(P2, alpha, (1, 1, 1))
    assert cache_stats()["files"] == 1
    cech._memory_cache.clear()
    s2 = reduced_strand(P2, alpha, (1, 1, 1))
    assert s2.model_labels == s1.model_labels
    # corrupt the entry: loader must rebuild rather than fail
    f = next(tmp_path.glob("*.json"))
    f.write_text(f.read_text()[:-30] + "}")
    cech._memory_cache.clear()
    s3 = reduced_strand(P2, alpha, (1, 1, 1))
    assert s3.model_labels == s1.model_labels
    assert cache_clear() >= 1


def test_sturmfels_variety_strand_smoke():
    from toricres.fixtures import STURMFELS_SUPPORTS
    from toricres.toric import divisor_class, support_problem, variety_of

    prob = support_problem(STURMFELS_SUPPORTS)
    x = variety_of(prob)
    beta = divisor_class(x, prob.supports[0])
    # sections of the nef class: strand of -beta; 5 = lattice points of the
    # first support triangle, and no higher cohomology
    neg = tuple(-c for c in beta)
    s = build_reduced_strand(x, neg, stabilization_level(x, neg))
    assert strand_invariants_ok(s)
    assert s.dims()[:3] == (5, 0, 0)
    # dual orientation: only the top group survives, one interior point
    e = stabilization_level(x, beta)
    assert e == (5,) * 8
    t = build_reduced_strand(x, beta, e)
    assert strand_invariants_ok(t)
    assert t.dims()[:3] == (0, 0, 1)
    # dimensions hold still past the exact level
    assert strand_dims(x, beta, tuple(c + 1 for c in e))[:3] == (0, 0, 1)


# -- the pattern table and its points against a Fraction reference -------------

def _reference_patterns(x):
    """The support pattern table with every rank taken over Q (QMatrix)."""
    from toricres import cech
    gens, subsets, depth = cech._subset_data(x)
    cones = [frozenset(c) for c in x.max_cones]
    common = {T: frozenset.intersection(*(cones[j] for j in T)) for T in subsets}
    q_top = min(x.dim, depth)
    out = {}
    for bits in range(1 << x.n_rays):
        neg = frozenset(r for r in range(x.n_rays) if bits >> r & 1)
        fam = tuple(T for T in subsets if not (neg & common[T]))
        if not fam:
            continue
        per_q, entries = cech._block_entries(list(fam), depth)
        sizes = [len(v) for v in per_q]
        ranks = []
        for q in range(depth):
            m = QMatrix(sizes[q], sizes[q + 1])
            for (i, j), c in entries[q].items():
                m.rows[i][j] = c
            ranks.append(m.rank())
        dims = cech._dims(sizes, ranks)
        if any(dims[:q_top + 1]):
            out[tuple(sorted(neg))] = (fam, depth, dims)
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
    from toricres.fixtures import STURMFELS_SUPPORTS
    from toricres.toric import support_problem, variety_of
    return variety_of(support_problem(STURMFELS_SUPPORTS))


@pytest.mark.parametrize("name", ["P1", "P2", "P1P1", "squares", "sturmfels"])
def test_pattern_table_and_points_match_fraction_reference(name):
    from toricres import cech
    from toricres.toric import degree_fiber

    x = {"P1": lambda: P1, "P2": lambda: P2, "P1P1": lambda: P1P1,
         "squares": _squares_variety, "sturmfels": _sturmfels_variety}[name]()
    ref = _reference_patterns(x)
    assert cech._support_patterns(x) == tuple(sorted(ref, key=lambda neg: sum(1 << r for r in neg)))
    # the integer path gives the dims over Q in every degree, and so do
    # the reduced certificates (built here only where they are cheap)
    for neg, (fam, depth, dims) in ref.items():
        assert cech._family_dims(fam, depth) == dims
        if x.n_rays <= 4:
            assert cech.family_certs(x, neg).dims == dims
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
        assert list(cech.contributing_points(x, alpha)) == want


# -- guards and the disk cache -------------------------------------------------------

def test_generator_cap_raises_resource_guard(monkeypatch):
    from toricres import cech
    from toricres.errors import ResourceGuard

    monkeypatch.setattr(cech, "_GENERATOR_CAP", 2)
    with pytest.raises(ResourceGuard):
        cech._subset_data.__wrapped__(P2)   # three generators, past the memo


def test_pattern_ray_cap_raises_unsupported_geometry(monkeypatch):
    from toricres import cech
    from toricres.errors import UnsupportedGeometryError

    monkeypatch.setattr(cech, "_PATTERN_RAY_CAP", 2)
    with pytest.raises(UnsupportedGeometryError):
        cech._support_patterns.__wrapped__(P2)   # three rays, past the memo


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


def test_strand_cache_write_ignores_another_writers_temp_file(tmp_path, monkeypatch):
    from toricres import cech
    from toricres.cech import strand_key

    monkeypatch.setenv("TORICRES_CACHE_DIR", str(tmp_path))
    monkeypatch.setattr(cech, "_memory_cache", {})
    alpha, e = cls_of_degree(P2, 2), (1, 1, 1)
    path = tmp_path / f"{strand_key(P2, alpha, e, 'sparse')}.json"
    # a concurrent writer's pid-less temp name must not block this write
    path.with_suffix(".tmp").mkdir()
    reduced_strand(P2, alpha, e)
    assert path.exists()
    assert not list(tmp_path.glob(f"*.{os.getpid()}.tmp"))
