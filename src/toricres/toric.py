"""Projective toric geometry from point supports, in any dimension.

The variety never appears as anything but combinatorics: primitive inner
facet normals of the Minkowski sum of the supports (the rays, by double
description), the sets of normals active at each vertex (the maximal
cones), and a free presentation of the class group obtained from the
Smith form of the ray matrix.  Degrees of monomials, divisor classes of
the input supports and homogenized exponent vectors are all computed
against that presentation.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import InputError, MathFailure, UnsupportedGeometryError
from .qlinalg import int_rank, smith_kernel, smith_normal_form, solve_smith
from .qpoly import _is_name

Point = tuple[int, ...]
Support = tuple[Point, ...]


def _primitive(v: Sequence[int]) -> tuple[int, ...]:
    g = 0
    for x in v:
        g = math.gcd(g, abs(x))
    if g == 0:
        raise MathFailure("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(x * y for x, y in zip(a, b))


# -- convex hull facets, by double description ----------------------------------

def facet_normals(points: list[Point]) -> list[tuple[tuple[int, ...], int]]:
    """Primitive inner normal of each facet of conv(points), sorted, with the
    bitmask of the points of sorted(set(points)) that lie on it.

    The pairs (u, c) with <p, u> + c >= 0 for every point p form a cone C,
    the dual of the cone K over the points lifted to height one.  When the
    points span the ambient space affinely, K is pointed and full, so C is
    too; the extreme rays of C are then the normals of the facets of K,
    which are the cones over the facets of the polytope.  (0, 1) lies
    inside C, so no extreme ray has u = 0.

    The double description method (Motzkin et al. 1953; Fukuda and Prodon
    1996) finds those rays in exact integers.  It starts from d + 1
    affinely independent points, whose cone is simplicial: each ray spans
    the kernel of the other d lifted points.  Then it adds the points one
    at a time.  A ray on the wrong side of the new point is dropped, and
    each pair of adjacent rays on opposite sides gives the new ray between
    them.  Each ray keeps the mask of the points it is tight at, and two
    rays are adjacent exactly when the face they span, cut out by their
    common mask, holds no third ray.  That face is the least face holding
    both, its extreme rays are the rays whose masks contain the common
    mask, and a pointed cone with only two extreme rays is two-dimensional.
    (A ray is the face its mask cuts out, so no two rays share a mask.)
    A common mask of fewer than d - 1 points cannot cut out a face of
    dimension two, so those pairs are skipped before the search.
    """
    pts = sorted(set(points))
    if not pts or not pts[0]:
        raise InputError("need a nonempty set of points of positive length")
    dim = len(pts[0])
    lifted = [[*p, 1] for p in pts]
    start: list[int] = []
    for k, row in enumerate(lifted):
        if int_rank([lifted[j] for j in start] + [row]) > len(start):
            start.append(k)
            if len(start) > dim:
                break
    else:
        raise UnsupportedGeometryError("points do not span the ambient space")
    rays = []   # (ray, mask of the points it is tight at)
    for k in start:
        (ray,) = smith_kernel(smith_normal_form([lifted[j] for j in start if j != k]))
        sign = 1 if _dot(ray, lifted[k]) > 0 else -1
        rays.append((tuple(sign * x for x in ray), sum(1 << j for j in start if j != k)))
    # a start point adds nothing: it is tight at every ray but its own
    for k, row in enumerate(lifted):
        bit, masks = 1 << k, [mask for _, mask in rays]
        pos, neg, kept = [], [], []
        for ray, mask in rays:
            s = _dot(ray, row)
            if s:
                (pos if s > 0 else neg).append((ray, mask, s))
            else:
                kept.append((ray, mask | bit))
        for r1, m1, s1 in pos:
            for r2, m2, s2 in neg:
                common = m1 & m2
                if common.bit_count() >= dim - 1 and not any(
                        m & common == common for m in masks if m != m1 and m != m2):
                    kept.append((_primitive([s1 * b - s2 * a for a, b in zip(r1, r2)]),
                                 common | bit))
        rays = [(ray, mask) for ray, mask, _ in pos] + kept
    return sorted((_primitive(ray[:dim]), mask) for ray, mask in rays)


# -- the variety ----------------------------------------------------------------

@dataclass(frozen=True)
class ToricVariety:
    """Complete toric variety presented by rays, maximal cones and grading."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]
    grading: tuple[tuple[int, ...], ...]   # class of D_ray, one per ray
    torsion: tuple[int, ...] = ()

    def __hash__(self) -> int:
        # the hash of the fields, computed once: every memo keyed by the
        # variety hashes it on each hit.  Equality still compares the fields.
        try:
            return self._hash
        except AttributeError:
            h = hash((self.dim, self.rays, self.max_cones, self.grading, self.torsion))
            object.__setattr__(self, "_hash", h)
            return h

    @property
    def n_rays(self) -> int:
        return len(self.rays)

    @property
    def class_rank(self) -> int:
        return len(self.grading[0]) if self.grading else 0

    def degree_of(self, u: Sequence[int]) -> tuple[int, ...]:
        """Class-group degree of the (Laurent) monomial with exponents u."""
        return tuple(sum(g[i] * u[r] for r, g in enumerate(self.grading))
                     for i in range(self.class_rank))

    def anticanonical_class(self) -> tuple[int, ...]:
        return self.degree_of([1] * self.n_rays)

    def var_names(self) -> tuple[str, ...]:
        return tuple(f"x{r + 1}" for r in range(self.n_rays))


def variety_from_points(points: Iterable[Point]) -> ToricVariety:
    """Normal fan of conv(points) with its class-group presentation.

    A point is a vertex exactly when the facets through it meet in it
    alone, that is when the AND of their masks is its own bit; its max
    cone is the set of those facets."""
    pts = sorted(set(points))
    facets = facet_normals(pts)
    dim = len(pts[0])
    rays = tuple(u for u, _ in facets)
    max_cones = []
    for k in range(len(pts)):
        bit, meet, active = 1 << k, -1, []
        for r, (_, mask) in enumerate(facets):
            if mask & bit:
                meet &= mask
                active.append(r)
        if meet == bit:
            max_cones.append(tuple(active))

    # grading: free part of coker(M -> Z^rays) via the Smith form of the
    # ray matrix; rows m..R-1 of the left transform present the class group
    d, l, _ = smith_normal_form([list(r) for r in rays])
    torsion = tuple(d[i][i] for i in range(dim) if d[i][i] > 1)
    grading_rows = l[dim:]
    grading = tuple(tuple(row[r] for row in grading_rows) for r in range(len(rays)))

    return ToricVariety(dim=dim, rays=rays, max_cones=tuple(sorted(max_cones)),
                        grading=grading, torsion=torsion)


def variety_from_simplex(n: int) -> ToricVariety:
    """Projective n-space, the normal fan of the standard n-simplex."""
    pts = [tuple(0 for _ in range(n))]
    for k in range(n):
        pts.append(tuple(1 if i == k else 0 for i in range(n)))
    return variety_from_points(pts)


# -- problems given by supports ---------------------------------------------------

def default_label(j: int, point: Point) -> str:
    tail = "_".join(str(c).replace("-", "m") for c in point)
    return f"a{j}_{tail}"


@dataclass(frozen=True)
class SupportProblem:
    """A tuple of finite point supports with named generic coefficients.

    Every problem is checked where it is built, directly or by
    support_problem: the supports become tuples of int tuples, labels None
    becomes the default labels (default_label), and a malformed problem
    raises InputError."""

    supports: tuple[Support, ...]
    labels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        try:
            sup = tuple(tuple(tuple(map(operator.index, p)) for p in s)
                        for s in self.supports)
        except TypeError as err:
            raise InputError(f"support points must be integer vectors: {err}") from err
        if not sup or not sup[0]:
            raise InputError("need at least one nonempty support")
        if not sup[0][0]:
            raise InputError("support points must have at least one coordinate")
        dim = len(sup[0][0])
        for s in sup:
            if not s:
                raise InputError("empty support")
            for p in s:
                if len(p) != dim:
                    raise InputError("support points of mixed dimension")
            if len(set(s)) != len(s):
                raise InputError("repeated point in a support")
        if self.labels is None:
            lab = tuple(tuple(default_label(j, p) for p in s) for j, s in enumerate(sup))
        else:
            lab = tuple(tuple(g) for g in self.labels)
            if tuple(len(g) for g in lab) != tuple(len(s) for s in sup):
                raise InputError("label shape does not match supports")
        flat = [name for g in lab for name in g]
        for name in flat:
            if not _is_name(name):
                raise InputError(f"coefficient label {name!r} is not a name")
        if len(set(flat)) != len(flat):
            raise InputError("duplicate coefficient label")
        object.__setattr__(self, "supports", sup)
        object.__setattr__(self, "labels", lab)

    def all_labels(self) -> tuple[str, ...]:
        return tuple(name for group in self.labels for name in group)


def support_problem(supports: Sequence[Sequence[Sequence[int]]],
                    labels: Sequence[Sequence[str]] | None = None) -> SupportProblem:
    """The checked problem of these supports; labels None gives the default
    labels."""
    return SupportProblem(supports, labels)


def minkowski_points(supports: Sequence[Support]) -> list[Point]:
    sums = set()
    for combo in itertools.product(*supports):
        sums.add(tuple(sum(c) for c in zip(*combo)))
    return sorted(sums)


def variety_of(problem: SupportProblem) -> ToricVariety:
    """The toric variety of the Minkowski sum of the problem's supports.

    It is built on the first call and kept on the problem instance itself
    (as `ToricVariety.__hash__` keeps its hash), so each later call with
    the same instance returns the same object.  An equal problem built
    separately builds its own, equal variety."""
    try:
        return problem._variety
    except AttributeError:
        x = variety_from_points(minkowski_points(problem.supports))
        object.__setattr__(problem, "_variety", x)
        return x


def support_levels(x: ToricVariety, support: Support) -> tuple[int, ...]:
    """a_rho = -min over the support of <p, u_rho>, one per ray."""
    return tuple(-min(_dot(p, u) for p in support) for u in x.rays)


def divisor_class(x: ToricVariety, support: Support) -> tuple[int, ...]:
    return x.degree_of(support_levels(x, support))


def homogenized_exponent(x: ToricVariety, support: Support, point: Point) -> tuple[int, ...]:
    """Exponents of the Cox monomial of a support point: <p,u_rho> + a_rho."""
    a = support_levels(x, support)
    e = tuple(_dot(point, u) + a[r] for r, u in enumerate(x.rays))
    if any(c < 0 for c in e):
        raise InputError(f"point {point} is not in the support")
    return e


def codimension(supports: Sequence[Support]) -> int:
    """Codimension of the eliminant variety of a generic system.

    max over nonempty index sets J of |J| minus the rank of the lattice of
    differences of points of the union of the J-supports.
    """
    best = 0
    idx = range(len(supports))
    for size in range(1, len(supports) + 1):
        for js in itertools.combinations(idx, size):
            pts = [p for j in js for p in supports[j]]
            base = pts[0]
            diffs = [[c - b for c, b in zip(p, base)] for p in pts[1:]]
            best = max(best, size - int_rank(diffs))
    return best


# -- lattice points of a degree fiber ------------------------------------------------

# An inequality sum_i c[i] * t_i >= r on integer points t, with int c and r.
Ineq = tuple[tuple[int, ...], int]


def _tighten(rows: Iterable[Ineq]) -> list[Ineq] | None:
    """Divide each row by the gcd of its coefficients, round its right-hand
    side up (t is integral) and keep the tightest row per coefficient vector.

    Drops trivially true rows; returns None when a row is infeasible."""
    best: dict[tuple[int, ...], int] = {}
    for c, r in rows:
        g = math.gcd(*c)
        if not g:
            if r > 0:
                return None
            continue
        if g > 1:
            c = tuple(v // g for v in c)
            r = -(-r // g)
        if c not in best or r > best[c]:
            best[c] = r
    return list(best.items())


def _fm_eliminate(ineqs: list[Ineq], var: int) -> list[Ineq] | None:
    """Project out variable `var` from the system sum(c*t) >= rhs.

    Returns None when the system is infeasible.
    """
    lowers, uppers, keep = [], [], []
    for c, r in ineqs:
        if c[var] > 0:
            lowers.append((c, r))
        elif c[var] < 0:
            uppers.append((c, r))
        else:
            keep.append((c, r))
    for cl, rl in lowers:
        for cu, ru in uppers:
            # positive weights that cancel var
            wl, wu = -cu[var], cl[var]
            keep.append((tuple(wl * a + wu * b for a, b in zip(cl, cu)),
                         wl * rl + wu * ru))
    return _tighten(keep)


def _interval(ineqs: list[Ineq], var: int,
              point: list[int]) -> tuple[int | None, int | None]:
    """Integer range of t_var allowed by the rows, given the other t;
    point[var] must be 0."""
    lo: int | None = None
    hi: int | None = None
    for c, r in ineqs:
        a = c[var]
        if not a:
            continue
        rest = r - sum(map(operator.mul, c, point))
        if a > 0:
            b = -(-rest // a)
            lo = b if lo is None or b > lo else lo
        else:
            b = rest // a
            hi = b if hi is None or b < hi else hi
    return lo, hi


@lru_cache(maxsize=None)
def _grading_smith(x: ToricVariety):
    """Smith form of the grading (one row per class coordinate, one column
    per ray) and the degree kernel it gives, once per variety."""
    snf = smith_normal_form([[g[i] for g in x.grading] for i in range(x.class_rank)])
    return snf, tuple(tuple(k) for k in smith_kernel(snf))


@lru_cache(maxsize=None)
def degree_fiber(x: ToricVariety, target: tuple[int, ...]):
    """Particular exponent u0 (None if there is none) and kernel lattice
    basis of the fiber {u in Z^rays : degree(u) = target}."""
    if x.torsion:
        raise UnsupportedGeometryError("torsion class groups are not supported")
    snf, kernel = _grading_smith(x)
    u0 = solve_smith(snf, target)
    if u0 is not None and len(kernel) != x.dim:
        raise UnsupportedGeometryError(
            f"degree kernel has rank {len(kernel)}, the variety dimension {x.dim}")
    return (tuple(u0) if u0 is not None else None), kernel


def fiber_points(u0: Sequence[int], kernel: Sequence[Sequence[int]],
                 bounds: Sequence[tuple[int, int]]) -> list[tuple[int, ...]]:
    """All w = u0 + sum_i t_i kernel[i] (t integral) with s * w[rho] >= b for
    each (s, b) = bounds[rho], in increasing order of t.

    Fourier-Motzkin elimination on integer rows, then a walk over the
    nested intervals of t_0, t_1, ... that steps w by one kernel vector
    per step of t."""
    m = len(kernel)
    if m == 0:
        ok = all(s * u0[rho] >= b for rho, (s, b) in enumerate(bounds))
        return [tuple(u0)] if ok else []
    # s * (u0 + t.k)[rho] >= b  <=>  sum_i s * k[i][rho] * t_i >= b - s * u0[rho]
    systems = [_tighten((tuple(s * kernel[i][rho] for i in range(m)), b - s * u0[rho])
                        for rho, (s, b) in enumerate(bounds))]
    for var in range(m - 1, 0, -1):
        if systems[-1] is None:
            return []
        systems.append(_fm_eliminate(systems[-1], var))
    if systems[-1] is None:
        return []
    systems.reverse()  # systems[i] constrains t_0..t_i
    out: list[tuple[int, ...]] = []
    point = [0] * m

    def walk(level: int, base: tuple[int, ...]) -> None:
        # base is u0 + sum_i t_i kernel[i] over i < level; each t_level
        # steps w by kernel[level]
        lo, hi = _interval(systems[level], level, point)
        if lo is None or hi is None:
            raise UnsupportedGeometryError("unbounded degree window")
        step = kernel[level]
        w = tuple([b + lo * k for b, k in zip(base, step)])
        for t in range(lo, hi + 1):
            if level + 1 < m:
                point[level] = t
                walk(level + 1, w)
            else:
                out.append(w)
            w = tuple(map(operator.add, w, step))
        point[level] = 0

    walk(0, tuple(u0))
    return out
