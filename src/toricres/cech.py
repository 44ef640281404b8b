"""Cech pattern families of graded-module classes, with reduction data.

The Cech block of a class alpha at a Laurent exponent w of degree -alpha is
a family of nonempty subsets of the irrelevant generators, graded by size
minus one, with the incidence differential that inserts a generator with
the usual alternating sign.  At any uniform truncation level past the
depth of w, that family is the pattern family of w's negative-support
pattern (_pattern_family), so the direct image needs one reduction per
family.  A reduction is a deformation retract onto the family's
cohomology: inclusion iota (model rows to chain columns), projection rho,
homotopy h, and the family's incidence differential D satisfy

    iota . D = 0,      D . rho = 0,        iota . rho = id,
    D_q h_q + h_{q-1} D_{q-1} = id - rho_q iota_q,
    iota h = 0,        h rho = 0,          h h = 0,

all in the row convention (composition left to right along arrows).  The
reduced differential is identically zero, so model dimensions are the
cohomology dimensions of the family.  Chains are indexed by the sorted
subsets of each degree.

A family F is upward closed: it holds every subset outside the
downward-closed Sigma of cone sets that share a negated ray (see
_nerve_dims).  So generator 0 is a cone point, and pairing each S in F
without 0 with S + {0}, also in F, is an acyclic matching of discrete
Morse theory (Forman, "Morse theory for cell complexes", Adv. Math. 134,
1998; Skoldberg, "Morse theory from an algebraic viewpoint", Trans. AMS
358, 2006).  Each pair's incidence is +1, as 0 comes first in S + {0}.
_cone_reduction reduces F in two stages:

1. Cone contraction, in closed form: h1[S + {0}] = {S: +1}.  The critical
   cells K = {T in F : 0 in T, T - {0} not in F}, {0} among them when it
   is in F, survive; rho1 is the coordinate projection onto K, and
   iota1[T] = e_T - sum_j eps(j, T + {j}) e_(T - {0} + {j}) over the j
   outside T with T - {0} + {j} in F, eps the incidence sign.  On every
   other cell the signs cancel in pairs, so D h1 + h1 D = id - rho1 iota1,
   and the differential induced on K is D restricted to K.
2. Gauss elimination over Q on K alone (_reduce_block), one pivot at a
   time, the least nonzero entry under a fixed rule: a unit entry first,
   then the sparsest row, then the least (degree, row, column).  A lazily
   invalidated min-heap of each row's least key finds every pivot without
   rescanning the block, and a column mirror finds the rows a pivot
   touches.

The two retracts compose to iota = iota_K iota1, rho = rho1 rho_K (rho_K
on chain indices) and h = h1 + rho1 h_K iota1 (h_K iota1 on the rows of K),
and every index stays a chain index of F.

Which exponents carry cohomology at all is decided per variety and
negative-support pattern, without building a family: by the nerve lemma a
pattern's family has the reduced cohomology, shifted by one, of a small
simplicial complex on the negated rays (Eisenbud, Mustata and Stillman,
"Cohomology on toric varieties and local cohomology with monomial
supports", J. Symbolic Comput. 29, 2000; see _nerve_dims).  Only the
patterns that pass the ray-circuit screen of contributing_points are ranked.
The screen is integer work: each circuit of the rays becomes, once per
variety, a bitset over all sign patterns of those it can exclude, and the
patterns a class's fiber misses are the OR of the bitsets of the circuits
that fiber violates.

Family reductions are memoized per process (_reduced_family).
"""
from __future__ import annotations

import heapq
import itertools
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul
from typing import Sequence

from .errors import MathFailure, ResourceGuard, UnsupportedGeometryError
from .qlinalg import int_kernel_basis, int_rank
from .qpoly import cnorm
from .toric import ToricVariety, degree_fiber, fiber_points

Class = tuple[int, ...]


_GENERATOR_CAP = 16


def cech_depth(x: ToricVariety) -> int:
    """Largest Cech degree: #generators - 1 (the full subset range).

    No size truncation: model dimensions above dim X vanish at exact levels,
    and keeping every subset keeps all homotopies honest."""
    return len(x.max_cones) - 1


@lru_cache(maxsize=None)
def _subset_data(x: ToricVariety):
    """Generator exponents, all nonempty generator subsets, and the depth."""
    gens = x.irrelevant_exponents()
    if len(gens) > _GENERATOR_CAP:
        raise ResourceGuard(
            f"{len(gens)} irrelevant generators need 2^{len(gens)} Cech "
            f"subsets; cap is 2^{_GENERATOR_CAP}")
    depth = cech_depth(x)
    subsets: list[tuple[int, ...]] = []
    for size in range(1, depth + 2):
        subsets.extend(itertools.combinations(range(len(gens)), size))
    return gens, tuple(subsets), depth


@lru_cache(maxsize=None)
def _subset_rays(x: ToricVariety) -> tuple[int, ...]:
    """For each subset of _subset_data, the bitmask of the rays that all of
    its cones contain."""
    _, subsets, _ = _subset_data(x)
    cones = [sum(1 << rho for rho in c) for c in x.max_cones]
    return tuple(reduce(int.__and__, (cones[j] for j in T)) for T in subsets)


def _reduce_block(per_q: list[list[tuple[int, ...]]],
                  entries: list[dict[tuple[int, int], int]]):
    """Fully reduce one block over Q, tracking the retract certificates.

    This is stage 2 of a family reduction (see the module docstring): it
    runs on the critical cells that the cone contraction of _cone_reduction
    leaves, and it reduces any block of sparse maps, complex or not.
    Coordinates are kept by original local index throughout; dropped ones
    simply leave the active sets.  Returns surviving indices per degree and
    the certificates as index-keyed sparse structures.

    The pivot is the nonzero entry with the least key (unit, fill, q, i, j):
    unit 0 for a +-1 entry, fill the number of other entries in its row.
    Entries of one row share fill, q and i, so the least key overall is the
    least of the rows' least keys.  Those sit in a lazily invalidated
    min-heap: a row pushes its least key when it is built and again
    whenever it changes, and a popped key whose entry, unit flag or fill no
    longer matches its row is dropped.  A key that still matches is its
    row's least: the row's newest key is no larger and would have been
    popped, and the row pivoted away, before it.
    """
    depth1 = len(per_q)
    sizes = [len(v) for v in per_q]
    active = [set(range(s)) for s in sizes]
    # d[q]: row -> {col: coeff}; cols[q]: col -> rows with a nonzero there
    d = [dict() for _ in range(depth1 - 1)]
    cols = [dict() for _ in range(depth1 - 1)]
    for q, ent in enumerate(entries):
        dq, cq = d[q], cols[q]
        for (i, j), c in ent.items():
            dq.setdefault(i, {})[j] = c
            cq.setdefault(j, set()).add(i)
    iota = [{i: {i: 1} for i in range(s)} for s in sizes]   # model row -> chain covector
    rho = [{i: {i: 1} for i in range(s)} for s in sizes]    # model col -> chain vector
    h = [dict() for _ in range(depth1 - 1)]                 # chain(q+1) -> {chain(q): c}

    def least_key(q, i, row):
        units = [j for j, a in row.items() if a in (1, -1)]
        return (0 if units else 1, len(row) - 1, q, i, min(units or row))

    heap = [least_key(q, i, row) for q in range(depth1 - 1) for i, row in d[q].items()]
    heapq.heapify(heap)

    while heap:
        unit, fill, q, pi, pj = heapq.heappop(heap)
        dq, cq = d[q], cols[q]
        row_piv = dq.get(pi)
        if row_piv is None or pj not in row_piv:
            continue   # the entry is gone
        a = row_piv[pj]
        if unit != (a not in (1, -1)) or fill != len(row_piv) - 1:
            continue   # the row changed since this key was pushed
        inv_a = a if a in (1, -1) else Fraction(1) / Fraction(a)   # ints stay ints
        col_entries = [(i, dq[i][pj]) for i in cq.pop(pj) if i != pi]
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

        # Schur complement on d[q]; the pivot column leaves every row
        for i, cval in col_entries:
            fi = cval * inv_a
            ri = dq[i]
            del ri[pj]
            for j, bval in row_entries:
                s = ri.get(j, 0) - fi * bval
                if s:
                    if j not in ri:
                        cq[j].add(i)
                    ri[j] = cnorm(s)
                elif j in ri:
                    del ri[j]
                    cq[j].discard(i)
            if ri:
                heapq.heappush(heap, least_key(q, i, ri))
            else:
                del dq[i]

        # drop the pivot row and column everywhere
        active[q].discard(pi)
        active[q + 1].discard(pj)
        iota[q].pop(pi, None)
        rho[q].pop(pi, None)
        iota[q + 1].pop(pj, None)
        rho[q + 1].pop(pj, None)
        del dq[pi]
        for j, _ in row_entries:
            cq[j].discard(pi)
        if q + 1 < depth1 - 1:
            for j in d[q + 1].pop(pj, ()):
                cols[q + 1][j].discard(pj)
        if q - 1 >= 0:
            dm = d[q - 1]
            for i in cols[q - 1].pop(pi, ()):
                ri = dm[i]
                del ri[pi]
                if ri:
                    heapq.heappush(heap, least_key(q - 1, i, ri))
                else:
                    del dm[i]

    return active, iota, rho, h


def _per_degree(fam: Sequence[tuple[int, ...]], depth: int) -> list[list[tuple[int, ...]]]:
    """The subsets of a family grouped by Cech degree, each group sorted."""
    per_q: list[list[tuple[int, ...]]] = [[] for _ in range(depth + 1)]
    for T in fam:
        per_q[len(T) - 1].append(T)
    for q in range(depth + 1):
        per_q[q].sort()
    return per_q


def _block_entries(fam: list[tuple[int, ...]], depth: int):
    """Per-degree coordinates and signed incidence entries of one block."""
    per_q = _per_degree(fam, depth)
    index: dict[tuple[int, ...], int] = {}
    for q in range(depth + 1):
        for i, T in enumerate(per_q[q]):
            index[T] = i
    fam_set = set(fam)
    gen_ids = sorted({j for T in fam for j in T})
    entries: list[dict[tuple[int, int], int]] = [dict() for _ in range(depth)]
    for q in range(depth):
        for T in per_q[q]:
            for j in gen_ids:
                if j in T:
                    continue
                T2 = tuple(sorted(T + (j,)))
                if T2 not in fam_set:
                    continue
                sign = -1 if T2.index(j) % 2 else 1
                entries[q][(index[T], index[T2])] = sign
    return per_q, entries


_reduce_memo: dict = {}

# Family reductions by source.  Nothing is kept on disk, so "disk" is always
# 0; it stays because perfbench/trace.py reads all three keys.
cache_counters = {"memory": 0, "disk": 0, "built": 0}


def _cone_reduction(fam: Sequence[tuple[int, ...]], depth: int):
    """Reduce an upward-closed family in the two stages of the module
    docstring: per_q and (active, iota, rho, h) in chain indices, in the
    form _reduce_block gives.  A family that some S without 0 belongs to
    while S + {0} does not raises MathFailure."""
    per_q = _per_degree(fam, depth)
    index = {T: i for level in per_q for i, T in enumerate(level)}
    gen_ids = sorted({j for T in fam for j in T})
    h = [dict() for _ in range(depth)]
    iota1 = {}   # critical cell -> its iota1 row, a chain covector
    for T in fam:
        if T[0] != 0:
            up = index.get((0,) + T)
            if up is None:
                raise MathFailure(f"subset family not closed under adding generator 0 at {T}")
            h[len(T) - 1][up] = {index[T]: 1}
        elif T[1:] not in index:
            row = iota1[T] = {index[T]: 1}
            for j in gen_ids:
                if j in T:
                    continue
                side = index.get(tuple(sorted(T[1:] + (j,))))
                if side is not None:
                    # minus the incidence sign of j in T + {j}
                    row[side] = 1 if sum(t < j for t in T) % 2 else -1
    per_k, entries = _block_entries(list(iota1), depth)
    active_k, iota_k, rho_k, h_k = _reduce_block(per_k, entries)
    chain = [[index[T] for T in level] for level in per_k]
    rows1 = [[iota1[T] for T in level] for level in per_k]

    def through(q, row):
        """A covector on the degree-q cells of K, composed with iota1."""
        out: dict = {}
        for k, c in row.items():
            for i, v in rows1[q][k].items():
                out[i] = out.get(i, 0) + c * v
        return {i: cnorm(v) for i, v in out.items() if v}

    active = [{chain[q][i] for i in a} for q, a in enumerate(active_k)]
    iota = [{chain[q][i]: through(q, row) for i, row in level.items()}
            for q, level in enumerate(iota_k)]
    rho = [{chain[q][i]: {chain[q][k]: v for k, v in row.items()} for i, row in level.items()}
           for q, level in enumerate(rho_k)]
    for q, level in enumerate(h_k):
        for t, row in level.items():
            h[q][chain[q + 1][t]] = through(q, row)
    return per_q, (active, iota, rho, h)


def _reduced_family(fam: tuple[tuple[int, ...], ...], depth: int):
    """Memoized reduction of one subset family: (per_q, active, iota, rho, h).

    The block of an exponent depends on the exponent only through its family,
    so identical families across exponents and classes share one reduction.
    Every such family is upward closed, and _cone_reduction reduces it."""
    key = (fam, depth)
    hit = _reduce_memo.get(key)
    if hit is not None:
        cache_counters["memory"] += 1
        return hit
    per_q, red = _cone_reduction(fam, depth)
    cache_counters["built"] += 1
    hit = _reduce_memo[key] = (per_q, *red)
    return hit


_fam_dims_memo: dict = {}


def _family_dims(fam: tuple[tuple[int, ...], ...], depth: int) -> tuple[int, ...]:
    """Cohomology dimensions of one subset family in every degree, by exact
    integer ranks of its incidence matrices."""
    key = (fam, depth)
    hit = _fam_dims_memo.get(key)
    if hit is None:
        per_q, entries = _block_entries(list(fam), depth)
        sizes = [len(v) for v in per_q]
        mats = []
        for q in range(depth):
            rows: list[dict[int, int]] = [{} for _ in range(sizes[q])]
            for (i, j), c in entries[q].items():
                rows[i][j] = c
            mats.append(rows)
        hit = _fam_dims_memo[key] = _dims(sizes, [int_rank(m) for m in mats])
    return hit


def _dims(sizes: list[int], ranks: list[int]) -> tuple[int, ...]:
    """dims[q] = sizes[q] - rank d_q - rank d_{q-1}; d_q is absent past ranks."""
    n = len(ranks)
    return tuple(size - (ranks[q] if q < n else 0) - (ranks[q - 1] if q else 0)
                 for q, size in enumerate(sizes))


# -- contributing patterns and points ------------------------------------------

_PATTERN_RAY_CAP = 16


@lru_cache(maxsize=None)
def _nerve_dims(x: ToricVariety, neg: tuple[int, ...]) -> tuple[int, ...]:
    """Cohomology dimensions of the family of pattern neg, q = 0..depth, from
    the nerve N = {S subset of neg, S nonempty, S inside some max cone}:
    dims[q] is the reduced h^{q-1} of N.

    At a uniform level c the block of an exponent w is all-or-nothing: it is
    the full family {T : no common ray of the T-cones has w < 0} once c
    reaches depth(w) = -min(w), and empty before that.  The family, hence
    the block cohomology, depends on w only through its negative-ray set.

    The family of a pattern neg is the relative cochain complex of the
    simplex on the max cones modulo the subcomplex Sigma of cone sets
    sharing a negated ray, so its dims are h^q(simplex, Sigma) = reduced
    h^{q-1}(Sigma).  Sigma is covered by one full simplex per ray in neg
    (the cones containing it); all their intersections are simplices or
    empty, so by the nerve lemma Sigma has the cohomology of the nerve N, a
    complex on at most #rays vertices (the small complexes on rays of
    Eisenbud, Mustata and Stillman, "Cohomology on toric varieties and local
    cohomology with monomial supports", J. Symbolic Comput. 29, 2000).  The
    nerve's coboundaries are ranked exactly, as a subset family of its own."""
    negs = set(neg)
    faces: set[tuple[int, ...]] = set()
    for cone in x.max_cones:
        inside = sorted(negs.intersection(cone))
        for k in range(1, len(inside) + 1):
            faces.update(itertools.combinations(inside, k))
    n = len(x.max_cones)   # depth + 1 degrees; the nerve has none above depth
    if not faces:
        return (1,) + (0,) * (n - 1)   # reduced h^{-1} of the empty complex
    # a face complex is a subset family too: its h^k, reduced in degree 0
    h = _family_dims(tuple(sorted(faces)), max(map(len, faces)) - 1)
    return ((0, h[0] - 1) + h[1:] + (0,) * n)[:n]


@lru_cache(maxsize=None)
def _ray_circuits(x: ToricVariety) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """Every circuit of the ray configuration, in both signs.

    A circuit is a primitive integer relation sum a_rho u_rho = 0 whose
    support holds no smaller relation; it has at most dim + 1 rays.  The
    rays are read as the columns of the degree kernel (the rays in a basis
    of the character lattice), so a circuit is exactly a minimal-support
    vector orthogonal to the kernel, and a . u is constant on every degree
    fiber.  Each entry is (a, positive-support mask, negative-support mask,
    c_a), with c_a the sum of |a_rho| over a_rho < 0."""
    _, kernel = degree_fiber(x, (0,) * x.class_rank)
    found: list[int] = []   # supports of the circuits so far, as bitmasks
    out = []
    for size in range(1, x.dim + 2):
        for S in itertools.combinations(range(x.n_rays), size):
            bits = sum(1 << rho for rho in S)
            if any(c & bits == c for c in found):
                continue   # holds a smaller circuit
            basis = int_kernel_basis([[k[rho] for rho in S] for k in kernel])
            if len(basis) != 1 or not all(basis[0]):
                continue
            found.append(bits)
            a = [0] * x.n_rays
            for rho, v in zip(S, basis[0]):
                a[rho] = v
            for sa in (a, [-v for v in a]):
                pos = sum(1 << rho for rho, v in enumerate(sa) if v > 0)
                out.append((tuple(sa), pos, bits & ~pos, sum(-v for v in sa if v < 0)))
    return tuple(out)


@lru_cache(maxsize=None)
def _circuit_patterns(x: ToricVariety) -> tuple[int, ...]:
    """For each circuit of _ray_circuits, in order, the patterns it can
    exclude, as a bitset over all 2^#rays patterns: bit b is set when the
    circuit's negative support is inside b and its positive support misses
    it.  Each bitset is the AND of one mask per ray of the circuit's
    support, at most dim + 1 of them, so no pattern is enumerated."""
    n_pat = 1 << x.n_rays
    full = (1 << n_pat) - 1
    # negates[rho]: the patterns holding rho, a run of 2^rho zeros then
    # 2^rho ones, repeated by multiplying with 1 + 2^L + 2^2L + ...
    negates = [(((1 << (1 << rho)) - 1) << (1 << rho)) * (full // ((1 << (2 << rho)) - 1))
               for rho in range(x.n_rays)]
    out = []
    for _, pos, negs, _ in _ray_circuits(x):
        bits = full
        for rho in range(x.n_rays):
            if negs >> rho & 1:
                bits &= negates[rho]
            elif pos >> rho & 1:
                bits &= ~negates[rho]
        out.append(bits)
    return tuple(out)


_points_cache: dict = {}


def contributing_points(x: ToricVariety,
                        alpha: Class) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """All (exponent, pattern) pairs whose blocks carry cohomology.

    These exponents support every cohomology model of the class: the block
    of each is the family of its pattern, and every other exponent of the
    degree fiber has a pattern whose family carries no cohomology in degrees
    up to dim X, so it reduces to nothing there.

    All 2^#rays patterns are screened by the ray circuits first: the
    patterns excluded for this class are the OR of the pattern bitsets
    (_circuit_patterns, built once per variety) of the circuits the fiber
    violates, and each pattern is one bit of it.  Only a survivor has its
    nerve ranked (_nerve_dims, memoized per variety and pattern), and a
    survivor with cohomology in some q <= dim is walked by fiber_points.
    A pattern neg is excluded when a ray circuit shows that its real sign
    polyhedron P = {u <= -1 on neg, u >= 0 off neg} misses the real fiber
    u0 + L, L the span of the degree kernel.
    By Farkas' lemma P misses u0 + L exactly when some a orthogonal to L,
    with a <= 0 on neg and a >= 0 off neg, has a . u0 < sum over neg of
    -a_rho: the least a . u on P is that sum, and a . u0 is a . u on
    the fiber.  These a form a pointed cone whose extreme rays are the
    circuits conformal to the sign pattern (Rockafellar, "The elementary
    vectors of a subspace of R^N", 1969), and the test is linear in a, so
    it holds for some a exactly when it holds for such a circuit: negative
    support inside neg, positive support outside neg, and a . u0 < c_a.
    An excluded pattern therefore has no real fiber point, let alone a
    lattice point, and the walk that decides every other pattern is
    unchanged, so the points are the same as walking every pattern whose
    family carries cohomology."""
    key = (x, tuple(alpha))
    hit = _points_cache.get(key)
    if hit is None:
        if x.n_rays > _PATTERN_RAY_CAP:
            raise UnsupportedGeometryError(
                f"support patterns need 2^{x.n_rays} checks; "
                f"cap is 2^{_PATTERN_RAY_CAP}")
        target = tuple(-a for a in alpha)
        u0, kernel = degree_fiber(x, target)
        pts = []
        if u0 is not None:
            q_top = min(x.dim, cech_depth(x))
            excluded = 0
            for (a, _, _, c), patterns in zip(_ray_circuits(x), _circuit_patterns(x)):
                if sum(map(mul, a, u0)) < c:
                    excluded |= patterns
            # flags[bits] == "1": some circuit shows the fiber misses pattern bits
            flags = bin(excluded)[:1:-1].ljust(1 << x.n_rays, "0")
            for bits, flag in enumerate(flags):
                if flag == "1":
                    continue   # no real point of the fiber has this pattern
                neg = tuple(rho for rho in range(x.n_rays) if bits >> rho & 1)
                if not any(_nerve_dims(x, neg)[:q_top + 1]):
                    continue   # no cohomology in q <= dim
                # w <= -1 on the rays in neg, w >= 0 on the others
                signs = [(-1, 1) if rho in neg else (1, 0) for rho in range(x.n_rays)]
                pts.extend((w, neg) for w in fiber_points(u0, kernel, signs))
        pts.sort()
        hit = tuple(pts)
        _points_cache[key] = hit
    return hit


# -- block-level access ------------------------------------------------------------

@lru_cache(maxsize=None)
def _pattern_family(x: ToricVariety, neg: tuple[int, ...]):
    """Subsets whose cones have no common ray that the pattern negates.

    At any uniform level c, the family of an exponent w with depth(w) <= c
    is exactly the family of its negative-support pattern."""
    _, subsets, _ = _subset_data(x)
    bits = sum(1 << rho for rho in neg)
    return tuple(T for T, common in zip(subsets, _subset_rays(x)) if not bits & common)


class FamilyCerts:
    """Reduction certificates of one pattern family, with index maps.

    Model coordinates are positions in the sorted surviving-index list;
    chain coordinates are positions in the sorted per-degree subset lists.
    Instances are shared and must be treated as read-only."""

    __slots__ = ("depth", "per_q", "pos", "active", "dims", "iota", "rho_t", "h")

    def __init__(self, x: ToricVariety, neg: tuple[int, ...]):
        _, _, depth = _subset_data(x)
        self.depth = depth
        per_q, active, iota, rho, h = _reduced_family(_pattern_family(x, neg), depth)
        self.per_q = per_q
        self.pos = [{T: i for i, T in enumerate(per_q[q])} for q in range(depth + 1)]
        self.active = [sorted(active[q]) for q in range(depth + 1)]
        self.dims = tuple(len(a) for a in self.active)
        self.iota = [[iota[q][i] for i in self.active[q]] for q in range(depth + 1)]
        self.rho_t = []
        for q in range(depth + 1):
            t: dict[int, list[tuple[int, Fraction]]] = {}
            for mpos, i in enumerate(self.active[q]):
                for c, v in rho[q][i].items():
                    t.setdefault(c, []).append((mpos, v))
            self.rho_t.append(t)
        self.h = h


@lru_cache(maxsize=None)
def family_certs(x: ToricVariety, neg: tuple[int, ...]) -> FamilyCerts:
    return FamilyCerts(x, neg)


def pattern_of(w: Sequence[int]) -> tuple[int, ...]:
    return tuple(i for i, v in enumerate(w) if v < 0)


def clear_caches() -> None:
    """Empty every in-process memo of this module and zero cache_counters.

    The memos grow for the life of the process."""
    for memo in (_reduce_memo, _fam_dims_memo, _points_cache):
        memo.clear()
    for k in cache_counters:
        cache_counters[k] = 0
    for fn in (_subset_data, _subset_rays, _nerve_dims, _ray_circuits,
               _circuit_patterns, _pattern_family, family_certs):
        fn.cache_clear()
