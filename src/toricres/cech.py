"""Cech pattern families of graded-module classes, with reduction data.

The Cech block of a class alpha at a Laurent exponent w of degree -alpha is
a family of nonempty subsets of the irrelevant generators, graded by size
minus one, with the incidence differential that inserts a generator with
the usual alternating sign.  At any uniform truncation level past the
depth of w, that family is the pattern family of w's negative-support
pattern, so the direct image needs one reduction per family.  A reduction
is a deformation retract onto the family's cohomology: inclusion iota
(model rows to chain columns), projection rho, homotopy h, and the
family's incidence differential D satisfy

    iota . D = 0,      D . rho = 0,        iota . rho = id,
    D_q h_q + h_{q-1} D_{q-1} = id - rho_q iota_q,
    iota h = 0,        h rho = 0,          h h = 0,

all in the row convention (composition left to right along arrows).  The
reduced differential is identically zero, so model dimensions are the
cohomology dimensions of the family.  A chain coordinate is the bitmask of
its generator subset, the same in every family.

A family F is upward closed: it holds every nonempty subset outside the
downward-closed Sigma of cone sets that share a negated ray (_sigma), so
it is never enumerated.  Generator 0 is a cone point, and
pairing each S in F without 0 with S + {0}, also in F, is an acyclic
matching of discrete Morse theory (Forman, "Morse theory for cell
complexes", Adv. Math. 134, 1998; Skoldberg, "Morse theory from an
algebraic viewpoint", Trans. AMS 358, 2006).  Each pair's incidence is +1,
as 0 comes first in S + {0}.  The critical cells K = {T in F : 0 in T,
T - {0} not in F} are {0}, when it is in F, and the S + {0} in F with S in
Sigma: a handful, read off Sigma.  The matching retracts F onto K by the
cone contraction h1[S + {0}] = {S: +1}, rho1 the coordinate projection onto
K, and iota1[T] = e_T - sum_j eps(j, T + {j}) e_(T - {0} + {j}) over the j
outside T with T - {0} + {j} in F, eps the incidence sign; the differential
it induces on K is D restricted to K.  A retract of K (iota_K, rho_K, h_K)
composes with it to iota = iota_K iota1, rho = rho1 rho_K and
h = h1 + rho1 h_K iota1.

FamilyCerts builds K alone and keeps iota_K, rho_K and h_K on it, which is
all the walks need.  Every cell of K holds generator 0, so rho and h vanish
on a chain without it, and the side entries of iota1 are such chains.  On
a chain that holds 0 but lies outside K, rho is 0 and h gives only
h1[c] = {c - {0}: 1}, a chain without 0.  A walk's phi step keeps every
chain's bitmask.  So a chain outside the current family's K never
contributes to a later projection, and a walk drops it.  The tests compose
iota1 and h1 back in and check the identities above on the whole family.

K is reduced by Gauss elimination over Z (_reduce_block), one pivot at a
time, the least unit entry under a fixed rule: the sparsest row, then the
least (row, column) by rank, each cell of K ranked by its place in
(size, lex) order, so rows of lower degree come first.  Rows, columns and
certificates are keyed by the cells' bitmasks themselves, and a
column-to-rows index finds the rows each pivot touches.  Each nonzero row
keeps its least key, so a pivot is the least of those keys, and only the
rows a pivot changes are keyed again.
Each pivot matches two cells with a unit incidence, as algebraic Morse
theory over Z asks (Skoldberg, above), so every certificate is integral.
No proof says that a unit is left while any entry is; that is checked at
run time, and a reduction that runs out of units raises MathFailure.

Which exponents carry cohomology at all is decided per variety and
negative-support pattern by the family reduction itself, for the patterns
that pass the ray-circuit screen of contributing_points and whose negated
rays share no max cone (such a pattern has an acyclic family).  The screen
is plain integer work.  The circuits of the rays come, once per
variety, from integer minors (qlinalg.cofactor_det) of the columns of the
degree kernel, the rays in another basis (_ray_circuits).  Each circuit
becomes a bitset over all sign patterns of those it can exclude.
Per class, one dot product with the fiber's base point decides both signs
of a circuit, the excluded patterns are the OR of the bitsets of the
circuits the fiber violates, and only the set bits of its complement, the
survivors, are visited.

Family reductions are memoized per process in one pattern table per
variety (pattern_table), by pattern bitmask.  The bitmask and the table
stay inside this module: contributing_points hands out each point with
its family, and family_certs, the one lookup from outside, takes an
exponent.  A memo by Sigma would save nothing more within a variety: on a polytope's normal fan Sigma determines the pattern, as its
maximal sets are the vertex sets of the pattern's facets and distinct
facets have incomparable vertex sets, so two patterns of one variety never
share a reduction.
"""
from __future__ import annotations

import itertools
import math
from functools import lru_cache, reduce
from operator import and_, itemgetter, mul
from types import SimpleNamespace
from typing import Iterable, Sequence

from .errors import MathFailure, ResourceGuard, UnsupportedGeometryError
from .qlinalg import cofactor_det
from .toric import ToricVariety, degree_fiber, fiber_points

Class = tuple[int, ...]


_GENERATOR_CAP = 16


def _down_closure(masks: Iterable[int]) -> frozenset[int]:
    """Every nonempty submask of the given bitmasks: the simplicial complex
    they span as facets."""
    out: set[int] = set()
    for m in masks:
        s = m
        while s:
            out.add(s)
            s = (s - 1) & m
    return frozenset(out)


@lru_cache(maxsize=None)
def _ray_cones(x: ToricVariety) -> tuple[int, ...]:
    """For each ray, the bitmask of the max cones (the irrelevant
    generators) that contain it.  _sigma enumerates every submask of each
    negated ray's mask, so a ray in more than _GENERATOR_CAP max cones is
    refused; the number of generators alone is not bounded."""
    out = tuple(sum(1 << j for j, cone in enumerate(x.max_cones) if rho in cone)
                for rho in range(x.n_rays))
    k = max(m.bit_count() for m in out)
    if k > _GENERATOR_CAP:
        raise ResourceGuard(
            f"a ray lies in {k} max cones, whose 2^{k} subsets Sigma would "
            f"enumerate; cap is 2^{_GENERATOR_CAP}")
    return out


def _sigma(x: ToricVariety, neg: tuple[int, ...]) -> frozenset[int]:
    """Sigma of pattern neg: the nonempty generator subsets whose cones share
    a ray of neg.  The pattern's family is every other nonempty subset: at
    any uniform level c, the family of an exponent w with depth(w) <= c is
    the family of its negative-support pattern."""
    cones = _ray_cones(x)
    return _down_closure(cones[rho] for rho in neg)


def _reduce_block(per_q: list[list], entries: dict[tuple, int]):
    """Fully reduce one block of integer maps over Z, pivoting on units
    only, and track the retract certificates.

    per_q[q] lists the cells of degree q, any hashables distinct across
    degrees, each degree in the order the pivot rule reads (_per_degree);
    entries maps (cell of degree q, cell of degree q + 1) to the nonzero
    entries of the maps.  A family reduction runs it on the critical cells
    K, subset bitmasks (see the module docstring).  A unit is its own
    inverse, so every certificate and every updated entry stays an int.
    Returns models, iota, rho and h, all in cells: models[q] the surviving
    cells of degree q in per_q order, iota[q][m] and rho[q][m] the chain
    covector and chain vector of model models[q][m], and h[q] (chain of
    degree q + 1 -> chain covector of degree q).

    Every cell has one rank, its place in per_q read degree after degree.
    The pivot is the nonzero entry with the least key (unit, fill, rank of
    its row, rank of its column): unit 0 for a +-1 entry, fill the number
    of other entries in its row.  Ranks order cells by degree first, so
    this is the least (unit, fill, degree, row, column) of the positions in
    per_q.  Entries of one row share fill and row, so the least key overall
    is the least of the rows' least keys.  keys[i] holds the least key of
    every nonzero row i: it is recomputed whenever that row changes and
    deleted when the row empties.  A column-to-rows index finds the rows a
    pivot touches.  A least key that is not a unit's means that no unit is
    left: that raises MathFailure, checked at run time rather than proven.
    """
    cells = list(itertools.chain.from_iterable(per_q))
    rank = {c: r for r, c in enumerate(cells)}
    d: dict = {}          # row cell -> {column cell: coeff}
    rows_of: dict = {}    # column cell -> the row cells with an entry there
    for (i, j), c in entries.items():
        if i in d:
            d[i][j] = c
        else:
            d[i] = {j: c}
        if j in rows_of:
            rows_of[j].add(i)
        else:
            rows_of[j] = {i}
    iota = {c: {c: 1} for c in cells}   # model row -> chain covector
    rho = {c: {c: 1} for c in cells}    # model col -> chain vector
    h: dict = {}                        # chain(q+1) -> {chain(q): c}
    keys = {}

    def rekey(i, row):
        if row:
            units = [rank[j] for j, a in row.items() if a == 1 or a == -1]
            keys[i] = ((0, len(row) - 1, rank[i], min(units)) if units else
                       (1, len(row) - 1, rank[i], min([rank[j] for j in row])))
        else:
            del d[i], keys[i]

    for i, row in d.items():
        rekey(i, row)

    while keys:
        non_unit, _, rank_i, rank_j = min(keys.values())
        if non_unit:
            raise MathFailure("no unit pivot left in a family reduction")
        pi, pj = cells[rank_i], cells[rank_j]
        row_piv = d.pop(pi)
        del keys[pi]
        a = row_piv.pop(pj)   # +-1, its own inverse
        for j in row_piv:
            rows_of[j].discard(pi)
        col_rows = rows_of.pop(pj)
        col_rows.discard(pi)
        col_entries = [(i, d[i].pop(pj)) for i in col_rows]
        row_entries = list(row_piv.items())

        # the pivot's row and column leave the models
        iota_piv = iota.pop(pi)
        rho_piv = rho.pop(pj)
        del rho[pi], iota[pj]

        # homotopy gains 1/a * (rho column at pivot) x (iota row at pivot)
        for c1, v1 in rho_piv.items():
            dst = h.setdefault(c1, {})
            for c0, v0 in iota_piv.items():
                s = dst.get(c0, 0) + v1 * v0 * a
                if s:
                    dst[c0] = s
                else:
                    del dst[c0]
            if not dst:
                del h[c1]

        # iota rows at q: subtract (C/a) * pivot row
        for i, cval in col_entries:
            f = cval * a
            tgt = iota[i]
            for c0, v0 in iota_piv.items():
                s = tgt.get(c0, 0) - f * v0
                if s:
                    tgt[c0] = s
                else:
                    tgt.pop(c0, None)
        # rho columns at q+1: subtract (B/a) * pivot column
        for j, bval in row_entries:
            f = bval * a
            tgt = rho[j]
            for c1, v1 in rho_piv.items():
                s = tgt.get(c1, 0) - f * v1
                if s:
                    tgt[c1] = s
                else:
                    tgt.pop(c1, None)

        # Schur complement; the pivot column already left every row
        for i, cval in col_entries:
            fi = cval * a
            ri = d[i]
            for j, bval in row_entries:
                s = ri.get(j, 0) - fi * bval
                if s:
                    if j not in ri:
                        rows_of[j].add(i)
                    ri[j] = s
                else:
                    del ri[j]
                    rows_of[j].discard(i)
            rekey(i, ri)

        # the pivot's column pj is a row one degree up, its row pi a column
        # one degree down
        row = d.pop(pj, None)
        if row is not None:
            del keys[pj]
            for j in row:
                rows_of[j].discard(pj)
        for i in rows_of.pop(pi, ()):
            r = d[i]
            del r[pi]
            rekey(i, r)

    models = [[c for c in level if c in iota] for level in per_q]
    return (models, [[iota[c] for c in m] for m in models],
            [[rho[c] for c in m] for m in models],
            [{c: h[c] for c in level if c in h} for level in per_q[1:]])


@lru_cache(maxsize=None)
def _members(T: int) -> tuple[int, ...]:
    """The set bits of bitmask T in increasing order: the generators of a
    subset, whose lex order they key, or the rays of a pattern."""
    return tuple(j for j in range(T.bit_length()) if T >> j & 1)


def _per_degree(cells: Iterable[int], depth: int) -> list[list[int]]:
    """Subset bitmasks grouped by Cech degree, each group in lex order of
    the subsets: the order of the pivot rule."""
    per_q: list[list[int]] = [[] for _ in range(depth + 1)]
    for T in cells:
        per_q[T.bit_count() - 1].append(T)
    for group in per_q:
        group.sort(key=_members)
    return per_q


def _block_entries(per_q: list[list[int]]) -> dict[tuple[int, int], int]:
    """Signed incidence entries of a block of subset bitmasks, keyed by
    (T, U) for T = U - {j} in the block: inserting generator j into T has
    sign (-1)^#{t in T : t < j}."""
    cells = set(itertools.chain.from_iterable(per_q))
    out = {}
    for level in per_q[1:]:
        for U in level:
            for j in _members(U):
                b = 1 << j
                T = U ^ b
                if T in cells:
                    out[(T, U)] = -1 if (T & (b - 1)).bit_count() % 2 else 1
    return out


# -- contributing patterns and points ------------------------------------------

_PATTERN_RAY_CAP = 16


@lru_cache(maxsize=None)
def _ray_circuits(x: ToricVariety) -> tuple[tuple[tuple[int, ...], int, int, int], ...]:
    """Every circuit of the ray configuration, in both signs.

    A circuit is a primitive integer relation sum a_rho u_rho = 0 whose
    support holds no smaller relation; it has at most dim + 1 rays.  The
    rays are read as the columns of the degree kernel (the rays in a basis
    of the character lattice).  A change of basis keeps every linear
    relation, so the circuits of the kernel columns are those of the rays,
    and a . u is constant on every degree fiber.

    Supports are tried by size, and one that holds a circuit already found
    is skipped, so every proper subset of a support tried is independent.
    Such a support S of size s is a circuit exactly when it is dependent.
    Its relation comes from integer minors (qlinalg.cofactor_det): for
    s - 1 coordinate rows R with some nonzero (s - 1)-minor on S, the
    cofactors a_j = (-1)^j det(rows R, columns S - {j}) span the relations
    of those rows, and S is a circuit when a is orthogonal to the rest too.
    a is divided by the gcd of its entries.

    Each entry is (a, positive-support mask, negative-support mask, c_a),
    with c_a the sum of |a_rho| over a_rho < 0; the two signs of a circuit
    are adjacent, a first."""
    _, kernel = degree_fiber(x, (0,) * x.class_rank)
    rays = list(zip(*kernel))   # the rays in the kernel basis
    found: set[int] = set()     # supports of the circuits so far, as bitmasks
    out = []
    for size in range(1, x.dim + 2):
        for S in itertools.combinations(range(x.n_rays), size):
            bits = sum(1 << rho for rho in S)
            sub = (bits - 1) & bits
            while sub and sub not in found:
                sub = (sub - 1) & bits
            if sub:
                continue   # holds a smaller circuit
            rows = list(zip(*[rays[rho] for rho in S]))
            for chosen in itertools.combinations(rows, size - 1):
                minors = [cofactor_det([r[:j] + r[j + 1:] for r in chosen])
                          for j in range(size)]
                if any(minors):
                    break
            else:
                continue   # never taken: S less one ray is independent
            rel = [-v if j % 2 else v for j, v in enumerate(minors)]
            if any(sum(map(mul, rel, r)) for r in rows):
                continue   # S is independent
            found.add(bits)
            g = math.gcd(*rel)
            a = [0] * x.n_rays
            for rho, v in zip(S, rel):
                a[rho] = v // g
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


@lru_cache(maxsize=None)
def contributing_points(x: ToricVariety,
                        alpha: Class) -> tuple[tuple[tuple[int, ...], FamilyCerts], ...]:
    """All (exponent, family) pairs whose blocks carry cohomology, sorted by
    exponent; the family is the one reduced to decide the pattern.

    These exponents support every cohomology model of the class: the block
    of each is the family of its pattern, and every other exponent of the
    degree fiber has a pattern whose family carries no cohomology in degrees
    up to dim X, so it reduces to nothing there.

    All 2^#rays patterns are screened by the ray circuits first: the
    patterns excluded for this class are the OR of the pattern bitsets
    (_circuit_patterns, built once per variety) of the circuits the fiber
    violates, and each pattern is one bit of it.  The survivors are looked
    at lowest bitmask first.  One whose negated rays share a max cone is
    skipped: Sigma is then a cone, contractible like the full simplex, so
    the family, their difference, carries the cohomology of the pair, which
    is zero.  Every other has its family looked up in the variety's pattern
    table, and is walked by fiber_points when the family has cohomology in
    some q <= dim.
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
    if x.n_rays > _PATTERN_RAY_CAP:
        raise UnsupportedGeometryError(
            f"support patterns need 2^{x.n_rays} checks; "
            f"cap is 2^{_PATTERN_RAY_CAP}")
    target = tuple(-a for a in alpha)
    u0, kernel = degree_fiber(x, target)
    pts = []
    if u0 is not None:
        circuits, patterns = _ray_circuits(x), _circuit_patterns(x)
        excluded = 0
        # one dot product per sign pair: (-a) . u0 = -(a . u0)
        for (a, _, _, c), (_, _, _, c_minus), p, p_minus in zip(
                circuits[::2], circuits[1::2], patterns[::2], patterns[1::2]):
            dot = sum(map(mul, a, u0))
            if dot < c:
                excluded |= p
            if -dot < c_minus:
                excluded |= p_minus
        # no real point of the fiber has an excluded pattern
        survivors = ((1 << (1 << x.n_rays)) - 1) & ~excluded
        table, cones = pattern_table(x), _ray_cones(x)
        while survivors:
            low = survivors & -survivors
            survivors ^= low
            bits = low.bit_length() - 1
            neg = _members(bits)
            if neg and reduce(and_, [cones[rho] for rho in neg]):
                continue   # Sigma is a cone: no cohomology at all
            family = table[bits]
            if any(family.dims[:x.dim + 1]):
                # w <= -1 on the rays in neg, w >= 0 on the others
                signs = [(-1, 1) if rho in neg else (1, 0) for rho in range(x.n_rays)]
                pts.extend((w, family) for w in fiber_points(u0, kernel, signs))
    return tuple(sorted(pts, key=itemgetter(0)))


# -- block-level access ------------------------------------------------------------

# Family reductions by source.  Only the pattern tables hold them, so every
# miss is a build: "memory" and "disk" are always 0, and stay because
# perfbench/trace.py reads all three keys.
cache_counters = {"memory": 0, "disk": 0, "built": 0}


class FamilyCerts:
    """Reduction certificates of the family of one Sigma on n generators,
    on its critical cells K alone (see the module docstring).

    K is reduced by _reduce_block, its cells the subset bitmasks in
    (size, lex) order, so every certificate comes out keyed by bitmask.
    Model coordinates of degree q are positions in active[q], the
    surviving cells of K of degree q in that order.  iota[q][m] is model
    m's covector iota_K, rho_t[q] maps a chain to its (model, value) pairs,
    and h[q] holds the nonzero rows of h_K, from cells of degree q + 1 to
    cells of degree q.

    A Sigma that holds some U with generator 0 but not U - {0} raises
    MathFailure: its family is then not closed under adding generator 0,
    and K would not be the critical cells.  Instances are shared and must
    be treated as read-only."""

    __slots__ = ("active", "dims", "iota", "rho_t", "h")

    def __init__(self, sigma: frozenset[int], n: int):
        if any(U & 1 and U != 1 and U ^ 1 not in sigma for U in sigma):
            raise MathFailure("subset family not closed under adding generator 0")
        per_k = _per_degree({S | 1 for S in (0, *sigma)} - sigma, n - 1)
        self.active, self.iota, rho, self.h = _reduce_block(per_k, _block_entries(per_k))
        self.dims = tuple(map(len, self.active))
        self.rho_t = []
        for rho_q in rho:
            t: dict[int, list[tuple[int, int]]] = {}
            for mpos, vec in enumerate(rho_q):
                for c, v in vec.items():
                    t.setdefault(c, []).append((mpos, v))
            self.rho_t.append(t)


class _PatternTable(dict):
    """The family reductions of one variety, by pattern bitmask (bit rho
    for a negated ray rho), built on first lookup: the only family memo."""

    __slots__ = ("x",)

    def __init__(self, x: ToricVariety):
        super().__init__()
        self.x = x

    def __missing__(self, bits: int) -> FamilyCerts:
        certs = self[bits] = FamilyCerts(_sigma(self.x, _members(bits)),
                                         len(self.x.max_cones))
        cache_counters["built"] += 1
        return certs


_TABLES: dict[ToricVariety, _PatternTable] = {}


def pattern_table(x: ToricVariety) -> _PatternTable:
    """The pattern table of x, one per variety for the life of the process
    (or until clear_caches); equal varieties share it."""
    table = _TABLES.get(x)
    if table is None:
        table = _TABLES[x] = _PatternTable(x)
    return table


def family_certs(x: ToricVariety, w: Sequence[int]) -> FamilyCerts:
    """The certificates of the family of exponent w's negative-support
    pattern: its entry in the pattern table of x, built on first lookup."""
    return pattern_table(x)[sum(1 << rho for rho, v in enumerate(w) if v < 0)]


def _memo_info() -> SimpleNamespace:
    """The memo of family_certs in the terms of functools.lru_cache's
    cache_info, which perfbench/trace.py reads: every miss is a build, and
    currsize counts the families of every pattern table."""
    return SimpleNamespace(misses=cache_counters["built"],
                           currsize=sum(map(len, _TABLES.values())))


family_certs.cache_info = _memo_info


def clear_caches() -> None:
    """Empty every in-process memo of this module, the pattern tables
    among them, and zero cache_counters.

    The memos grow for the life of the process."""
    for k in cache_counters:
        cache_counters[k] = 0
    _TABLES.clear()
    for fn in (_ray_cones, _members, _ray_circuits, _circuit_patterns,
               contributing_points):
        fn.cache_clear()
