"""Plain reference routines that only tests use: matrix products, dense
inverses and determinants, row-vector products, the saturated integer
kernel, polynomial substitution, the facets and vertices of a point set
by brute force, the lattice points of a degree window, the ray circuits
by Smith forms, the eager Cech support-pattern table, explicit Cech
subset families, the retract identities of a reduced Cech family, the
direct total complex on window-truncated Cech strands, the named
staircase blocks of a direct image, the univariate resultant by the
Sylvester matrix, the initial monomial of the resultant under a lifting
by mixed cells, and the incidence oracle: coefficient samples with a
shared torus zero, fully random ones, and the exact zero test of delta
at either.

The strand of a class alpha at a truncation level e has, in Cech degree
q, one basis vector per pair (T, w): T a size-(q+1) set of irrelevant
generators and w a Laurent exponent vector of degree -alpha lying in the
window w >= L_T, where L_T = -exp(lcm of f_j^{e_j} over j in T) is the
truncation bound at level e (the dual Taylor term of the generator powers
f_j^{e_j}; unlike the product-localization window this one stabilizes
level by level).  Subsets run over the full range of sizes
1..#generators, so at exact levels every model dimension above dim X
vanishes.  The differential inserts a generator with the usual
alternating sign and never changes w, so the whole strand splits as a
direct sum of small complexes, one per exponent vector w.  strand_dims
ranks these blocks level by level; it is the independent check of the
stabilization level, and its blocks are the chains of the direct total
complex, the independent check of the staircase construction.
"""
from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from helpers_poly import degree_in, evaluate
from toricres import cech
from toricres.complexes import FreeGradedComplex
from toricres.errors import InputError, MathFailure, ResourceGuard
from toricres.qlinalg import QMatrix, cnorm, int_rank, smith_kernel, smith_normal_form
from toricres.qpoly import PolyMatrix, SparsePoly
from toricres.toric import SupportProblem, ToricVariety, degree_fiber, fiber_points
from toricres.weyman import WeymanComplex


def identity(n: int) -> QMatrix:
    return QMatrix(n, n, [{i: 1} for i in range(n)])


def to_dense(m: QMatrix) -> list[list]:
    return [[r.get(j, 0) for j in range(m.ncols)] for r in m.rows]


def matmul(a: QMatrix, b: QMatrix) -> QMatrix:
    """The product a @ b in the row convention."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} @ {b.nrows}x{b.ncols}")
    rows = dict(enumerate(b.rows))
    return QMatrix(a.nrows, b.ncols, [_row_times(r, rows) for r in a.rows])


def int_matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    if not a or not b:
        return []
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def apply_row(m: QMatrix, v: Mapping[int, Fraction | int]) -> dict:
    """Row vector times matrix: w with w[j] = sum v[i] * m[i][j]."""
    out: dict = {}
    for i, c in v.items():
        for j, d in m.rows[i].items():
            out[j] = out.get(j, 0) + c * d
    return {j: cnorm(c) for j, c in out.items() if c}


def inverse(m: QMatrix) -> QMatrix:
    """Gauss-Jordan inverse over Fraction; ValueError if m is not invertible."""
    if m.nrows != m.ncols:
        raise ValueError("inverse of a non-square matrix")
    n = m.nrows
    a = [[Fraction(m.get(i, j)) for j in range(n)] for i in range(n)]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            raise ValueError("singular matrix")
        a[col], a[piv] = a[piv], a[col]
        inv[col], inv[piv] = inv[piv], inv[col]
        p = a[col][col]
        a[col] = [x / p for x in a[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col]:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return QMatrix.from_dense(inv, n)


def int_det(a: Sequence[Sequence[int]]) -> int:
    """Fraction-free (Bareiss) determinant of a square integer matrix."""
    n = len(a)
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign, prev = 1, 1
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if m[r][k]), None)
        if piv is None:
            return 0
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: Sequence[Sequence[int]]) -> bool:
    return len(a) > 0 and len(a) == len(a[0]) and int_det(a) in (1, -1)


def int_kernel_basis(a: list[list[int]]) -> list[list[int]]:
    """Basis of the saturated kernel {x in Z^m : a @ x = 0}, as columns."""
    return smith_kernel(smith_normal_form(a))


def substitute(p: SparsePoly, images: Mapping[str, SparsePoly],
               variables: Sequence[str]) -> SparsePoly:
    """Ring map sending each variable of p to images[name], over `variables`."""
    new_vars = tuple(variables)
    out = SparsePoly.zero(new_vars)
    for e, c in p.terms.items():
        term = SparsePoly.const(new_vars, c)
        for v, k in zip(p.vars, e):
            if images[v].vars != new_vars:
                raise ValueError("image variables out of step")
            for _ in range(k):
                term = term * images[v]
        out = out + term
    return out


def facets_by_brute_force(points) -> list[tuple[tuple[int, ...], int]]:
    """toric.facet_normals by brute force: through every d-subset of the
    points, the cofactor normal of its difference vectors (the i-th entry
    is (-1)^i times the minor without column i), kept with either sign when
    every point lies on its nonnegative side.  Each normal comes with the
    mask of the points of sorted(set(points)) it is tight at."""
    pts = sorted(set(points))
    d = len(pts[0])
    out = set()
    for sub in itertools.combinations(pts, d):
        diffs = [[a - b for a, b in zip(p, sub[0])] for p in sub[1:]]
        n = [(-1) ** i * int_det([row[:i] + row[i + 1:] for row in diffs]) for i in range(d)]
        if not any(n):
            continue
        g = math.gcd(*n)
        for u in (tuple(v // g for v in n), tuple(-v // g for v in n)):
            values = [sum(a * b for a, b in zip(u, p)) for p in pts]
            level = sum(a * b for a, b in zip(u, sub[0]))
            if min(values) == level:
                out.add((u, sum(1 << k for k, v in enumerate(values) if v == level)))
    return sorted(out)


def max_cones_by_rank(points, normals) -> tuple[tuple[int, ...], ...]:
    """The max cones of the normal fan: at each point, the normals whose
    minimum it attains, kept when they have full rank (a vertex)."""
    pts = sorted(set(points))
    levels = [min(sum(a * b for a, b in zip(u, p)) for p in pts) for u in normals]
    cones = set()
    for p in pts:
        active = [r for r, u in enumerate(normals)
                  if sum(a * b for a, b in zip(u, p)) == levels[r]]
        if active and int_rank([list(normals[r]) for r in active]) == len(p):
            cones.add(tuple(active))
    return tuple(sorted(cones))


def lattice_points_in_window(x, alpha: Sequence[int],
                             lower: Sequence[int]) -> list[tuple[int, ...]]:
    """All u in Z^rays with degree(u) = alpha and u >= lower componentwise."""
    u0, kernel = degree_fiber(x, tuple(alpha))
    if u0 is None:
        return []
    return sorted(fiber_points(u0, kernel, [(1, b) for b in lower]))


def pattern_certs(x, neg) -> cech.FamilyCerts:
    """cech.family_certs of the family of pattern neg, looked up by the
    exponent with that pattern that is -1 on the rays of neg and 0 on the
    others."""
    return cech.family_certs(x, [-1 if rho in neg else 0 for rho in range(x.n_rays)])


def support_patterns(x) -> tuple[tuple[int, ...], ...]:
    """Every negative-support pattern whose family carries cohomology in some
    degree q <= dim, in bitmask order: the certificate family of each of
    the 2^#rays patterns reduced, with no screen."""
    q_top = min(x.dim, len(x.max_cones) - 1)
    out = []
    for bits in range(1 << x.n_rays):
        neg = tuple(rho for rho in range(x.n_rays) if bits >> rho & 1)
        if any(pattern_certs(x, neg).dims[:q_top + 1]):
            out.append(neg)
    return tuple(out)


def ray_circuits_by_smith(x: ToricVariety) -> frozenset[tuple[tuple[int, ...], int, int, int]]:
    """The entries of cech._ray_circuits, as a set: every circuit of the
    rays in both signs, each support's relation read off the Smith-form
    kernel of the degree kernel's columns on it.  A support holding a
    smaller circuit is skipped; one whose kernel is a single vector with
    no zero entry is a circuit."""
    _, kernel = degree_fiber(x, (0,) * x.class_rank)
    found: list[int] = []
    out = set()
    for size in range(1, x.dim + 2):
        for S in itertools.combinations(range(x.n_rays), size):
            bits = sum(1 << rho for rho in S)
            if any(c & bits == c for c in found):
                continue
            basis = int_kernel_basis([[k[rho] for rho in S] for k in kernel])
            if len(basis) != 1 or not all(basis[0]):
                continue
            found.append(bits)
            a = [0] * x.n_rays
            for rho, v in zip(S, basis[0]):
                a[rho] = v
            for sa in (a, [-v for v in a]):
                pos = sum(1 << rho for rho, v in enumerate(sa) if v > 0)
                out.add((tuple(sa), pos, bits & ~pos, sum(-v for v in sa if v < 0)))
    return frozenset(out)


# -- explicit Cech subset families ------------------------------------------------

def generator_subsets(n: int) -> tuple[tuple[int, ...], ...]:
    """Every nonempty subset of n generators, by size, then in lex order."""
    return tuple(T for size in range(1, n + 1)
                 for T in itertools.combinations(range(n), size))


def subset_mask(T) -> int:
    return sum(1 << j for j in T)


def pattern_family(x, neg) -> tuple[tuple[int, ...], ...]:
    """The subsets whose cones have no common ray that the pattern negates,
    enumerated from intersections of cone frozensets."""
    cones = [frozenset(c) for c in x.max_cones]
    return tuple(T for T in generator_subsets(len(cones))
                 if not set(neg) & frozenset.intersection(*(cones[j] for j in T)))


def family_sigma(fam, n: int) -> frozenset[int]:
    """Sigma of an upward-closed family on n generators: the bitmasks of the
    nonempty subsets outside it."""
    members = set(fam)
    return frozenset(subset_mask(T) for T in generator_subsets(n) if T not in members)


def family_block(per_q) -> list[dict[tuple[int, int], int]]:
    """Incidence entries between consecutive degrees of subsets given per
    degree, by position: inserting j into T, with sign (-1)^(position of
    j in T + {j})."""
    entries = []
    for lower, upper in zip(per_q, per_q[1:]):
        index = {T: i for i, T in enumerate(upper)}
        ent = {}
        for i, T in enumerate(lower):
            for j in range(len(per_q)):
                T2 = tuple(sorted(T + (j,)))
                if j not in T and T2 in index:
                    ent[(i, index[T2])] = -1 if T2.index(j) % 2 else 1
        entries.append(ent)
    return entries


def by_degree(fam, n: int) -> list[list[tuple[int, ...]]]:
    return [sorted(T for T in fam if len(T) == q + 1) for q in range(n)]


def by_cell(per_q, entries) -> dict:
    """Incidence entries given per degree by position, as family_block
    gives them, keyed by (row cell, column cell) instead: the entries
    cech._reduce_block takes.  The cells of per_q must be distinct across
    degrees."""
    return {(per_q[q][i], per_q[q + 1][j]): c
            for q, ent in enumerate(entries) for (i, j), c in ent.items()}


def by_position_entries(per_q, entries: Mapping) -> list[dict[tuple[int, int], int]]:
    """The inverse of by_cell: entries keyed by cell, per degree by
    position."""
    pos = [{c: i for i, c in enumerate(level)} for level in per_q]
    degree = {c: q for q, level in enumerate(per_q) for c in level}
    out: list[dict[tuple[int, int], int]] = [{} for _ in per_q[1:]]
    for (a, b), c in entries.items():
        q = degree[a]
        out[q][(pos[q][a], pos[q + 1][b])] = c
    return out


def by_position(per_q, red):
    """A cech._reduce_block reduction, whose models and certificates are
    in cells, keyed by position in per_q instead: the surviving
    positions per degree as sets, and iota, rho and h, as the rescan
    reference of the tests returns them and retract_identity_failures
    takes them."""
    models, iota, rho, h = red
    pos = [{c: i for i, c in enumerate(level)} for level in per_q]

    def at(q, vec):
        return {pos[q][c]: v for c, v in vec.items()}

    return ([{pos[q][c] for c in m} for q, m in enumerate(models)],
            [{pos[q][c]: at(q, v) for c, v in zip(m, iota[q])} for q, m in enumerate(models)],
            [{pos[q][c]: at(q, v) for c, v in zip(m, rho[q])} for q, m in enumerate(models)],
            [{pos[q + 1][c]: at(q, row) for c, row in level.items()}
             for q, level in enumerate(h)])


def rank_dims(per_q, entries) -> tuple[int, ...]:
    """Cohomology dimensions of a block given per degree with its incidence
    entries (family_block), every rank taken over Q by QMatrix.rank:
    dims[q] = size q - rank d_q - rank d_(q-1)."""
    sizes = [len(level) for level in per_q]
    ranks = []
    for q, ent in enumerate(entries):
        m = QMatrix(sizes[q], sizes[q + 1])
        for (i, j), c in ent.items():
            m.rows[i][j] = c
        ranks.append(m.rank())
    ranks.append(0)   # no map leaves the top degree
    return tuple(size - ranks[q] - (ranks[q - 1] if q else 0)
                 for q, size in enumerate(sizes))


@lru_cache(maxsize=None)
def family_rank_dims(fam: tuple[tuple[int, ...], ...], n: int) -> tuple[int, ...]:
    """rank_dims of a family of generator subsets on n generators, memoized
    so that each distinct family is ranked once per test session."""
    per_q = by_degree(fam, n)
    return rank_dims(per_q, family_block(per_q))


def expanded_certs(c: cech.FamilyCerts, sigma: frozenset[int]):
    """A FamilyCerts of Sigma spelled out on its whole family, as the
    arguments of retract_identity_failures: the family's subsets per degree
    in sorted order, its incidence entries, and active, iota, rho and h
    keyed by position.  The certificates live on the critical cells K; this
    composes the cone contraction back in, iota = iota_K iota1 and
    h = h1 + rho1 h_K iota1 with
    iota1[T] = e_T - sum_j eps(j, T + {j}) e_(T - {0} + {j}) over the j
    outside T with T - {0} + {j} in the family, and the cone rows
    h1[S + {0}] = {S: 1} for every nonempty family member S without
    generator 0; rho is rho_K, as rho1 is the coordinate projection onto K."""
    n = len(c.active)
    fam = [T for T in generator_subsets(n) if subset_mask(T) not in sigma]
    per_q = by_degree(fam, n)
    pos = [{subset_mask(T): i for i, T in enumerate(level)} for level in per_q]

    def at(q, row):
        """A covector on cells of K, composed with iota1, by position."""
        out: dict = {}
        for T, v in row.items():
            if not T & 1 or T != 1 and T ^ 1 not in sigma:
                raise MathFailure(f"certificate chain {T:b} is not a critical cell")
            terms = {T: 1}
            for j in range(1, n):
                b = 1 << j
                if not T & b and T ^ 1 | b not in sigma:
                    # minus the incidence sign of j in T + {j}
                    terms[T ^ 1 | b] = 1 if (T & (b - 1)).bit_count() % 2 else -1
            for chain, e in terms.items():
                out[pos[q][chain]] = out.get(pos[q][chain], 0) + v * e
        return {i: cnorm(v) for i, v in out.items() if v}

    active = [{pos[q][T] for T in c.active[q]} for q in range(n)]
    iota = [{pos[q][T]: at(q, row) for T, row in zip(c.active[q], c.iota[q])}
            for q in range(n)]
    rho = [{pos[q][T]: {} for T in c.active[q]} for q in range(n)]
    for q in range(n):
        for chain, pairs in c.rho_t[q].items():
            for mpos, v in pairs:
                rho[q][pos[q][c.active[q][mpos]]][pos[q][chain]] = v
    h = [{pos[q + 1][T]: at(q, row) for T, row in c.h[q].items()} for q in range(n - 1)]
    for q in range(n - 1):
        for T in per_q[q + 1]:
            S = T[1:]
            if T[0] == 0 and subset_mask(S) in pos[q]:
                if pos[q + 1][subset_mask(T)] in h[q]:
                    raise MathFailure(f"stored homotopy row on the cone pair {T}")
                h[q][pos[q + 1][subset_mask(T)]] = {pos[q][subset_mask(S)]: 1}
    return per_q, family_block(per_q), active, iota, rho, h


# -- retract identities of one reduced Cech family -------------------------------

def _row_times(row: Mapping, m: Mapping) -> dict:
    """A sparse row vector times a sparse matrix given as row -> {col: value}."""
    out: dict = {}
    for k, c in row.items():
        for j, d in m.get(k, {}).items():
            out[j] = out.get(j, 0) + c * d
    return {j: v for j, v in out.items() if v}


def _product(a: Mapping, b: Mapping) -> dict:
    out = {i: _row_times(r, b) for i, r in a.items()}
    return {i: r for i, r in out.items() if r}


def _plus(a: Mapping, b: Mapping) -> dict:
    out = {i: dict(r) for i, r in a.items()}
    for i, r in b.items():
        dst = out.setdefault(i, {})
        for j, v in r.items():
            dst[j] = dst.get(j, 0) + v
    out = {i: {j: v for j, v in r.items() if v} for i, r in out.items()}
    return {i: r for i, r in out.items() if r}


def retract_identity_failures(per_q, entries, active, iota, rho, h) -> list[str]:
    """The retract identities that a reduced family breaks, checked exactly.

    The family is given as its per-degree chain subsets and incidence
    entries (D_q: chains_q -> chains_(q+1), entries[q][(i, j)]) and as the
    reduction of _reduce_block by position (by_position): surviving
    indices, iota (model row -> chain covector), rho (model column ->
    chain vector) and h (chain of degree q+1 -> chain covector of
    degree q).  In the row convention,
    with I_q = iota, R_q = rho and H_q = h as matrices, it checks
    D_q D_(q+1) = 0, I D = 0, D R = 0, I R = id,
    D_q H_q + H_(q-1) D_(q-1) = id - R_q I_q, I H = 0, H R = 0 and
    H H = 0.  Returns the names of the failing identities with their
    degree; an empty list means all hold."""
    n = len(per_q)
    D = [{} for _ in range(n - 1)]
    for q, ent in enumerate(entries):
        for (i, j), c in ent.items():
            D[q].setdefault(i, {})[j] = c
    I = [{m: iota[q][m] for m in active[q]} for q in range(n)]
    R = [{} for _ in range(n)]
    for q in range(n):
        for m in active[q]:
            for c, v in rho[q][m].items():
                R[q].setdefault(c, {})[m] = v
    H = [{i: r for i, r in level.items() if r} for level in h]

    def ident(keys):
        return {k: {k: 1} for k in keys}

    bad = []

    def check(name, q, got, want):
        if got != want:
            bad.append(f"{name} at q={q}")

    for q in range(n):
        check("model indices", q, (set(iota[q]), set(rho[q])), (active[q], active[q]))
        check("iota rho = id", q, _product(I[q], R[q]), ident(active[q]))
        if q < n - 1:
            check("iota D = 0", q, _product(I[q], D[q]), {})
            check("D rho = 0", q, _product(D[q], R[q + 1]), {})
            check("h rho = 0", q, _product(H[q], R[q]), {})
        if q < n - 2:
            check("D D = 0", q, _product(D[q], D[q + 1]), {})
        if q > 0:
            check("iota h = 0", q, _product(I[q], H[q - 1]), {})
        if 0 < q < n - 1:
            check("h h = 0", q, _product(H[q], H[q - 1]), {})
        lhs = _plus(_product(D[q], H[q]) if q < n - 1 else {},
                    _product(H[q - 1], D[q - 1]) if q else {})
        check("Dh + hD = id - rho iota", q, _plus(lhs, _product(R[q], I[q])),
              ident(range(len(per_q[q]))))
    return bad


# -- window-truncated Cech strands ------------------------------------------------

def irrelevant_exponents(x: ToricVariety) -> tuple[tuple[int, ...], ...]:
    """Exponent vector of the monomial generator attached to each cone."""
    out = []
    for cone in x.max_cones:
        inside = set(cone)
        out.append(tuple(0 if r in inside else 1 for r in range(x.n_rays)))
    return tuple(out)


def _window_bound(gens, subset: tuple[int, ...], e: Sequence[int]) -> tuple[int, ...]:
    # lcm of the f_j^{e_j} over j in the subset, negated: the term for the
    # subset is Hom of the corresponding Taylor summand, not the product
    # localization (the product window breaks level-by-level stabilization).
    r = len(gens[0])
    out = [0] * r
    for j in subset:
        g = gens[j]
        for rho in range(r):
            out[rho] = min(out[rho], -e[j] * g[rho])
    return tuple(out)


def strand_blocks(x: ToricVariety, alpha: Sequence[int], e: Sequence[int]):
    """Per-exponent blocks of the strand: for each w, the upward-closed
    family of subsets whose window contains w, grouped by Cech degree."""
    gens, depth = irrelevant_exponents(x), len(x.max_cones) - 1
    subsets = generator_subsets(depth + 1)
    target = tuple(-a for a in alpha)
    u0, kernel = degree_fiber(x, target)
    if u0 is None:
        return depth, []
    bounds = {T: _window_bound(gens, T, e) for T in subsets}
    top_size = depth + 1
    seen: set[tuple[int, ...]] = set()
    for T in subsets:
        if len(T) == top_size:
            seen.update(fiber_points(u0, kernel, [(1, b) for b in bounds[T]]))
    blocks = []
    for w in sorted(seen):
        fam = tuple(T for T in subsets
                    if all(a >= b for a, b in zip(w, bounds[T])))
        if fam:
            blocks.append((w, fam))
    return depth, blocks


def strand_dims(x: ToricVariety, alpha: Sequence[int], e: Sequence[int]) -> tuple[int, ...]:
    """Cohomology dimensions of the truncated strand, one per Cech degree.

    Rank-only: no certificates are produced (family_rank_dims)."""
    depth, blocks = strand_blocks(x, alpha, e)
    dims = [0] * (depth + 1)
    for w, fam in blocks:
        for q, v in enumerate(family_rank_dims(fam, depth + 1)):
            dims[q] += v
    return tuple(dims)


def stabilization_level(x: ToricVariety, alpha: Sequence[int]) -> tuple[int, ...]:
    """Smallest uniform level at which the strand dimensions are exact.

    The strand at level c*(1,..,1) is the direct sum of the full blocks of
    the fiber exponents of depth at most c, so dimensions are nondecreasing
    in c and constant once c reaches the deepest exponent whose support
    pattern carries cohomology.  That depth is computed exactly: enumerate
    each contributing pattern's fiber polytope and take the max depth."""
    c = 0
    for w, _ in cech.contributing_points(x, alpha):
        c = max(c, -min(w))
    return (c,) * len(x.max_cones)


# -- the direct total complex ---------------------------------------------------

ORACLE_LABEL_CAP = 400000


def _specialized_rank(d: PolyMatrix, assign: Mapping[str, Fraction]) -> int:
    m = QMatrix(d.nrows, d.ncols)
    for r in range(d.nrows):
        for c, p in enumerate(d.rows[r]):
            if p:
                v = evaluate(p, assign)
                if v:
                    m.rows[r][c] = Fraction(v)
    return m.rank()


def specialized_homology(complex_, assign: Mapping[str, Fraction]) -> dict[int, int]:
    """Homology dimensions of a WeymanComplex or a TotalComplex after
    evaluating all parameters."""
    ranks = {i: _specialized_rank(d, assign) for i, d in complex_.diffs.items()}
    return {i: complex_.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
            for i in complex_.degrees()}


@dataclass
class TotalComplex:
    """The unreduced total complex over R, on truncated Cech chains."""

    source: FreeGradedComplex
    e: tuple[int, ...]
    basis: dict[int, list[tuple]]           # i -> [(p, k, T, w)]
    diffs: dict[int, PolyMatrix]

    def rank(self, i: int) -> int:
        return len(self.basis.get(i, []))

    def degrees(self) -> list[int]:
        return sorted(self.basis)


def total_complex_direct(C: FreeGradedComplex, e: Sequence[int]) -> TotalComplex:
    """Assemble the double complex of truncated Cech chains directly.

    Vertical maps are the Cech differentials weighted by (-1)^p per column,
    horizontal maps the complex differentials acting on exponents; this is
    the independent reference point for the staircase construction, with the
    same homology in every degree."""
    C.validate()
    x = C.x
    pv = C.param_vars
    e = tuple(int(v) for v in e)

    basis: dict[int, list[tuple]] = {}
    for p in sorted(C.degrees):
        for k, alpha in enumerate(C.degrees[p]):
            depth, blocks = strand_blocks(x, alpha, e)
            for w, fam in blocks:
                for T in fam:
                    basis.setdefault(p + len(T) - 1, []).append((p, k, T, w))
    total = sum(len(v) for v in basis.values())
    if total > ORACLE_LABEL_CAP:
        raise ResourceGuard(
            f"direct total complex needs {total} chain labels (cap "
            f"{ORACLE_LABEL_CAP}); use the staircase construction instead")
    pos = {i: {lab: n for n, lab in enumerate(labs)}
           for i, labs in basis.items()}

    diffs: dict[int, PolyMatrix] = {}
    for i in sorted(basis):
        if i + 1 not in basis:
            continue
        m = PolyMatrix(len(basis[i]), len(basis[i + 1]), pv)
        tpos = pos[i + 1]
        for rown, (p, k, T, w) in enumerate(basis[i]):
            # vertical: insert one generator, alternating sign, column sign
            csign = -1 if p % 2 else 1
            for j in range(len(x.max_cones)):
                if j in T:
                    continue
                T2 = tuple(sorted(T + (j,)))
                col = tpos.get((p, k, T2, w))
                if col is None:
                    raise MathFailure("chain label missing from the window")
                sgn = csign * (-1 if T2.index(j) % 2 else 1)
                m.rows[rown][col] = SparsePoly.const(pv, sgn)
            # horizontal: multiply by the complex differential entries
            if p in C.diffs:
                for l, f in enumerate(C.diff_at(p).rows[k]):
                    by_nu: dict = {}   # the terms of f grouped by Cox exponent
                    for e, coef in f.terms.items():
                        by_nu.setdefault(e[C.n_params:], {})[e[:C.n_params]] = coef
                    for nu, g in by_nu.items():
                        w2 = tuple(a + b for a, b in zip(w, nu))
                        col = tpos.get((p + 1, l, T, w2))
                        if col is None:
                            raise MathFailure("exponent left the window")
                        m.rows[rown][col] = m.rows[rown][col] + SparsePoly(pv, g)
        diffs[i] = m
    return TotalComplex(source=C, e=e, basis=basis, diffs=diffs)


# -- named staircase blocks of a direct image ------------------------------------

def staircase_block(W: WeymanComplex, p: int, q: int, r: int) -> PolyMatrix:
    """Submatrix of the differential from the (p, q) summands of W^(p+q)
    to the (p+r, q-r+1) summands of W^(p+q+1)."""
    i = p + q
    rows = [n for n, lab in enumerate(W.basis.get(i, []))
            if lab[0] == p and lab[1] == q]
    cols = [n for n, lab in enumerate(W.basis.get(i + 1, []))
            if lab[0] == p + r and lab[1] == q - r + 1]
    return W.diff_at(i).submatrix(rows, cols)


# -- univariate oracle ---------------------------------------------------------------

def _coeffs_in(p: SparsePoly, var: str) -> list[SparsePoly]:
    """Coefficient polynomials of the powers of one variable."""
    vi = p.vars.index(var)
    d = degree_in(p, var)
    buckets: list[dict] = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        rest = list(e)
        k = rest[vi]
        rest[vi] = 0
        buckets[k][tuple(rest)] = buckets[k].get(tuple(rest), 0) + c
    return [SparsePoly(p.vars, b) for b in buckets]


def sylvester_resultant(f: SparsePoly, g: SparsePoly, var: str) -> SparsePoly:
    """Determinant of the Sylvester matrix in the named variable.

    Coefficients are laid out in ascending order, so the 2x2 case gives
    a0*b1 - a1*b0 exactly."""
    if f.is_zero() or g.is_zero():
        raise InputError("resultant of the zero polynomial")
    if f.vars != g.vars:
        raise InputError("operands live over different rings")
    if var not in f.vars:
        raise InputError(f"unknown variable {var!r}")
    d1 = degree_in(f, var)
    d2 = degree_in(g, var)
    if d1 < 1 or d2 < 1:
        raise InputError("both operands must have positive degree")
    fc = _coeffs_in(f, var)
    gc = _coeffs_in(g, var)
    n = d1 + d2
    m = PolyMatrix(n, n, f.vars)
    for s in range(d2):
        for k in range(d1 + 1):
            m.rows[s][s + k] = fc[k]
    for s in range(d1):
        for k in range(d2 + 1):
            m.rows[d2 + s][s + k] = gc[k]
    return m.det()


# -- initial monomials from mixed cells ----------------------------------------------

class NonGenericLifting(ValueError):
    """A lifting under which some candidate cell has a tie beyond its own
    points, so the mixed subdivision it induces need not be fine."""


def initial_monomial(problem: SupportProblem, omega: Mapping[str, int]
                     ) -> tuple[dict[str, int], tuple[int, ...]]:
    """The omega-initial monomial of the resultant and its degree in each
    coefficient group, from the mixed cells of the lifting omega (a weight
    per coefficient label).

    For a generic lifting the omega-initial form of the resultant is
    +-prod_i prod_C c_{i, C_i}^vol(C), over the i-mixed cells C of the
    coherent mixed subdivision of the Minkowski sum: C_i is one point,
    every other C_j an edge, and vol is the normalized volume, |det| of the
    edge vectors (Sturmfels, "On the Newton polytope of the resultant",
    J. Algebraic Combin. 3, 1994, Thm. 2.1).  The cells are found by brute
    force: for each i and one edge of every other support, with independent
    edge vectors, the inner normal u makes each edge level, u.b + omega(b)
    = u.b' + omega(b'); Cramer's rule gives D*u over Z, D the edge
    determinant.  The cell is kept when each edge is the omega-minimal pair
    of its support under u, and support i then has one minimal point.  Any
    further point at the minimum is a tie, and raises NonGenericLifting.
    The per-group degrees are the sums of the cell volumes, the mixed
    volumes of the other supports."""
    sup, labels = problem.supports, problem.labels
    n = len(sup[0][0])
    exps: dict[str, int] = {}
    degrees = [0] * len(sup)
    for i in range(len(sup)):
        others = [j for j in range(len(sup)) if j != i]
        for edges in itertools.product(
                *(itertools.combinations(range(len(sup[j])), 2) for j in others)):
            E = [[b - a for a, b in zip(sup[j][k0], sup[j][k1])]
                 for j, (k0, k1) in zip(others, edges)]
            D = int_det(E)
            if D == 0:
                continue
            rhs = [omega[labels[j][k0]] - omega[labels[j][k1]]
                   for j, (k0, k1) in zip(others, edges)]
            U = [int_det([row[:c] + [r] + row[c + 1:] for row, r in zip(E, rhs)])
                 for c in range(n)]
            sign = 1 if D > 0 else -1

            def minimal(j: int) -> set[int]:
                # |D| (u.a + omega(a)) at every point a of support j
                vals = [sign * (sum(x * y for x, y in zip(U, a)) + D * omega[lab])
                        for a, lab in zip(sup[j], labels[j])]
                low = min(vals)
                return {k for k, v in enumerate(vals) if v == low}

            mins = [minimal(j) for j in others]
            if not all(set(e) <= m for e, m in zip(edges, mins)):
                continue
            at_i = minimal(i)
            if len(at_i) > 1 or any(len(m) > 2 for m in mins):
                raise NonGenericLifting(f"tie at the cell normal of group {i}")
            lab = labels[i][at_i.pop()]
            exps[lab] = exps.get(lab, 0) + abs(D)
            degrees[i] += abs(D)
    return exps, tuple(degrees)


def generic_initial_monomial(problem: SupportProblem, rng: random.Random):
    """Draw liftings in [1, 10^6] from rng until one is generic, at most ten;
    return the lifting with its initial_monomial."""
    for _ in range(10):
        omega = {lab: rng.randint(1, 10 ** 6) for lab in problem.all_labels()}
        try:
            return omega, *initial_monomial(problem, omega)
        except NonGenericLifting:
            continue
    raise MathFailure("no generic lifting in 10 draws")


# -- incidence sampling --------------------------------------------------------------

def _mono_value(z: Sequence[Fraction], nu: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for a, k in zip(z, nu):
        if k:
            out *= a ** k
    return out


def incidence_sample(problem: SupportProblem,
                     rng: random.Random) -> dict[str, Fraction]:
    """Random coefficient specialization with a shared torus zero.

    Picks a random rational torus point, gives every coefficient but one
    per support a random value, and solves the remaining one so that every
    polynomial of the system vanishes at the point."""
    m = len(problem.supports[0][0])
    z = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
         for _ in range(m)]
    assign: dict[str, Fraction] = {}
    for sup, labs in zip(problem.supports, problem.labels):
        vals = [_mono_value(z, nu) for nu in sup]
        k0 = rng.randrange(len(sup))
        total = Fraction(0)
        for k, lab in enumerate(labs):
            if k == k0:
                continue
            c = Fraction(rng.randint(-9, 9))
            assign[lab] = c
            total += c * vals[k]
        assign[labs[k0]] = -total / vals[k0]
    return assign


def random_specialization(problem: SupportProblem,
                          rng: random.Random) -> dict[str, Fraction]:
    """Fully random coefficient values, nonzero to stay clear of faces."""
    return {lab: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9))
            for labs in problem.labels for lab in labs}


def membership_test(delta: SparsePoly, spec: Mapping[str, Fraction]) -> bool:
    """Exact zero test of delta at a full coefficient specialization."""
    used = set()
    for e in delta.terms:
        for v, k in zip(delta.vars, e):
            if k:
                used.add(v)
    missing = sorted(used - set(spec))
    if missing:
        raise InputError(f"specialization misses {missing[0]}")
    full = {v: Fraction(spec[v]) if v in spec else Fraction(0)
            for v in delta.vars}
    return evaluate(delta, full) == 0
