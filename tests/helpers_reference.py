"""Plain reference routines that only tests use: matrix products, dense
inverses and determinants, row-vector products, polynomial substitution,
the lattice points of a degree window, the eager Cech support-pattern
table, explicit Cech subset families, the retract identities of a reduced
Cech family, and the direct total complex on window-truncated Cech strands.

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
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from toricres import cech
from toricres.complexes import FreeGradedComplex, x_split
from toricres.errors import MathFailure, ResourceGuard
from toricres.qlinalg import QMatrix
from toricres.qpoly import PolyMatrix, SparsePoly, cnorm
from toricres.toric import ToricVariety, degree_fiber, fiber_points


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


def lattice_points_in_window(x, alpha: Sequence[int],
                             lower: Sequence[int]) -> list[tuple[int, ...]]:
    """All u in Z^rays with degree(u) = alpha and u >= lower componentwise."""
    u0, kernel = degree_fiber(x, tuple(alpha))
    if u0 is None:
        return []
    return sorted(fiber_points(u0, kernel, [(1, b) for b in lower]))


def support_patterns(x) -> tuple[tuple[int, ...], ...]:
    """Every negative-support pattern whose family carries cohomology in some
    degree q <= dim, in bitmask order: the nerve of each of the 2^#rays
    patterns ranked, with no screen."""
    q_top = min(x.dim, cech.cech_depth(x))
    out = []
    for bits in range(1 << x.n_rays):
        neg = tuple(rho for rho in range(x.n_rays) if bits >> rho & 1)
        if any(cech._nerve_dims(x, neg)[:q_top + 1]):
            out.append(neg)
    return tuple(out)


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


def expanded_certs(c: cech.FamilyCerts):
    """A FamilyCerts spelled out on its whole family, as the arguments of
    retract_identity_failures: the family's subsets per degree in sorted
    order, its incidence entries, and active, iota, rho and h keyed by
    position, where h gains the closed-form cone rows h1[S + {0}] = {S: 1}
    for every nonempty family member S without generator 0."""
    n = len(c.active)
    fam = [T for T in generator_subsets(n) if subset_mask(T) not in c.sigma]
    per_q = by_degree(fam, n)
    pos = [{subset_mask(T): i for i, T in enumerate(level)} for level in per_q]

    def at(q, row):
        return {pos[q][chain]: v for chain, v in row.items()}

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
    reduction of _reduce_block: surviving indices, iota (model row ->
    chain covector), rho (model column -> chain vector) and h (chain of
    degree q+1 -> chain covector of degree q).  In the row convention,
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
    gens, depth = x.irrelevant_exponents(), cech.cech_depth(x)
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

    Rank-only: no certificates are produced."""
    depth, blocks = strand_blocks(x, alpha, e)
    dims = [0] * (depth + 1)
    for w, fam in blocks:
        for q, v in enumerate(cech._family_dims(tuple(map(subset_mask, fam)), depth)):
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
    for w, neg in cech.contributing_points(x, alpha):
        c = max(c, -min(w))
    return (c,) * len(x.max_cones)


# -- the direct total complex ---------------------------------------------------

ORACLE_LABEL_CAP = 400000


def _specialized_rank(d: PolyMatrix, assign: Mapping[str, Fraction]) -> int:
    m = QMatrix(d.nrows, d.ncols)
    for r in range(d.nrows):
        for c, p in enumerate(d.rows[r]):
            if p:
                v = p.eval(assign)
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
                    if not f:
                        continue
                    for nu, g in x_split(f, C.n_params, pv).items():
                        w2 = tuple(a + b for a, b in zip(w, nu))
                        col = tpos.get((p + 1, l, T, w2))
                        if col is None:
                            raise MathFailure("exponent left the window")
                        m.rows[rown][col] = m.rows[rown][col] + g
        diffs[i] = m
    return TotalComplex(source=C, e=e, basis=basis, diffs=diffs)
