"""Direct images of complexes of graded free modules, by staircase descent.

For a complex C of free graded modules over the homogeneous coordinate ring
(coefficients in the parameter ring R), the direct-image complex W has, in
total degree i, one summand per (p, q, k) with p + q = i: the degree-q
cohomology model of the class of the k-th summand of C^p, tensored with R.
Summands are ordered by descending q, so the differential matrices are block
lower triangular.

A basis element u of the (p, q, k) summand embeds into Cech chains via
iota, then walks down the staircase

    v_1 = phi(iota(u)),   v_{t+1} = phi(h(v_t)),   w_r = rho(v_r),

where phi is the complex differential acting on chains (shifting exponents
upward, so every chain subset stays inside its destination's pattern
family) and h is the reduction homotopy.  The r-th projection w_r lands in
the (p+r, q-r+1) summands and enters the matrix with sign
(-1)^((i-1)(r-1)).  The certificates iota, h and rho act blockwise over Z,
one pattern family per exponent; only the phi steps carry R
coefficients.

The walk is linear, so the differential is assembled by one batched walk
per group of rows with the same (i, p, q): every basis element of the
group walks at once, each term tagged with the element's place in the
group, and the walks of a group share their exponent blocks.
"""
from __future__ import annotations

from itertools import groupby
from operator import add
from typing import Iterable, NamedTuple

from .cech import contributing_points, family_certs
from .complexes import FreeGradedComplex
from .errors import MathFailure
from .qpoly import PolyMatrix, SparsePoly, _Packing
from .toric import ToricVariety

Class = tuple[int, ...]


class Summand(NamedTuple):
    p: int
    q: int
    k: int
    dim: int
    alpha: Class


class E1Page(NamedTuple):
    """Ranks of the direct-image sheaves, one per (p, q)."""

    table: dict[tuple[int, int], int]

    def rank(self, p: int, q: int) -> int:
        return self.table.get((p, q), 0)

    def to_obj(self) -> list[list[int]]:
        return [[p, q, r] for (p, q), r in sorted(self.table.items())]


class WeymanComplex(NamedTuple):
    source: FreeGradedComplex
    terms: dict[int, tuple[Summand, ...]]
    e1: E1Page
    basis: dict[int, list[tuple]]            # i -> [(p, q, k, w, mpos)]
    diffs: dict[int, PolyMatrix]             # i -> W^i x W^{i+1} over R

    def rank(self, i: int) -> int:
        return sum(s.dim for s in self.terms.get(i, ()))

    def degrees(self) -> list[int]:
        return sorted(self.terms)

    def diff_at(self, i: int) -> PolyMatrix:
        d = self.diffs.get(i)
        if d is None:
            d = PolyMatrix(self.rank(i), self.rank(i + 1),
                           self.source.param_vars)
        return d

    def validate(self) -> None:
        """Exact d.d = 0 over R, and summand ordering by descending q."""
        for i in sorted(self.terms):
            qs = [s.q for s in self.terms[i]]
            if qs != sorted(qs, reverse=True):
                raise MathFailure("summands out of order")
            if self.rank(i + 1) and self.rank(i):
                prod = self.diff_at(i).matmul(self.diff_at(i + 1))
                if not prod.is_zero():
                    raise MathFailure("direct-image differential does not square to zero")



def weyman_terms(C: FreeGradedComplex) -> tuple[dict[int, tuple[Summand, ...]], E1Page]:
    """Summands of the direct-image complex and the page of sheaf ranks.

    Each summand (p, q, k) has the dimension of the degree-q cohomology
    model of the class of the k-th summand of C^p; only q up to dim X can
    contribute.  The dimensions are those of each contributing pattern's
    certificate family, the one its walks use."""
    x = C.x
    table: dict[tuple[int, int], int] = {}
    terms: dict[int, list[Summand]] = {}
    for p in sorted(C.degrees):
        for k, alpha in enumerate(C.degrees[p]):
            dims = [0] * (x.dim + 1)
            for _, family in contributing_points(x, alpha):
                fd = family.dims
                for q in range(x.dim + 1):
                    dims[q] += fd[q]
            for q in range(x.dim + 1):
                if dims[q]:
                    terms.setdefault(p + q, []).append(
                        Summand(p, q, k, dims[q], tuple(alpha)))
                    table[(p, q)] = table.get((p, q), 0) + dims[q]
    out: dict[int, tuple[Summand, ...]] = {}
    for i, lst in terms.items():
        lst.sort(key=lambda s: (-s.q, s.k))
        out[i] = tuple(lst)
    return out, E1Page(table)


# -- staircase walks ---------------------------------------------------------------

class _Certs(dict):
    """Certificate families by exponent w, for one variety: one assembly
    walks the same exponents many times, so each is looked up once, by
    family_certs."""

    def __init__(self, x: ToricVariety):
        super().__init__()
        self.x = x
        self.n = len(x.max_cones)

    def __missing__(self, w: tuple[int, ...]):
        fam = self[w] = family_certs(self.x, w)
        return fam


# A walk vector is a dict (k, w) -> {key -> coefficient}, one block per
# summand index and exponent, so every certificate lookup is block-local.
# A key is ((packed << tb) | t) << #generators | chain.  The chain is the
# bitmask of its generator subset, the same coordinate in every family, so a
# phi step keeps it and an h step swaps it.  Every chain holds generator 0: it
# enters through iota or h, whose chains are the critical cells of a family
# (see the cech module docstring).  t < 2^tb is the walk's place in its group
# (tb is the bit length of W's largest rank), and packed is the parameter
# exponent as one int of the qpoly._Packing of _walk_packing: a phi step, a
# product of monomials, adds a multiple of 2^(#generators + tb), so t and
# the chain never change.  Every coefficient is an int, as every
# certificate is integral (cech._reduce_block pivots on units); tags (key >>
# #generators) are decoded, and a SparsePoly built, only for a matrix entry.

def _walk_packing(x: ToricVariety, mats: Iterable[PolyMatrix], n_params: int) -> _Packing:
    """Packing of the parameter exponents of every walk through the
    matrices mats, whose first n_params variables are the parameters.

    A walk applies at most dim X + 1 of the matrices, one per staircase
    step (q0 <= dim X), and each application adds one piece's parameter
    exponent.  So the largest piece degree times dim X + 1 bounds the total
    degree of every walk exponent, and fields sized for it never carry."""
    top = max((sum(e[:n_params]) for m in mats for row in m.rows for p in row
               for e in p.terms), default=0)
    return _Packing(n_params, top * (x.dim + 1))


def _split_matrix(m: PolyMatrix, n_params: int, pk: _Packing, shift: int):
    """Per-entry x-exponent splits of a matrix over the full ring: each
    entry's terms grouped by Cox exponent nu, in increasing nu, and each
    group's coefficient in R packed as a list of (packed parameter
    exponent << shift, coeff), a walk key's increment.

    A walk keeps a chain's subset across a step by x^nu, which is sound
    because nu >= 0 (a SparsePoly has no negative exponent) makes the pattern of w + nu part of the pattern of w, so the
    source family sits inside the destination family."""
    out: dict[int, dict[int, list[tuple[tuple[int, ...], list]]]] = {}
    for r in range(m.nrows):
        row = {}
        for c, p in enumerate(m.rows[r]):
            if p:
                by_nu: dict[tuple[int, ...], dict] = {}
                for e, a in p.terms.items():
                    by_nu.setdefault(e[n_params:], {})[e[:n_params]] = a
                row[c] = [(nu, [(e << shift, a) for e, a in pk.pack(g).items()])
                          for nu, g in sorted(by_nu.items())]
        if row:
            out[r] = row
    return out


def _nonzero(v: dict) -> dict:
    """A walk vector or projection without its zero coefficients and empty
    blocks; only a cancellation leaves a zero."""
    out = {}
    for key, blk in v.items():
        if 0 in blk.values():
            blk = {k: a for k, a in blk.items() if a}
        if blk:
            out[key] = blk
    return out


def _walk(certs: _Certs, splits, p0: int, q0: int, members: list[tuple]):
    """The staircase walks of the basis elements members[t] = (k, w, mpos)
    of the (p0, q0) summands, all at once: the walk is linear, and each
    element's terms carry its place t in their tags.

    Yields (r, projection) for r = 1..q0 + 1 with a nonzero projection:
    an unsigned dict (k, w, mpos) -> {tag -> coefficient} in the
    degree-(q0-r+1) models of the summands of C^(p0+r)."""
    n = certs.n
    chains = (1 << n) - 1
    v: dict = {}
    for t, (k, w, mpos) in enumerate(members):
        blk = v.setdefault((k, w), {})
        # 0 packs the exponent of the constant monomial
        for c, coef in certs[w].iota[q0][mpos].items():
            blk[t << n | c] = coef
    q = q0
    for r in range(1, q0 + 2):
        split = splits.get(p0 + r - 1)
        if not v or split is None:
            return
        # phi: multiplication by a polynomial shifts exponents upward, so
        # every chain stays inside its (larger) destination family (see
        # _split_matrix)
        out: dict = {}
        for (k, w), blk in v.items():
            row = split.get(k)
            if not row:
                continue
            terms = blk.items()
            for l, pieces in row.items():
                for nu, g in pieces:
                    w2 = tuple(map(add, w, nu))
                    acc = out.get((l, w2))
                    if acc is None:
                        acc = out[(l, w2)] = {}
                    for e, b in g:
                        for key, a in terms:
                            moved = key + e
                            acc[moved] = acc.get(moved, 0) + a * b
        v = _nonzero(out)
        # projection onto the cohomology models at Cech degree q
        proj: dict = {}
        for (k, w), blk in v.items():
            rho_t = certs[w].rho_t[q]
            for key, a in blk.items():
                pairs = rho_t.get(key & chains)
                if pairs:
                    tag = key >> n
                    for mpos, coef in pairs:
                        dst = proj.get((k, w, mpos))
                        if dst is None:
                            dst = proj[(k, w, mpos)] = {}
                        dst[tag] = dst.get(tag, 0) + a * coef
        proj = _nonzero(proj)
        if proj:
            yield r, proj
        if q:
            # homotopy from Cech degree q down to q - 1: a chain takes its
            # stored row of h_K.  A chain without one is dropped: either h_K's
            # row there is zero, or the chain lies outside the critical cells
            # of w's family, where the full homotopy gives only chains that
            # no later projection sees (see the cech module docstring)
            out = {}
            for (k, w), blk in v.items():
                hq = certs[w].h[q - 1]
                acc = out[(k, w)] = {}
                for key, a in blk.items():
                    c = key & chains
                    h_row = hq.get(c)
                    if h_row is None:
                        continue
                    base = key - c
                    for c0, coef in h_row.items():
                        moved = base | c0
                        acc[moved] = acc.get(moved, 0) + a * coef
            v = _nonzero(out)
            q -= 1


def weyman_differential(C: FreeGradedComplex) -> WeymanComplex:
    """The direct-image complex of C, with exact matrices over R.

    Every basis element of every summand is embedded into the certificate
    family of its exponent's pattern, walked down the staircase, and
    projected, one batched walk per group of rows with the same (p, q);
    the (p, q) -> (p+r, q-r+1) block enters with sign (-1)^((i-1)(r-1)),
    i = p + q.

    A pattern's family is the Cech block of each of its exponents at every
    uniform level past that exponent's depth, so the result does not depend
    on a truncation level."""
    C.validate()
    x = C.x
    pv = C.param_vars
    terms, page = weyman_terms(C)

    basis: dict[int, list[tuple]] = {}
    pos: dict[int, dict[tuple, int]] = {}
    for i, summands in terms.items():
        labels = []
        for s in summands:
            for w, family in contributing_points(x, s.alpha):
                labels.extend((s.p, s.q, s.k, w, mpos)
                              for mpos in range(family.dims[s.q]))
        basis[i] = labels
        pos[i] = {lab: n for n, lab in enumerate(labels)}

    certs = _Certs(x)
    pk = _walk_packing(x, C.diffs.values(), C.n_params)
    tb = max(map(len, basis.values()), default=0).bit_length()
    splits = {p: _split_matrix(C.diff_at(p), C.n_params, pk, certs.n + tb)
              for p in C.diffs}
    diffs: dict[int, PolyMatrix] = {}
    for i in sorted(terms):
        if i + 1 not in terms:
            continue
        m = PolyMatrix(len(basis[i]), len(basis[i + 1]), pv)
        tpos = pos[i + 1]
        # the summands of degree i are in descending q, so each (p, q) group
        # of rows is a run
        for (p0, q0), group in groupby(enumerate(basis[i]), key=lambda nl: nl[1][:2]):
            group = list(group)
            entries: dict[int, dict[int, int]] = {}
            for r, proj in _walk(certs, splits, p0, q0, [lab[2:] for _, lab in group]):
                sgn = -1 if ((i - 1) * (r - 1)) % 2 else 1
                for (k2, w2, mpos2), part in proj.items():
                    col = tpos.get((p0 + r, q0 - r + 1, k2, w2, mpos2))
                    if col is None:
                        raise MathFailure(
                            "staircase projection left the recorded models")
                    acc = entries.setdefault(col, {})
                    for tag, a in part.items():
                        acc[tag] = acc.get(tag, 0) + a * sgn
            _fill_rows(m, [rown for rown, _ in group], entries, pk, tb)
        diffs[i] = m

    return WeymanComplex(source=C, terms=terms, e1=page, basis=basis, diffs=diffs)


def _fill_rows(m: PolyMatrix, rows: list[int], entries: dict[int, dict[int, int]],
               pk: _Packing, tb: int) -> None:
    """Write one group's accumulated {column -> {tag -> coefficient}} into
    m, the walk of place t in row rows[t].

    A tag is (packed << tb) | t (see the comment above _walk_packing), and
    a packed exponent holds its negated total degree above its fields.  An
    exponent whose fields do not add up to that total degree, or set a
    guard bit, passed the degree bound of pk: a field carried.  That raises
    MathFailure instead of reading a carried field as an exponent."""
    top, low = pk.top, (1 << tb) - 1
    by_entry: dict[tuple[int, int], dict[int, int]] = {}
    for col, tagged in entries.items():
        for tag, a in tagged.items():
            by_entry.setdefault((tag & low, col), {})[tag >> tb] = a
    for (t, col), terms in by_entry.items():
        unpacked = pk.unpack(terms)
        # unpack keeps the order, so without a collision the pairs line up
        if len(unpacked) != len(terms) or any(
                packed & pk.guards or sum(e) != -(packed >> top)
                for packed, e in zip(terms, unpacked)):
            raise MathFailure("a walk's parameter exponent passed its degree bound")
        m.rows[rows[t]][col] = SparsePoly(m.vars, unpacked)
