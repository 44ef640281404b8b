"""Direct images of complexes of graded free modules, by staircase descent.

For a complex C of free graded modules over the homogeneous coordinate ring
(coefficients in the parameter ring R), the direct-image complex W has, in
total degree i, one summand per (p, q, k) with p + q = i: the degree-q
cohomology model of the class of the k-th summand of C^p, tensored with R.
Summands are ordered by descending q, so the differential matrices are block
lower triangular.

The differential is assembled one model basis element at a time.  A basis
element u of the (p, q, k) summand embeds into Cech chains via iota, then
walks down the staircase

    v_1 = phi(iota(u)),   v_{t+1} = phi(h(v_t)),   w_r = rho(v_r),

where phi is the complex differential acting on chains (shifting exponents
upward, so every chain subset stays inside its destination's pattern
family) and h is the reduction homotopy.  The r-th projection w_r lands in
the (p+r, q-r+1) summands and enters the matrix with sign
(-1)^((i-1)(r-1)).  The certificates iota, h and rho act blockwise over Z,
one pattern family per exponent; only the phi steps carry R
coefficients.

The functor on morphisms, which reads the same walks through a mapping
cone, is in `morphisms`.
"""
from __future__ import annotations

from operator import add
from typing import Iterable, NamedTuple

from .cech import contributing_points, family_certs, pattern_of
from .complexes import FreeGradedComplex, x_split
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

    def row(self, q: int, p_lo: int, p_hi: int) -> tuple[int, ...]:
        return tuple(self.rank(p, q) for p in range(p_lo, p_hi + 1))

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
            for w, neg in contributing_points(x, alpha):
                fd = family_certs(x, neg).dims
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
    walks the same exponents many times, so each is looked up once."""

    def __init__(self, x: ToricVariety):
        super().__init__()
        self.x = x

    def __missing__(self, w: tuple[int, ...]):
        fam = self[w] = family_certs(self.x, pattern_of(w))
        return fam


# Walk vectors are dicts (k, w) -> {chain -> {parameter exponent ->
# coefficient}}, grouped by summand index and exponent so every certificate
# lookup is block-local.  A chain is the bitmask of its generator subset, the
# same coordinate in every family, so a phi step keeps it as it is.  Every
# chain holds generator 0: it enters through iota or h, whose chains are the
# critical cells of a family (see the cech module docstring).  A parameter
# exponent is one packed int of a qpoly._Packing with offset 0
# (_walk_packing), so a product of monomials is an int add; exponent tuples
# come back only in _fill_row.  Every coefficient is an int, as every
# certificate is integral (cech._reduce_block pivots on units); a SparsePoly
# is built only for a matrix entry.

def _walk_packing(x: ToricVariety, mats: Iterable[PolyMatrix], n_params: int) -> _Packing:
    """Packing of the parameter exponents of every walk through the
    matrices mats, whose first n_params variables are the parameters.

    A walk applies at most dim X + 1 of the matrices, one per staircase
    step (q0 <= dim X), and each application adds one piece's parameter
    exponent.  So the largest piece degree times dim X + 1 bounds the total
    degree of every walk exponent, and fields sized for it never carry.
    The packing has no offset, so a negative parameter exponent raises
    MathFailure."""
    top = 0
    for m in mats:
        for row in m.rows:
            for p in row:
                for e in p.terms:
                    pe = e[:n_params]
                    if min(pe, default=0) < 0:
                        raise MathFailure(f"negative parameter exponent {pe} in a walk matrix")
                    top = max(top, sum(pe))
    return _Packing((0,) * n_params, top * (x.dim + 1))


def _split_matrix(m: PolyMatrix, n_params: int, pk: _Packing):
    """Per-entry x-exponent splits of a matrix over the full ring, each
    piece's coefficient in R as a list of (packed parameter exponent,
    coeff).

    A walk keeps a chain's subset across a step by x^nu, which is sound
    because nu >= 0 makes the pattern of w + nu part of the pattern of w,
    so the source family sits inside the destination family.  A piece with
    a negative Cox exponent raises MathFailure."""
    out: dict[int, dict[int, list[tuple[tuple[int, ...], list]]]] = {}
    param_vars = m.vars[:n_params]
    for r in range(m.nrows):
        row = {}
        for c, p in enumerate(m.rows[r]):
            if p:
                pieces = sorted(x_split(p, n_params, param_vars).items())
                for nu, _ in pieces:
                    if min(nu, default=0) < 0:
                        raise MathFailure(f"negative Cox exponent {nu} in a walk matrix")
                row[c] = [(nu, list(pk.pack(g.terms).items())) for nu, g in pieces]
        if row:
            out[r] = row
    return out


def _add_scaled(acc: dict, terms: dict, c) -> None:
    """acc += c * terms, on {parameter exponent -> coefficient} dicts."""
    for e, a in terms.items():
        acc[e] = acc.get(e, 0) + a * c


def _apply_split(splits, v: dict) -> dict:
    """Push a walk vector through one matrix of the source complex.

    Multiplication by a polynomial shifts exponents upward, so every chain
    stays inside its (larger) destination family (see _split_matrix)."""
    out: dict = {}
    for (k, w), chains in v.items():
        row = splits.get(k)
        if not row:
            continue
        for l, pieces in row.items():
            for nu, g in pieces:
                w2 = tuple(map(add, w, nu))
                blk = out.setdefault((l, w2), {})
                for c, terms in chains.items():
                    acc = blk.setdefault(c, {})
                    for e1, a in terms.items():
                        for e2, b in g:
                            e = e1 + e2
                            acc[e] = acc.get(e, 0) + a * b
    return _drop_zeros(out)


def _apply_h(certs: _Certs, v: dict, q: int) -> dict:
    """Homotopy step from Cech degree q down to q - 1, blockwise.

    A chain takes its stored row of h_K.  A chain without one is dropped:
    either h_K's row there is zero, or the chain lies outside the critical
    cells of w's family, where the full homotopy gives only chains that no
    later projection sees (see the cech module docstring)."""
    out: dict = {}
    for (k, w), chains in v.items():
        hq = certs[w].h[q - 1]
        blk: dict = {}
        for c, terms in chains.items():
            row = hq.get(c)
            if row is None:
                continue
            for c0, coef in row.items():
                _add_scaled(blk.setdefault(c0, {}), terms, coef)
        out[(k, w)] = blk
    return _drop_zeros(out)


def _project(certs: _Certs, v: dict, q: int) -> dict:
    """Project a walk vector onto the cohomology models at Cech degree q:
    a dict (k, w, mpos) -> {packed parameter exponent -> coefficient}."""
    out: dict = {}
    for (k, w), chains in v.items():
        rho_t = certs[w].rho_t[q]
        for c, terms in chains.items():
            for mpos, coef in rho_t.get(c, []):
                _add_scaled(out.setdefault((k, w, mpos), {}), terms, coef)
    out = {key: {e: a for e, a in terms.items() if a} for key, terms in out.items()}
    return {key: terms for key, terms in out.items() if terms}


def _drop_zeros(v: dict) -> dict:
    out = {}
    for key, chains in v.items():
        blk = {}
        for c, terms in chains.items():
            if 0 in terms.values():   # only a cancellation leaves a zero
                terms = {e: a for e, a in terms.items() if a}
                if not terms:
                    continue
            blk[c] = terms
        if blk:
            out[key] = blk
    return out


def _embed(certs: _Certs, k: int, w: tuple[int, ...], mpos: int, q: int) -> dict:
    # 0 packs the exponent of the constant monomial
    return {(k, w): {c: {0: coef} for c, coef in certs[w].iota[q][mpos].items()}}


def _staircase(certs: _Certs, splits, label: tuple):
    """The staircase walk of one model basis element (p0, q0, k0, w0, m0).

    Yields (r, projection) for r = 1..q0 + 1 with a nonzero projection:
    an unsigned dict (k, w, mpos) -> {packed parameter exponent -> coefficient} in
    the degree-(q0-r+1) models of the summands of C^(p0+r)."""
    p0, q0, k0, w0, m0 = label
    v = _embed(certs, k0, w0, m0, q0)
    q = q0
    for r in range(1, q0 + 2):
        if not v or (p0 + r - 1) not in splits:
            return
        v = _apply_split(splits[p0 + r - 1], v)
        proj = _project(certs, v, q)
        if proj:
            yield r, proj
        if q:
            v = _apply_h(certs, v, q)
            q -= 1


def weyman_differential(C: FreeGradedComplex) -> WeymanComplex:
    """The direct-image complex of C, with exact matrices over R.

    Every basis element of every summand is embedded into the certificate
    family of its exponent's pattern, walked down the staircase, and
    projected; the (p, q) -> (p+r, q-r+1) block enters with sign
    (-1)^((i-1)(r-1)), i = p + q.

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
            for w, neg in contributing_points(x, s.alpha):
                labels.extend((s.p, s.q, s.k, w, mpos)
                              for mpos in range(family_certs(x, neg).dims[s.q]))
        basis[i] = labels
        pos[i] = {lab: n for n, lab in enumerate(labels)}

    pk = _walk_packing(x, C.diffs.values(), C.n_params)
    splits = {p: _split_matrix(C.diff_at(p), C.n_params, pk) for p in C.diffs}
    certs = _Certs(x)
    diffs: dict[int, PolyMatrix] = {}
    for i in sorted(terms):
        if i + 1 not in terms:
            continue
        m = PolyMatrix(len(basis[i]), len(basis[i + 1]), pv)
        tpos = pos[i + 1]
        for rown, label in enumerate(basis[i]):
            p0, q0 = label[:2]
            entries: dict[int, dict] = {}
            for r, proj in _staircase(certs, splits, label):
                sgn = -1 if ((i - 1) * (r - 1)) % 2 else 1
                for (k2, w2, mpos2), part in proj.items():
                    col = tpos.get((p0 + r, q0 - r + 1, k2, w2, mpos2))
                    if col is None:
                        raise MathFailure(
                            "staircase projection left the recorded models")
                    _add_scaled(entries.setdefault(col, {}), part, sgn)
            _fill_row(m, rown, entries, pk)
        diffs[i] = m

    return WeymanComplex(source=C, terms=terms, e1=page, basis=basis, diffs=diffs)


def _fill_row(m: PolyMatrix, rown: int, entries: dict[int, dict], pk: _Packing) -> None:
    """Write one row's accumulated {column -> packed parameter terms} into m.

    A packed exponent whose fields do not add up to the total degree above
    them, or that sets a guard bit, passed the degree bound of pk: that
    raises MathFailure instead of reading a carried field as an exponent."""
    for col, terms in entries.items():
        unpacked = pk.unpack(terms, 0)
        # unpack keeps the order, so without a collision the pairs line up
        if len(unpacked) != len(terms) or any(
                packed & pk.guards or sum(e) != -(packed >> pk.top)
                for packed, e in zip(terms, unpacked)):
            raise MathFailure("a walk's parameter exponent passed its degree bound")
        m.rows[rown][col] = SparsePoly(m.vars, unpacked)
