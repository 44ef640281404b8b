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

where phi is the complex differential acting on chains (shifting exponents,
never leaving any block window) and h is the reduction homotopy.  The r-th
projection w_r lands in the (p+r, q-r+1) summands and enters the matrix with
sign (-1)^((i-1)(r-1)).  All strand-level work happens blockwise over Q;
only the phi steps carry R coefficients.

The action on a morphism theta: M -> N of complexes is the induced map on
reduced models: spread the embedded element across the staircase of M,
apply theta, invert the codomain's triangular change of basis, and project.
The per-step signs follow the column-signed totalization (vertical maps
weighted by (-1)^p), conjugated to the differential's sign convention by the
diagonal (-1)^(q(q+1)/2); composites of chain-level retract maps commute
with the assembled differentials exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence

from .cech import (
    contributing_points,
    family_certs,
    pattern_of,
    stabilization_level,
    _nerve_dims,
    _strand_blocks,
)
from .complexes import ComplexMorphism, FreeGradedComplex, x_split
from .errors import MathFailure, ResourceGuard
from .qlinalg import QMatrix
from .qpoly import PolyMatrix, SparsePoly
from .toric import ToricVariety

Class = tuple[int, ...]


class Summand(NamedTuple):
    p: int
    q: int
    k: int
    dim: int
    alpha: Class


@dataclass(frozen=True)
class E1Page:
    """Ranks of the direct-image sheaves, one per (p, q)."""

    table: dict[tuple[int, int], int]

    def rank(self, p: int, q: int) -> int:
        return self.table.get((p, q), 0)

    def row(self, q: int, p_lo: int, p_hi: int) -> tuple[int, ...]:
        return tuple(self.rank(p, q) for p in range(p_lo, p_hi + 1))

    def to_obj(self) -> list[list[int]]:
        return [[p, q, r] for (p, q), r in sorted(self.table.items())]

    @classmethod
    def from_obj(cls, obj: list[list[int]]) -> "E1Page":
        return cls({(p, q): r for p, q, r in obj})


@dataclass
class WeymanComplex:
    source: FreeGradedComplex
    terms: dict[int, tuple[Summand, ...]]
    e1: E1Page
    levels: dict[tuple[int, int], int]       # (p, k) -> uniform model level
    basis: dict[int, list[tuple]]            # i -> [(p, q, k, w, mpos)]
    diffs: dict[int, PolyMatrix]             # i -> W^i x W^{i+1} over R

    @property
    def x(self) -> ToricVariety:
        return self.source.x

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

    def specialized_homology(self, assign: dict[str, Fraction]) -> dict[int, int]:
        """Homology dimensions after evaluating all parameters."""
        ranks: dict[int, int] = {}
        for i in self.degrees():
            ranks[i] = _specialized_rank(self.diff_at(i), assign)
        out = {}
        for i in self.degrees():
            out[i] = self.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
        return out

    def to_obj(self) -> dict:
        return {
            "terms": {str(i): [[s.p, s.q, s.k, s.dim, list(s.alpha)]
                               for s in self.terms[i]]
                      for i in sorted(self.terms)},
            "e1": self.e1.to_obj(),
            "levels": [[p, k, c] for (p, k), c in sorted(self.levels.items())],
            "diffs": {str(i): m.to_text() for i, m in sorted(self.diffs.items())},
            "param_vars": list(self.source.param_vars),
        }


def _specialized_rank(d: PolyMatrix, assign: dict[str, Fraction]) -> int:
    m = QMatrix(d.nrows, d.ncols)
    for r in range(d.nrows):
        for c, p in enumerate(d.rows[r]):
            if p:
                v = p.eval(assign)
                if v:
                    m.rows[r][c] = Fraction(v)
    return m.rank()


def weyman_terms(C: FreeGradedComplex) -> tuple[dict[int, tuple[Summand, ...]], E1Page]:
    """Summands of the direct-image complex and the page of sheaf ranks.

    Each summand (p, q, k) has the dimension of the degree-q cohomology
    model of the class of the k-th summand of C^p; only q up to dim X can
    contribute.  The dimensions are read from the nerve of each
    contributing pattern, so no certificate family is built, and nothing
    is written to the disk cache."""
    x = C.x
    table: dict[tuple[int, int], int] = {}
    terms: dict[int, list[Summand]] = {}
    for p in sorted(C.degrees):
        for k, alpha in enumerate(C.degrees[p]):
            dims = [0] * (x.dim + 1)
            for w, neg in contributing_points(x, alpha):
                fd = _nerve_dims(x, neg)
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

# Walk vectors are dicts (k, w) -> {chain position -> R polynomial}, grouped
# by summand index and exponent so every certificate lookup is block-local.

def _split_matrix(m: PolyMatrix, n_params: int, param_vars: Sequence[str]):
    """Per-entry x-exponent splits of a matrix over the full ring."""
    out: dict[int, dict[int, list[tuple[tuple[int, ...], SparsePoly]]]] = {}
    for r in range(m.nrows):
        row = {}
        for c, p in enumerate(m.rows[r]):
            if p:
                row[c] = sorted(x_split(p, n_params, param_vars).items())
        if row:
            out[r] = row
    return out


def _apply_split(x: ToricVariety, splits, v: dict, q: int) -> dict:
    """Push a walk vector through one matrix of the source complex.

    Multiplication by a polynomial shifts exponents upward, so the subset
    of every chain label stays inside its (larger) destination family."""
    out: dict = {}
    for (k, w), chains in v.items():
        row = splits.get(k)
        if not row:
            continue
        src = family_certs(x, pattern_of(w)).per_q[q]
        for l, pieces in row.items():
            for nu, g in pieces:
                w2 = tuple(a + b for a, b in zip(w, nu))
                dst = family_certs(x, pattern_of(w2)).pos[q]
                blk = out.setdefault((l, w2), {})
                for c, poly in chains.items():
                    c2 = dst[src[c]]
                    pg = poly * g
                    acc = blk.get(c2)
                    blk[c2] = pg if acc is None else acc + pg
    return _drop_zeros(out)


def _apply_h(x: ToricVariety, v: dict, q: int) -> dict:
    """Homotopy step from Cech degree q down to q - 1, blockwise."""
    out: dict = {}
    for (k, w), chains in v.items():
        hq = family_certs(x, pattern_of(w)).h[q - 1]
        blk: dict = {}
        for c, poly in chains.items():
            for c0, coef in hq.get(c, {}).items():
                pg = poly.scale(coef)
                acc = blk.get(c0)
                blk[c0] = pg if acc is None else acc + pg
        if blk:
            out[(k, w)] = blk
    return _drop_zeros(out)


def _project(x: ToricVariety, v: dict, q: int) -> dict:
    """Project a walk vector onto the cohomology models at Cech degree q."""
    out: dict = {}
    for (k, w), chains in v.items():
        rho_t = family_certs(x, pattern_of(w)).rho_t[q]
        for c, poly in chains.items():
            for mpos, coef in rho_t.get(c, []):
                key = (k, w, mpos)
                pg = poly.scale(coef)
                acc = out.get(key)
                out[key] = pg if acc is None else acc + pg
    return {k: p for k, p in out.items() if not p.is_zero()}


def _drop_zeros(v: dict) -> dict:
    out = {}
    for key, chains in v.items():
        blk = {c: p for c, p in chains.items() if not p.is_zero()}
        if blk:
            out[key] = blk
    return out


def _embed(x: ToricVariety, k: int, w: tuple[int, ...], mpos: int, q: int,
           variables: Sequence[str]) -> dict:
    row = family_certs(x, pattern_of(w)).iota[q][mpos]
    return {(k, w): {c: SparsePoly.const(variables, coef)
                     for c, coef in row.items()}}


def _staircase(x: ToricVariety, splits, label: tuple, variables: Sequence[str]):
    """The staircase walk of one model basis element (p0, q0, k0, w0, m0).

    Yields (r, projection) for r = 1..q0 + 1 with a nonzero projection:
    an unsigned dict (k, w, mpos) -> R polynomial in the degree-(q0-r+1)
    models of the summands of C^(p0+r)."""
    p0, q0, k0, w0, m0 = label
    v = _embed(x, k0, w0, m0, q0, variables)
    q = q0
    for r in range(1, q0 + 2):
        if not v or (p0 + r - 1) not in splits:
            return
        v = _apply_split(x, splits[p0 + r - 1], v, q)
        proj = _project(x, v, q)
        if proj:
            yield r, proj
        if q:
            v = _apply_h(x, v, q)
            q -= 1


def weyman_differential(C: FreeGradedComplex) -> WeymanComplex:
    """The direct-image complex of C, with exact matrices over R.

    Every basis element of every summand is embedded into the certificate
    family of its exponent's pattern, walked down the staircase, and
    projected; the (p, q) -> (p+r, q-r+1) block enters with sign
    (-1)^((i-1)(r-1)), i = p + q.

    A pattern's family is the Cech block of each of its exponents at every
    uniform level past that exponent's depth, so the result does not depend
    on a truncation level; WeymanComplex.levels records the stabilization
    level of each summand's class."""
    C.validate()
    x = C.x
    pv = C.param_vars
    terms, page = weyman_terms(C)
    levels = {}
    for p in sorted(C.degrees):
        for k, alpha in enumerate(C.degrees[p]):
            levels[(p, k)] = stabilization_level(x, alpha)[0]

    # the summand dims come from the nerves, the basis from the certificate
    # families the walks use: they must agree, or the matrices get the
    # wrong shape
    basis: dict[int, list[tuple]] = {}
    pos: dict[int, dict[tuple, int]] = {}
    for i, summands in terms.items():
        labels = []
        for s in summands:
            for w, neg in contributing_points(x, s.alpha):
                dims = family_certs(x, neg).dims
                if dims != _nerve_dims(x, neg):
                    raise MathFailure(
                        f"pattern {neg}: certificate family dims {dims} differ "
                        f"from its nerve dims {_nerve_dims(x, neg)}")
                labels.extend((s.p, s.q, s.k, w, mpos)
                              for mpos in range(dims[s.q]))
        basis[i] = labels
        pos[i] = {lab: n for n, lab in enumerate(labels)}

    splits = {p: _split_matrix(C.diff_at(p), C.n_params, pv) for p in C.diffs}
    diffs: dict[int, PolyMatrix] = {}
    for i in sorted(terms):
        if i + 1 not in terms:
            continue
        m = PolyMatrix(len(basis[i]), len(basis[i + 1]), pv)
        tpos = pos[i + 1]
        for rown, label in enumerate(basis[i]):
            p0, q0 = label[:2]
            for r, proj in _staircase(x, splits, label, pv):
                sgn = -1 if ((i - 1) * (r - 1)) % 2 else 1
                for (k2, w2, mpos2), poly in proj.items():
                    col = tpos.get((p0 + r, q0 - r + 1, k2, w2, mpos2))
                    if col is None:
                        raise MathFailure(
                            "staircase projection left the recorded models")
                    pg = poly if sgn > 0 else -poly
                    m.rows[rown][col] = m.rows[rown][col] + pg
        diffs[i] = m

    return WeymanComplex(source=C, terms=terms, e1=page,
                         levels=levels, basis=basis, diffs=diffs)


def staircase_block(W: WeymanComplex, p: int, q: int, r: int) -> PolyMatrix:
    """Submatrix of the differential from the (p, q) summands of W^(p+q)
    to the (p+r, q-r+1) summands of W^(p+q+1)."""
    i = p + q
    rows = [n for n, lab in enumerate(W.basis.get(i, []))
            if lab[0] == p and lab[1] == q]
    cols = [n for n, lab in enumerate(W.basis.get(i + 1, []))
            if lab[0] == p + r and lab[1] == q - r + 1]
    d = W.diff_at(i)
    out = PolyMatrix(len(rows), len(cols), d.vars)
    for a, rn in enumerate(rows):
        for b, cn in enumerate(cols):
            out.rows[a][b] = d.rows[rn][cn]
    return out


# -- the functor on morphisms --------------------------------------------------------

def weyman_on_morphism(theta: ComplexMorphism) -> dict[int, PolyMatrix]:
    """Matrices of the induced map between direct-image complexes.

    For each basis element of the source: spread the embedded chain element
    across the staircase of the source complex (vertical steps weighted by
    (-1)^p), map through theta, undo the codomain's triangular base change,
    and project to the codomain models.  Emitted blocks are rescaled by the
    diagonal sign (-1)^(q(q+1)/2) to match the differential convention, and
    the squares with both differentials commute exactly over R."""
    theta.validate()
    M, N = theta.source, theta.target
    x = M.x
    pv = M.param_vars
    WM = weyman_differential(M)
    WN = weyman_differential(N)
    m_splits = {p: _split_matrix(M.diff_at(p), M.n_params, pv) for p in M.diffs}
    n_splits = {p: _split_matrix(N.diff_at(p), N.n_params, pv) for p in N.diffs}
    t_splits = {p: _split_matrix(theta.map_at(p), M.n_params, pv)
                for p in set(M.degrees) & set(N.degrees)}

    out: dict[int, PolyMatrix] = {}
    for i in sorted(set(WM.terms) | set(WN.terms)):
        rows = WM.basis.get(i, [])
        cols = WN.basis.get(i, [])
        mat = PolyMatrix(len(rows), len(cols), pv)
        npos = {lab: n for n, lab in enumerate(cols)}
        for rown, (p0, q0, k0, w0, m0) in enumerate(rows):
            v = _embed(x, k0, w0, m0, q0, pv)
            wprime: dict = {}
            p, q = p0, q0
            while q >= 0:
                # codomain correction: psi(h(w')) with column sign
                if wprime:
                    wprime = _apply_h(x, wprime, q + 1)
                    wprime = _apply_split(x, n_splits.get(p - 1, {}), wprime, q)
                    if (p - 1) % 2:
                        wprime = _scale(wprime, -1)
                # domain contribution through theta
                if v and p in t_splits:
                    add = _apply_split(x, t_splits[p], v, q)
                    wprime = _merge(wprime, add, pv)
                if wprime:
                    s = q0 - q
                    sgn = -1 if (s * q0 + s * (s - 1) // 2) % 2 else 1
                    for (k2, w2, mpos2), poly in _project(x, wprime, q).items():
                        col = npos.get((p, q, k2, w2, mpos2))
                        if col is None:
                            raise MathFailure(
                                "morphism projection left the recorded models")
                        pg = poly if sgn > 0 else -poly
                        mat.rows[rown][col] = mat.rows[rown][col] + pg
                # spread the domain element one step down the staircase
                if v and p in m_splits and q >= 1:
                    v = _apply_split(x, m_splits[p], v, q)
                    v = _apply_h(x, v, q)
                    if (p + 1) % 2:
                        v = _scale(v, -1)
                else:
                    v = {}
                p, q = p + 1, q - 1
                if not v and not wprime:
                    break
        out[i] = mat
    return out


def _scale(v: dict, c: int) -> dict:
    if c == 1:
        return v
    return {key: {cc: -p for cc, p in blk.items()} for key, blk in v.items()}


def _merge(a: dict, b: dict, variables: Sequence[str]) -> dict:
    out = {k: dict(blk) for k, blk in a.items()}
    for key, blk in b.items():
        dst = out.setdefault(key, {})
        for c, p in blk.items():
            acc = dst.get(c)
            dst[c] = p if acc is None else acc + p
    return _drop_zeros(out)


# -- direct total-complex oracle ---------------------------------------------------

_ORACLE_LABEL_CAP = 400000


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

    def specialized_homology(self, assign: dict[str, Fraction]) -> dict[int, int]:
        ranks: dict[int, int] = {}
        for i, d in self.diffs.items():
            ranks[i] = _specialized_rank(d, assign)
        out = {}
        for i in self.degrees():
            out[i] = self.rank(i) - ranks.get(i, 0) - ranks.get(i - 1, 0)
        return out


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
            depth, blocks = _strand_blocks(x, alpha, e)
            for w, fam in blocks:
                for T in fam:
                    basis.setdefault(p + len(T) - 1, []).append((p, k, T, w))
    total = sum(len(v) for v in basis.values())
    if total > _ORACLE_LABEL_CAP:
        raise ResourceGuard(
            f"direct total complex needs {total} chain labels (cap "
            f"{_ORACLE_LABEL_CAP}); use the staircase construction instead")
    pos = {i: {lab: n for n, lab in enumerate(labs)}
           for i, labs in basis.items()}
    splits = {p: _split_matrix(C.diff_at(p), C.n_params, pv) for p in C.diffs}

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
            row = splits.get(p, {}).get(k)
            if row:
                for l, pieces in row.items():
                    for nu, g in pieces:
                        w2 = tuple(a + b for a, b in zip(w, nu))
                        col = tpos.get((p + 1, l, T, w2))
                        if col is None:
                            raise MathFailure("exponent left the window")
                        m.rows[rown][col] = m.rows[rown][col] + g
        diffs[i] = m
    return TotalComplex(source=C, e=e, basis=basis, diffs=diffs)
