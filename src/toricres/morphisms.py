"""The direct image as a functor: morphisms of complexes and their induced maps.

A morphism theta: M -> N acts through its mapping cone C, whose degree p
holds M^(p+1) + N^p with differential [[-d_M, theta], [0, d_N]]: the
transfer argument of the homological perturbation lemma (Crainic, "On the
perturbation lemma, and deformations", 2004).  The M-type summands of C at
degree i - 1 are those of W(M)^i, and its N-type summands at degree i those
of W(N)^i.  A walk inside M takes r steps of -d_M, a factor (-1)^r, and the
staircase sign at degree i - 1 differs from the one at i by (-1)^(r-1); so
that block of W(C) is -d_W(M).  A walk inside N sees d_N at its own degree,
so that block is d_W(N), and no walk goes from N to M.  The block F from
the M-type to the N-type summands is the induced map, and d.d = 0 on W(C)
gives d_W(M) F = F d_W(N) exactly.  The walks and their signs are those of
the `weyman` module docstring; the solve path never imports this module.
"""
from __future__ import annotations

from typing import NamedTuple

from .complexes import FreeGradedComplex
from .errors import InputError
from .qpoly import PolyMatrix, SparsePoly
from .weyman import weyman_differential


class ComplexMorphism(NamedTuple):
    """Degreewise map between complexes over the same ring, commuting with
    the differentials.  maps[p]: rows = source summands, cols = target."""

    source: FreeGradedComplex
    target: FreeGradedComplex
    maps: dict[int, PolyMatrix]

    def map_at(self, p: int) -> PolyMatrix:
        m = self.maps.get(p)
        if m is not None:
            return m
        return PolyMatrix(self.source.rank(p), self.target.rank(p),
                          self.source.variables)

    def cone(self) -> FreeGradedComplex:
        """The mapping cone: degree p holds M^(p+1) + N^p, M's summands
        first, with differential [[-d_M, theta], [0, d_N]].  Degrees inside
        the range that neither complex fills are zero-rank terms.  Raises
        InputError when the rings or a map's shape disagree, or when M or N
        fails its own validate."""
        s, t = self.source, self.target
        if (s.x, s.variables, s.n_params) != (t.x, t.variables, t.n_params):
            raise InputError("source and target live over different rings")
        for p, m in self.maps.items():
            if (m.nrows, m.ncols) != (s.rank(p), t.rank(p)):
                raise InputError(f"map shape mismatch at {p}")
        for c in (s, t):   # the cone reads an absent differential as zero
            c.validate()
        lo, hi = min(s.p_min - 1, t.p_min), max(s.p_max - 1, t.p_max)
        zero = SparsePoly.zero(s.variables)
        diffs = {}
        for p in range(lo, hi):
            dm, dn = s.diff_at(p + 1), t.diff_at(p)
            rows = [[-e for e in a] + b for a, b in zip(dm.rows, self.map_at(p + 1).rows)]
            rows += [[zero] * dm.ncols + c for c in dn.rows]
            diffs[p] = PolyMatrix.from_rows(rows, s.variables, ncols=dm.ncols + dn.ncols)
        return FreeGradedComplex(
            x=s.x, variables=s.variables, n_params=s.n_params,
            degrees={p: s.degrees.get(p + 1, ()) + t.degrees.get(p, ())
                     for p in range(lo, hi + 1)},
            diffs=diffs)

    def validate(self) -> None:
        """The cone's homogeneity and d.d = 0 are theta's homogeneity and
        the chain-map squares d_M theta = theta d_N."""
        self.cone().validate()

    def then(self, other: "ComplexMorphism") -> "ComplexMorphism":
        """Composite morphism: this map followed by other."""
        maps = {}
        for p in set(self.source.degrees) | set(other.target.degrees):
            if self.source.rank(p) or other.target.rank(p):
                maps[p] = self.map_at(p).matmul(other.map_at(p))
        return ComplexMorphism(source=self.source, target=other.target,
                               maps=maps)


def weyman_on_morphism(theta: ComplexMorphism) -> dict[int, PolyMatrix]:
    """Matrices of the induced map W(M)^i -> W(N)^i, one per degree i where
    either side is nonzero, read off the direct image of the cone of theta.

    The cone's M-type summands (k below the rank of M^(p+1)) at degree
    i - 1 are the summands of W(M)^i, and its N-type summands at degree i
    those of W(N)^i, in the same basis order; the induced map is the block
    of the cone's differential between them (see the module docstring)."""
    M = theta.source
    W = weyman_differential(theta.cone())

    def positions(i: int, m_type: bool) -> list[int]:
        return [n for n, (p, _, k, _, _) in enumerate(W.basis.get(i, []))
                if (k < M.rank(p + 1)) == m_type]

    out: dict[int, PolyMatrix] = {}
    for i in sorted({j + 1 for j in W.terms} | set(W.terms)):
        rows, cols = positions(i - 1, True), positions(i, False)
        if rows or cols:
            out[i] = W.diff_at(i - 1).submatrix(rows, cols)
    return out
