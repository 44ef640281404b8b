"""Polynomial accessors and serialization that only the tests read."""
from __future__ import annotations

from typing import Sequence

from toricres.qpoly import Coeff, PolyMatrix, SparsePoly, poly_to_text
from toricres.weyman import E1Page


def constant_value(p: SparsePoly) -> Coeff:
    """The value of a constant polynomial (0 for the zero polynomial)."""
    if not p.terms:
        return 0
    [(e, c)] = p.terms.items()
    if any(e):
        raise ValueError("not a constant")
    return c


def renamed(p: SparsePoly, variables: Sequence[str]) -> SparsePoly:
    """Same exponents, new variable names (lengths must match)."""
    if len(variables) != len(p.vars):
        raise ValueError("length mismatch")
    return SparsePoly(variables, dict(p.terms))


def transpose(m: PolyMatrix) -> PolyMatrix:
    out = PolyMatrix(m.ncols, m.nrows, m.vars)
    for i in range(m.nrows):
        for j in range(m.ncols):
            out.rows[j][i] = m.rows[i][j]
    return out


def matmul_reference(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Entrywise sum over k of a[i][k] * b[k][j], by SparsePoly + and *."""
    out = PolyMatrix(a.nrows, b.ncols, a.vars)
    for i in range(a.nrows):
        for j in range(b.ncols):
            for k in range(a.ncols):
                out.rows[i][j] = out.rows[i][j] + a.rows[i][k] * b.rows[k][j]
    return out


def matrix_text(m: PolyMatrix) -> list[list[str]]:
    """The cells of m as `poly_to_text` strings, the input of
    `PolyMatrix.from_text`."""
    return [[poly_to_text(p) for p in row] for row in m.rows]


def e1_page_from_obj(obj: list[list[int]]) -> E1Page:
    """Inverse of `E1Page.to_obj`."""
    return E1Page({(p, q): r for p, q, r in obj})
