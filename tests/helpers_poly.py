"""Polynomial accessors and serialization that only the tests read."""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from toricres.errors import InputError
from toricres.qlinalg import Coeff, cnorm
from toricres.qpoly import PolyMatrix, SparsePoly, poly_to_text
from toricres.weyman import E1Page


def _var_index(variables: Sequence[str], name: str) -> int:
    try:
        return tuple(variables).index(name)
    except ValueError:
        raise InputError(f"unknown variable {name!r}") from None


def variable(variables: Sequence[str], name: str) -> SparsePoly:
    """The polynomial `name` over the ring of `variables`."""
    e = [0] * len(variables)
    e[_var_index(variables, name)] = 1
    return SparsePoly(variables, {tuple(e): 1})


def degree_in(p: SparsePoly, name: str) -> int:
    """Degree of p in one variable; -1 for the zero polynomial."""
    i = _var_index(p.vars, name)
    return max((e[i] for e in p.terms), default=-1)


def diff(p: SparsePoly, name: str) -> SparsePoly:
    """The partial derivative of p by one variable."""
    i = _var_index(p.vars, name)
    out = {}
    for e, c in p.terms.items():
        if e[i]:
            e2 = list(e)
            e2[i] -= 1
            out[tuple(e2)] = c * e[i]
    return SparsePoly(p.vars, out)


def evaluate(p: SparsePoly, assign: Mapping[str, Coeff]) -> Coeff:
    """The value of p at a point that assigns every variable."""
    try:
        idx = [assign[v] for v in p.vars]
    except KeyError as err:
        raise InputError(f"assignment misses {err.args[0]}") from err
    total: Coeff = 0
    for e, c in p.terms.items():
        val: Coeff = c
        for x, k in zip(idx, e):
            if k:
                val = val * x ** k
        total = total + val
    return cnorm(Fraction(total)) if isinstance(total, Fraction) else total


def same_up_to_sign(p: SparsePoly, q: SparsePoly) -> bool:
    return p == q or p == -q


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
