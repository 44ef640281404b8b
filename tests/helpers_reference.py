"""Plain reference routines that only tests use: dense inverses and
determinants, row-vector products, polynomial substitution and the eager
Cech support-pattern table."""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from toricres import cech
from toricres.qlinalg import QMatrix
from toricres.qpoly import SparsePoly, cnorm


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
