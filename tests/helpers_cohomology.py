"""Closed-form line bundle cohomology used as independent test oracles, and
the classes it is stated for."""
from __future__ import annotations

from math import comb


def e1_row(page, q: int, p_lo: int, p_hi: int) -> tuple[int, ...]:
    """The ranks of an E1Page in row q, for p = p_lo..p_hi."""
    return tuple(page.rank(p, q) for p in range(p_lo, p_hi + 1))


def bott_pn(n: int, d: int) -> list[int]:
    """Dimensions of H^q(P^n, O(d)) for q = 0..n."""
    out = [0] * (n + 1)
    if d >= 0:
        out[0] = comb(d + n, n)
    if d <= -n - 1:
        out[n] = comb(-d - 1, n)
    return out


def p1_pair(d: int) -> tuple[int, int]:
    h0 = d + 1 if d >= 0 else 0
    h1 = -d - 1 if d <= -2 else 0
    return h0, h1


def kunneth_p1p1(d1: int, d2: int) -> list[int]:
    """Dimensions of H^q(P1 x P1, O(d1, d2)) for q = 0..2."""
    a0, a1 = p1_pair(d1)
    b0, b1 = p1_pair(d2)
    return [a0 * b0, a0 * b1 + a1 * b0, a1 * b1]


def cls_of_degree(x, a: int) -> tuple[int, ...]:
    """Class a * deg(x_1); on projective space this is the degree-a twist."""
    unit = [0] * x.n_rays
    unit[0] = 1
    return tuple(a * c for c in x.degree_of(unit))


def p1p1_class(x, d1: int, d2: int) -> tuple[int, ...]:
    """The class of bidegree (d1, d2) on P1 x P1, from an explicit monomial."""
    horizontal = [r for r, u in enumerate(x.rays) if u[0] != 0]
    vertical = [r for r, u in enumerate(x.rays) if u[1] != 0]
    expo = [0] * x.n_rays
    expo[horizontal[0]] = d1
    expo[vertical[0]] = d2
    return x.degree_of(expo)
