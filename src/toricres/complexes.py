"""Bounded complexes of free graded modules over a parametric Cox ring.

The ring is Q[parameters][x_1..x_R] with the Cox variables graded by the
class group of a toric variety and the parameters in degree zero.  A
complex stores, per cohomological degree p, the tuple of summand classes
(S[-alpha] has class alpha) and the differential to degree p+1 as a
PolyMatrix in the row convention: rows index the domain summands, and the
entry in row k, column l is homogeneous of x-degree alpha_p[k] - alpha_{p+1}[l].
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import InputError
from .qpoly import PolyMatrix, SparsePoly
from .toric import (
    SupportProblem,
    ToricVariety,
    divisor_class,
    homogenized_exponent,
    variety_from_points,
    variety_of,
)

Class = tuple[int, ...]


def class_sub(a: Class, b: Class) -> Class:
    return tuple(x - y for x, y in zip(a, b))


@dataclass
class FreeGradedComplex:
    """Finite complex of free graded modules, differentials of degree +1."""

    x: ToricVariety
    variables: tuple[str, ...]    # parameter names, then Cox variable names
    n_params: int
    degrees: dict[int, tuple[Class, ...]]
    diffs: dict[int, PolyMatrix]

    @property
    def p_min(self) -> int:
        return min(self.degrees)

    @property
    def p_max(self) -> int:
        return max(self.degrees)

    @property
    def param_vars(self) -> tuple[str, ...]:
        return self.variables[:self.n_params]

    def rank(self, p: int) -> int:
        return len(self.degrees.get(p, ()))

    def diff_at(self, p: int) -> PolyMatrix:
        d = self.diffs.get(p)
        if d is None:
            return PolyMatrix(self.rank(p), self.rank(p + 1), self.variables)
        return d

    def x_degree(self, term_exp: Sequence[int]) -> Class:
        return self.x.degree_of(term_exp[self.n_params:])

    def validate(self) -> None:
        ps = sorted(self.degrees)
        if ps != list(range(ps[0], ps[-1] + 1)):
            raise InputError("degrees must occupy a contiguous range")
        for p in ps[:-1]:
            d = self.diffs.get(p)
            if d is None:
                raise InputError(f"missing differential at {p}")
            if (d.nrows, d.ncols) != (self.rank(p), self.rank(p + 1)):
                raise InputError(f"differential shape mismatch at {p}")
            for k in range(d.nrows):
                for l in range(d.ncols):
                    expect = class_sub(self.degrees[p][k], self.degrees[p + 1][l])
                    for exp in d.rows[k][l].terms:
                        if self.x_degree(exp) != expect:
                            raise InputError(
                                f"inhomogeneous entry at p={p}, ({k},{l})")
        for p in ps[:-2]:
            if not self.diffs[p].matmul(self.diffs[p + 1]).is_zero():
                raise InputError(f"differentials do not compose to zero at {p}")

    def twist(self, beta: Class) -> "FreeGradedComplex":
        """Tensor with the class beta: every summand class drops by beta."""
        return FreeGradedComplex(
            x=self.x,
            variables=self.variables,
            n_params=self.n_params,
            degrees={p: tuple(class_sub(a, beta) for a in pa)
                     for p, pa in self.degrees.items()},
            diffs=dict(self.diffs),
        )


@dataclass
class ComplexMorphism:
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

    def validate(self) -> None:
        s, t = self.source, self.target
        if s.variables != t.variables or s.n_params != t.n_params:
            raise InputError("source and target live over different rings")
        for p, m in self.maps.items():
            if (m.nrows, m.ncols) != (s.rank(p), t.rank(p)):
                raise InputError(f"map shape mismatch at {p}")
            for k in range(m.nrows):
                for l in range(m.ncols):
                    expect = class_sub(s.degrees[p][k], t.degrees[p][l])
                    for exp in m.rows[k][l].terms:
                        if s.x_degree(exp) != expect:
                            raise InputError(f"inhomogeneous map entry at p={p}")
        # d_s . theta_{p+1} == theta_p . d_t, with absent blocks zero
        for p in range(min(s.p_min, t.p_min), max(s.p_max, t.p_max)):
            lhs = s.diff_at(p).matmul(self.map_at(p + 1))
            rhs = self.map_at(p).matmul(t.diff_at(p))
            if not _pm_sub(lhs, rhs).is_zero():
                raise InputError(f"morphism square fails at {p}")

    def then(self, other: "ComplexMorphism") -> "ComplexMorphism":
        """Composite morphism: this map followed by other."""
        maps = {}
        for p in set(self.source.degrees) | set(other.target.degrees):
            if self.source.rank(p) or other.target.rank(p):
                maps[p] = self.map_at(p).matmul(other.map_at(p))
        return ComplexMorphism(source=self.source, target=other.target,
                               maps=maps)


def _pm_sub(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    out = PolyMatrix(a.nrows, a.ncols, a.vars)
    for i in range(a.nrows):
        for j in range(a.ncols):
            out.rows[i][j] = a.rows[i][j] - b.rows[i][j]
    return out


def x_split(p: SparsePoly, n_params: int,
            param_vars: Sequence[str]) -> dict[tuple[int, ...], SparsePoly]:
    """Group the terms of a combined-ring polynomial by Cox exponent;
    values are polynomials in the parameters alone."""
    out: dict[tuple[int, ...], dict] = {}
    for e, c in p.terms.items():
        xe = e[n_params:]
        pe = e[:n_params]
        out.setdefault(xe, {})[pe] = c
    return {xe: SparsePoly(param_vars, t) for xe, t in out.items()}


# -- generic Koszul complex of a support problem -------------------------------

def generic_sections(problem: SupportProblem, x: ToricVariety,
                     variables: tuple[str, ...]) -> list[SparsePoly]:
    """f_j = sum over points of label * x^homogenized(point)."""
    n_params = len(problem.all_labels())
    var_index = {v: i for i, v in enumerate(variables)}
    out = []
    for j, support in enumerate(problem.supports):
        terms = {}
        for point, label in zip(support, problem.labels[j]):
            xe = homogenized_exponent(x, support, point)
            e = [0] * len(variables)
            e[var_index[label]] = 1
            for r, k in enumerate(xe):
                e[n_params + r] = k
            terms[tuple(e)] = 1
        out.append(SparsePoly(variables, terms))
    return out


def koszul_generic(problem: SupportProblem,
                   x: ToricVariety | None = None) -> FreeGradedComplex:
    """Koszul complex of the generic sections, degrees -s..0 for s supports.

    The summand of degree -i indexed by a size-i subset J has class
    sum_{j in J} of the class of the j-th support; the differential is
    contraction, e_J -> sum (-1)^l f_{j_l} e_{J minus j_l}.
    """
    if x is None:
        x = variety_of(problem)
    params = problem.all_labels()
    variables = params + x.var_names()
    n_params = len(params)
    fs = generic_sections(problem, x, variables)
    s = len(problem.supports)
    d_classes = [divisor_class(x, sup) for sup in problem.supports]

    subsets: dict[int, list[tuple[int, ...]]] = {
        i: list(itertools.combinations(range(s), i)) for i in range(s + 1)}
    degrees: dict[int, tuple[Class, ...]] = {}
    for i in range(s + 1):
        degrees[-i] = tuple(
            tuple(sum(d_classes[j][k] for j in J) for k in range(x.class_rank))
            for J in subsets[i])

    diffs: dict[int, PolyMatrix] = {}
    for i in range(1, s + 1):
        dom, cod = subsets[i], subsets[i - 1]
        pos = {J: r for r, J in enumerate(cod)}
        m = PolyMatrix(len(dom), len(cod), variables)
        for r, J in enumerate(dom):
            for l, j in enumerate(J):
                J2 = tuple(v for v in J if v != j)
                f = fs[j] if l % 2 == 0 else -fs[j]
                m.rows[r][pos[J2]] = f
        diffs[-i] = m

    return FreeGradedComplex(x=x, variables=variables, n_params=n_params,
                             degrees=degrees, diffs=diffs)


# -- fixture: a four-term complex built from one hypersurface -------------------

def cotangent_family_complex(d: int) -> FreeGradedComplex:
    """Complex S[-2d] -> S[-d] + S[-d-1]^3 -> S[-d] + S[-1]^3 -> S on the
    projective plane, for the generic degree-d form F; exactness of the
    squares rests on the Euler identity sum x_i dF/dx_i = d F.

    Twisted so that the rightmost class is -floor(2d/3)."""
    x = variety_from_simplex(2)
    monos = [(a, b, d - a - b) for a in range(d + 1) for b in range(d - a + 1)]
    monos.sort()
    params = tuple(f"a{i + 1}" for i in range(len(monos)))
    xv = x.var_names()
    variables = params + xv
    n_params = len(params)

    def term(i: int, xe: tuple[int, int, int]) -> tuple[int, ...]:
        e = [0] * len(variables)
        e[i] = 1
        for r, k in enumerate(xe):
            e[n_params + r] = k
        return tuple(e)

    f = SparsePoly(variables, {term(i, m): 1 for i, m in enumerate(monos)})
    fx = [f.diff(v) for v in xv]
    xs = [SparsePoly.variable(variables, v) for v in xv]
    czero = SparsePoly.zero(variables)

    h = x.degree_of([1, 0, 0])  # hyperplane class in this presentation
    def cls(k: int) -> Class:
        return tuple(k * c for c in h)

    degrees = {
        -3: (cls(2 * d),),
        -2: (cls(d), cls(d + 1), cls(d + 1), cls(d + 1)),
        -1: (cls(d), cls(1), cls(1), cls(1)),
        0: (cls(0),),
    }
    d3 = PolyMatrix.from_rows([[f, -fx[0], -fx[1], -fx[2]]], variables)
    d2 = PolyMatrix.from_rows([
        [SparsePoly.const(variables, -d), fx[0], fx[1], fx[2]],
        [-xs[0], f, czero, czero],
        [-xs[1], czero, f, czero],
        [-xs[2], czero, czero, f],
    ], variables)
    d1 = PolyMatrix.from_rows([[f], [xs[0]], [xs[1]], [xs[2]]], variables)
    cpx = FreeGradedComplex(x=x, variables=variables, n_params=n_params,
                            degrees=degrees, diffs={-3: d3, -2: d2, -1: d1})
    tau = (2 * d) // 3
    return cpx.twist(cls(tau))


# -- fixture: exterior-power resolution mapped onto the structure sheaf ----------

def koszul_vs_unit_fixture(n: int) -> ComplexMorphism:
    """Source: contraction complex with degree-p term the (1-p)-th exterior
    power of S(-1)^(n+1) on projective n-space, p = -n..0.  Target: S in
    degree 0.  The map sends e_j to x_j."""
    x = variety_from_simplex(n)
    xv = x.var_names()
    variables = xv  # no parameters
    xs = [SparsePoly.variable(variables, v) for v in xv]

    one = x.degree_of([1] + [0] * (x.n_rays - 1))
    def cls(k: int) -> Class:
        return tuple(k * c for c in one)

    subsets = {i: list(itertools.combinations(range(n + 1), i))
               for i in range(n + 2)}
    degrees: dict[int, tuple[Class, ...]] = {}
    diffs: dict[int, PolyMatrix] = {}
    for p in range(-n, 1):
        i = 1 - p
        degrees[p] = tuple(cls(i) for _ in subsets[i])
    for p in range(-n, 0):
        i = 1 - p
        dom, cod = subsets[i], subsets[i - 1]
        pos = {J: r for r, J in enumerate(cod)}
        m = PolyMatrix(len(dom), len(cod), variables)
        for r, J in enumerate(dom):
            for l, j in enumerate(J):
                J2 = tuple(v for v in J if v != j)
                m.rows[r][pos[J2]] = xs[j] if l % 2 == 0 else -xs[j]
        diffs[p] = m
    source = FreeGradedComplex(x=x, variables=variables, n_params=0,
                               degrees=degrees, diffs=diffs)
    target = FreeGradedComplex(x=x, variables=variables, n_params=0,
                               degrees={0: (cls(0),)}, diffs={})
    theta0 = PolyMatrix.from_rows([[xs[j]] for j in range(n + 1)], variables)
    return ComplexMorphism(source=source, target=target, maps={0: theta0})


def variety_from_simplex(n: int) -> ToricVariety:
    pts = [tuple(0 for _ in range(n))]
    for k in range(n):
        pts.append(tuple(1 if i == k else 0 for i in range(n)))
    return variety_from_points(pts)
