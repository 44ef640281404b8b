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
from typing import NamedTuple, Sequence

from .errors import InputError
from .qpoly import PolyMatrix, SparsePoly
from .toric import (
    SupportProblem,
    ToricVariety,
    divisor_class,
    homogenized_exponent,
    variety_of,
)

Class = tuple[int, ...]


def class_sub(a: Class, b: Class) -> Class:
    return tuple(x - y for x, y in zip(a, b))


class FreeGradedComplex(NamedTuple):
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

    def validate(self) -> None:
        ps = sorted(self.degrees)
        if ps != list(range(ps[0], ps[-1] + 1)):
            raise InputError("degrees must occupy a contiguous range")
        n = self.n_params
        x_degree: dict[tuple[int, ...], Class] = {}   # Cox exponent -> class
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
                        xe = exp[n:]
                        degree = x_degree.get(xe)
                        if degree is None:
                            degree = x_degree[xe] = self.x.degree_of(xe)
                        if degree != expect:
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


def _contraction(fs: Sequence[SparsePoly], i: int,
                 variables: tuple[str, ...]) -> PolyMatrix:
    """Exterior contraction from the size-i subsets J of range(len(fs)) to
    the size-(i - 1) ones, both in combinations order:
    e_J -> sum over l of (-1)^l fs[J[l]] e_(J minus J[l])."""
    n = len(fs)
    dom = list(itertools.combinations(range(n), i))
    pos = {J: r for r, J in enumerate(itertools.combinations(range(n), i - 1))}
    m = PolyMatrix(len(dom), len(pos), variables)
    for r, J in enumerate(dom):
        for l, j in enumerate(J):
            m.rows[r][pos[J[:l] + J[l + 1:]]] = fs[j] if l % 2 == 0 else -fs[j]
    return m


def koszul_generic(problem: SupportProblem) -> FreeGradedComplex:
    """Koszul complex of the generic sections, degrees -s..0 for s supports.

    The summand of degree -i indexed by a size-i subset J has class
    sum_{j in J} of the class of the j-th support; the differential is
    contraction, e_J -> sum (-1)^l f_{j_l} e_{J minus j_l}, on the fan
    x = variety_of(problem).  A coefficient label that is also a Cox
    variable name of x raises InputError: the two would share one variable.
    """
    x = variety_of(problem)
    params = problem.all_labels()
    clash = sorted(set(params) & set(x.var_names()))
    if clash:
        raise InputError(f"coefficient labels {clash} are Cox variable names")
    variables = params + x.var_names()
    n_params = len(params)
    fs = generic_sections(problem, x, variables)
    s = len(problem.supports)
    d_classes = [divisor_class(x, sup) for sup in problem.supports]

    degrees = {-i: tuple(
        tuple(sum(d_classes[j][k] for j in J) for k in range(x.class_rank))
        for J in itertools.combinations(range(s), i)) for i in range(s + 1)}
    diffs = {-i: _contraction(fs, i, variables) for i in range(1, s + 1)}
    return FreeGradedComplex(x=x, variables=variables, n_params=n_params,
                             degrees=degrees, diffs=diffs)

