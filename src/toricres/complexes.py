"""Bounded complexes of free graded modules over a parametric Cox ring.

The ring is Z[parameters][x_1..x_R] with the Cox variables graded by the
class group of a toric variety and the parameters in degree zero.  Every
entry is a SparsePoly, a polynomial of Z[variables] by construction (see
qpoly): int coefficients and no negative exponent.  A complex stores, per
cohomological degree p, the tuple of summand classes (S[-alpha] has class
alpha) and the differential to degree p+1 as a PolyMatrix in the row
convention: rows index the domain summands, and the entry in row k,
column l is homogeneous of x-degree alpha_p[k] - alpha_{p+1}[l].
"""
from __future__ import annotations

import itertools
from collections import namedtuple
from typing import Sequence

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


class FreeGradedComplex(namedtuple("FreeGradedComplex", "x variables n_params degrees diffs")):
    """Finite complex of free graded modules, differentials of degree +1;
    variables: parameter names, then Cox variable names."""

    __slots__ = ()

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
        """The input boundary of the pipeline, and the one place that says
        what a complex may hold: contiguous degrees, a differential at each
        degree but the last and none elsewhere, over the complex's
        variables as a matrix and in every entry, of the right shape, and
        d.d = 0; homogeneous entries; one variable per parameter and Cox
        variable, and one entry per class-group generator in every summand
        class.  Any failure raises InputError, and the direct-image walk
        trusts the rest.  That an entry has int coefficients and no
        negative exponent SparsePoly checks where it is built."""
        ps = sorted(self.degrees)
        if not ps:
            raise InputError("a complex needs at least one degree")
        if ps != list(range(ps[0], ps[-1] + 1)):
            raise InputError("degrees must occupy a contiguous range")
        n, nv = self.n_params, len(self.variables)
        if nv != n + self.x.n_rays:
            raise InputError(f"{nv} variables for {n} parameters "
                             f"and {self.x.n_rays} Cox variables")
        for a in itertools.chain.from_iterable(self.degrees.values()):
            if len(a) != self.x.class_rank:
                raise InputError(f"summand class {a} has {len(a)} entries; "
                                 f"the class group has rank {self.x.class_rank}")
        stray = set(self.diffs) - set(ps[:-1])
        if stray:
            raise InputError(f"stray differential at {min(stray)}")
        x_degree: dict[tuple[int, ...], Class] = {}   # Cox exponent -> class
        for p in ps[:-1]:
            d = self.diffs.get(p)
            if d is None:
                raise InputError(f"missing differential at {p}")
            if d.vars != self.variables:
                raise InputError(f"differential at {p} is over {d.vars}")
            if (d.nrows, d.ncols) != (self.rank(p), self.rank(p + 1)):
                raise InputError(f"differential shape mismatch at {p}")
            for k in range(d.nrows):
                for l in range(d.ncols):
                    entry = d.rows[k][l]
                    if entry.vars != self.variables:
                        raise InputError(f"entry at p={p}, ({k},{l}) is over {entry.vars}")
                    expect = class_sub(self.degrees[p][k], self.degrees[p + 1][l])
                    for exp in entry.terms:
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

    The j-th form has the class of the j-th support (koszul_complex), on
    the fan x = variety_of(problem).  A coefficient label that is also a
    Cox variable name of x repeats a variable, which SparsePoly refuses
    with InputError.
    """
    x = variety_of(problem)
    params = problem.all_labels()
    variables = params + x.var_names()
    n_params = len(params)
    fs = generic_sections(problem, x, variables)
    return koszul_complex(x, variables, n_params, fs,
                          [divisor_class(x, sup) for sup in problem.supports])


def koszul_complex(x: ToricVariety, variables: tuple[str, ...], n_params: int,
                   fs: Sequence[SparsePoly], classes: Sequence[Class]) -> FreeGradedComplex:
    """Koszul complex of the forms fs, of the given classes, degrees -s..0
    for s forms: the summand of degree -i indexed by a size-i subset J has
    class sum_{j in J} classes[j], and the differential is contraction,
    e_J -> sum (-1)^l fs[J[l]] e_(J minus J[l])."""
    s = len(fs)
    degrees = {-i: tuple(
        tuple(sum(classes[j][k] for j in J) for k in range(x.class_rank))
        for J in itertools.combinations(range(s), i)) for i in range(s + 1)}
    diffs = {-i: _contraction(fs, i, variables) for i in range(1, s + 1)}
    return FreeGradedComplex(x=x, variables=variables, n_params=n_params,
                             degrees=degrees, diffs=diffs)

