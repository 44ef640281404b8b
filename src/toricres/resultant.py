"""Sparse resultants as determinants of direct-image complexes.

Pipeline: Koszul complex of the generic system, twist, direct image, then
the determinant of the resulting based complex over the coefficient ring.
The determinant is taken with the Cayley recipe: nested row/column index
subsets picked by rank profiling at a random rational specialization,
exact polynomial minors, alternating product cleared to a polynomial.
Multiplicity is recovered afterwards by perfect-power extraction."""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .complexes import FreeGradedComplex, koszul_generic, variety_from_simplex
from .errors import InputError, MathFailure
from .qlinalg import QMatrix
from .qpoly import (
    PolyMatrix,
    SparsePoly,
    kth_root,
    poly_to_text,
    primitive_part,
)
from .toric import SupportProblem, codimension, variety_of
from .weyman import E1Page, WeymanComplex, weyman_differential, weyman_terms

Class = tuple[int, ...]


# -- determinant of a based complex --------------------------------------------------

class _Retry(Exception):
    """Internal: the current specialization pair failed; resample once."""


def _based_view(C) -> tuple[list[int], dict[int, int], dict[int, PolyMatrix],
                            tuple[str, ...]]:
    """Degrees, term ranks and differentials of a based complex over R.

    Accepts a WeymanComplex or a plain dict {degree -> PolyMatrix} with
    composable shapes (the matrix at i maps term i to term i+1)."""
    if isinstance(C, WeymanComplex):
        degs = C.degrees()
        span = list(range(degs[0], degs[-1] + 1)) if degs else []
        ranks = {i: C.rank(i) for i in span}
        diffs = {i: C.diff_at(i) for i in span[:-1]}
        return span, ranks, diffs, tuple(C.source.param_vars)
    if isinstance(C, dict):
        if not C:
            raise InputError("empty complex")
        degs = sorted(C)
        if degs != list(range(degs[0], degs[-1] + 1)):
            raise InputError("differentials must occupy a contiguous range")
        variables = C[degs[0]].vars
        ranks = {}
        for i in degs:
            m = C[i]
            if m.vars != variables:
                raise InputError("matrices live over different rings")
            if i + 1 in C and m.ncols != C[i + 1].nrows:
                raise InputError(f"shape mismatch between degrees {i} and {i + 1}")
            ranks[i] = m.nrows
        ranks[degs[-1] + 1] = C[degs[-1]].ncols
        return degs + [degs[-1] + 1], ranks, dict(C), tuple(variables)
    raise InputError("not a based complex")


def _rand_assign(pv: Sequence[str], rng: random.Random) -> dict[str, Fraction]:
    return {v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 97),
                        rng.randint(1, 19)) for v in pv}


def _eval_q(m: PolyMatrix, assign: Mapping[str, Fraction]) -> QMatrix:
    out = QMatrix(m.nrows, m.ncols)
    for r in range(m.nrows):
        for c, p in enumerate(m.rows[r]):
            if p:
                v = p.eval(assign)
                if v:
                    out.set(r, c, Fraction(v))
    return out


def _row_profile(dq: QMatrix, cols: Sequence[int], need: int) -> list[int] | None:
    """First `need` rows whose restriction to `cols` is of full rank."""
    if need == 0:
        return []
    chosen: list[int] = []
    echelon: list[tuple[int, list[Fraction]]] = []   # (pivot position, row)
    for rn in range(dq.nrows):
        vec = [Fraction(dq.get(rn, c)) for c in cols]
        for piv, row in echelon:
            f = vec[piv]
            if f:
                vec = [a - f * b for a, b in zip(vec, row)]
        piv = next((j for j, a in enumerate(vec) if a), None)
        if piv is None:
            continue
        inv = vec[piv]
        echelon.append((piv, [a / inv for a in vec]))
        chosen.append(rn)
        if len(chosen) == need:
            return chosen
    return None


def _pm_minor(m: PolyMatrix, rows: Sequence[int], cols: Sequence[int]) -> PolyMatrix:
    out = PolyMatrix(len(rows), len(cols), m.vars)
    for a, r in enumerate(rows):
        for b, c in enumerate(cols):
            out.rows[a][b] = m.rows[r][c]
    return out


def _det_once(span: list[int], ranks: dict[int, int],
              diffs: dict[int, PolyMatrix], pv: tuple[str, ...],
              a_profile: dict[str, Fraction], a_certify: dict[str, Fraction],
              ) -> tuple[SparsePoly, dict[int, dict[str, list[int]]]]:
    spec = {i: _eval_q(diffs[i], a_profile) for i in span[:-1]}
    r = {i: m.rank() for i, m in spec.items()}
    for i in span:
        if ranks.get(i, 0) != r.get(i, 0) + r.get(i - 1, 0):
            raise _Retry("complex has nonzero generic homology")
    # nested subsets from the right end leftwards
    cols = list(range(ranks[span[-1]]))
    subsets: dict[int, dict[str, list[int]]] = {}
    minors: list[tuple[int, PolyMatrix]] = []
    for i in reversed(span[:-1]):
        rows = _row_profile(spec[i], cols, len(cols))
        if rows is None:
            raise _Retry("complex has nonzero generic homology")
        if cols:
            minor = _pm_minor(diffs[i], rows, cols)
            size = len(cols)
            if QMatrix.from_dense(minor.eval(a_certify)).rank() != size:
                raise _Retry("index subsets fail the certifying specialization")
            minors.append((i, minor))
            subsets[i] = {"rows": list(rows), "cols": list(cols)}
        taken = set(rows)
        cols = [c for c in range(ranks[i]) if c not in taken]
    if cols:
        raise _Retry("complex has nonzero generic homology")
    # the determinant is prod det(M_i)^((-1)^(i+1)): odd degrees multiply
    one = SparsePoly.const(pv, 1)
    num, den = one, one
    for i, minor in minors:
        d = minor.det()
        if i % 2:
            num = num * d
        else:
            den = den * d
    out = num.exact_div(den)
    if out is None:
        raise _Retry("alternating product of minors did not clear to a polynomial")
    return out, subsets


def _determinant_with_subsets(C, seed: int = 0,
                              ) -> tuple[SparsePoly, dict[int, dict[str, list[int]]]]:
    span, ranks, diffs, pv = _based_view(C)
    if not span or all(ranks.get(i, 0) == 0 for i in span):
        return SparsePoly.const(pv, 1), {}
    rng = random.Random(seed)
    last = "unreachable"
    for _ in range(2):
        a1 = _rand_assign(pv, rng)
        a2 = _rand_assign(pv, rng)
        try:
            return _det_once(span, ranks, diffs, pv, a1, a2)
        except _Retry as err:
            last = str(err)
    raise MathFailure(last)


def determinant_of_complex(C, seed: int = 0) -> SparsePoly:
    """Determinant of a generically exact based complex, up to sign.

    For a two-term square complex this is the plain matrix determinant;
    in general it is the alternating product of the exact minors attached
    to nested index subsets, cleared to a polynomial."""
    return _determinant_with_subsets(C, seed)[0]


# -- the resultant pipeline ----------------------------------------------------------

@dataclass(frozen=True)
class ResultantOutput:
    delta: SparsePoly                 # primitive integer polynomial
    multiplicity: int
    root: SparsePoly                  # root**multiplicity == +-delta
    e1: E1Page
    term_ranks: dict[int, int]
    twist: Class
    subsets: dict[int, dict[str, list[int]]]

    def to_obj(self) -> dict:
        return {
            "delta": poly_to_text(self.delta),
            "multiplicity": self.multiplicity,
            "root": poly_to_text(self.root),
            "coefficients": list(self.delta.vars),
            "e1": self.e1.to_obj(),
            "term_ranks": {str(i): n for i, n in sorted(self.term_ranks.items())},
            "twist": list(self.twist),
            "index_subsets": {str(i): s for i, s in sorted(self.subsets.items())},
        }


def _largest_minor(ranks: Mapping[int, int]) -> int:
    """Size of the largest minor _det_once takes, from the term ranks alone:
    every column of the top degree, then at each lower degree the rows that
    the minor above left over."""
    largest = cols = 0
    for i in range(max(ranks, default=0), min(ranks, default=0) - 1, -1):
        cols = ranks.get(i, 0) - cols
        largest = max(largest, cols)
    return largest


def _twist_cost(K: FreeGradedComplex, tw: Class) -> tuple[int, int, int]:
    """Cost key of a candidate twist, read from its rank-only E1 page."""
    terms, _ = weyman_terms(K.twist(tw))
    ranks = {i: sum(s.dim for s in ss) for i, ss in terms.items()}
    higher = sum(s.dim for ss in terms.values() for s in ss if s.q > 0)
    return higher, _largest_minor(ranks), sum(ranks.values())


def resolve_twist(K: FreeGradedComplex, twist) -> Class:
    """Accept the "default" keyword or an explicit class vector.

    The determinant of the direct image does not depend on the twist; only
    the size of the complex does.  The default is the cheapest of 2A, A and
    0 (A the anticanonical class of K's variety), judged from each rank-only
    E1 page, without building a differential: first the total dimension of
    the summands with q > 0, then the largest minor of the determinant, then
    the sum of the term ranks; ties go to the earlier candidate.  Summands
    with q = 0 are global sections, whose maps are plain multiplications
    that need no Cech certificate family or walk, which is why that key
    comes first."""
    x = K.x
    if twist is None or twist == "default":
        a = x.anticanonical_class()
        candidates = [tuple(2 * c for c in a), tuple(a), (0,) * len(a)]
        return min(candidates, key=lambda tw: _twist_cost(K, tw))
    try:
        t = tuple(int(c) for c in twist)
    except (TypeError, ValueError) as err:
        raise InputError(f"twist must be 'default' or an integer vector: {twist!r}") from err
    if len(t) != x.class_rank:
        raise InputError(
            f"twist has {len(t)} entries, the class group has rank {x.class_rank}")
    return t


def _multiplicity(delta: SparsePoly) -> tuple[int, SparsePoly]:
    d = delta.total_degree()
    for k in range(d, 1, -1):
        if d % k:
            continue
        root = kth_root(delta, k)
        if root is not None:
            return k, root
    return 1, delta


def a_resultant(problem: SupportProblem, twist="default", seed: int = 0) -> ResultantOutput:
    """The resultant of the generic system with the given supports.

    The eliminant variety must be a hypersurface; the determinant of the
    twisted direct-image complex is normalized to a primitive integer
    polynomial and factored as root**multiplicity.  The twist changes only
    the size of the complex: the default is the cheapest of twice the
    anticanonical class, the anticanonical class and zero, fewest q > 0
    summand dimensions first (they alone need Cech certificates), then the
    smallest largest minor (see resolve_twist); an explicit twist is used
    as given.  The seed draws the two rational points that pick and certify
    the index subsets of the Cayley determinant (see _det_once); a failed
    draw is repeated once with fresh points, and a second failure raises
    MathFailure."""
    n = len(problem.supports[0][0])
    if len(problem.supports) != n + 1:
        raise InputError(
            f"resultants need {n + 1} supports in dimension {n}, "
            f"got {len(problem.supports)}")
    cod = codimension(problem.supports)
    if cod != 1:
        raise MathFailure(
            f"the eliminant variety has codimension {cod}; "
            "the resultant is defined only in codimension one")
    x = variety_of(problem)
    K = koszul_generic(problem, x)
    tw = resolve_twist(K, twist)
    C = K.twist(tw)
    W = weyman_differential(C)
    try:
        raw, subsets = _determinant_with_subsets(W, seed)
    except MathFailure as err:
        if "homology" in str(err):
            raise MathFailure("degenerate twist or support configuration") from err
        raise
    delta = primitive_part(raw)
    if delta.is_constant():
        raise MathFailure("degenerate twist or support configuration")
    m, root = _multiplicity(delta)
    return ResultantOutput(
        delta=delta, multiplicity=m, root=primitive_part(root),
        e1=W.e1, term_ranks={i: W.rank(i) for i in W.degrees()},
        twist=tw, subsets=subsets)


# -- univariate oracle ---------------------------------------------------------------

def _coeffs_in(p: SparsePoly, var: str) -> list[SparsePoly]:
    """Coefficient polynomials of the powers of one variable."""
    vi = p.vars.index(var)
    d = p.degree_in(var)
    buckets: list[dict] = [dict() for _ in range(d + 1)]
    for e, c in p.terms.items():
        rest = list(e)
        k = rest[vi]
        rest[vi] = 0
        buckets[k][tuple(rest)] = buckets[k].get(tuple(rest), 0) + c
    return [SparsePoly(p.vars, b) for b in buckets]


def sylvester_resultant(f: SparsePoly, g: SparsePoly, var: str) -> SparsePoly:
    """Determinant of the Sylvester matrix in the named variable.

    Coefficients are laid out in ascending order, so the 2x2 case gives
    a0*b1 - a1*b0 exactly."""
    if f.is_zero() or g.is_zero():
        raise InputError("resultant of the zero polynomial")
    if f.vars != g.vars:
        raise InputError("operands live over different rings")
    if var not in f.vars:
        raise InputError(f"unknown variable {var!r}")
    d1 = f.degree_in(var)
    d2 = g.degree_in(var)
    if d1 < 1 or d2 < 1:
        raise InputError("both operands must have positive degree")
    fc = _coeffs_in(f, var)
    gc = _coeffs_in(g, var)
    n = d1 + d2
    m = PolyMatrix(n, n, f.vars)
    for s in range(d2):
        for k in range(d1 + 1):
            m.rows[s][s + k] = fc[k]
    for s in range(d1):
        for k in range(d2 + 1):
            m.rows[d2 + s][s + k] = gc[k]
    return m.det()


# -- incidence sampling --------------------------------------------------------------

def _mono_value(z: Sequence[Fraction], nu: Sequence[int]) -> Fraction:
    out = Fraction(1)
    for a, k in zip(z, nu):
        if k:
            out *= a ** k
    return out


def incidence_sample(problem: SupportProblem,
                     rng: random.Random) -> dict[str, Fraction]:
    """Random coefficient specialization with a shared torus zero.

    Picks a random rational torus point, gives every coefficient but one
    per support a random value, and solves the remaining one so that every
    polynomial of the system vanishes at the point."""
    m = len(problem.supports[0][0])
    z = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
         for _ in range(m)]
    assign: dict[str, Fraction] = {}
    for sup, labs in zip(problem.supports, problem.labels):
        vals = [_mono_value(z, nu) for nu in sup]
        k0 = rng.randrange(len(sup))
        total = Fraction(0)
        for k, lab in enumerate(labs):
            if k == k0:
                continue
            c = Fraction(rng.randint(-9, 9))
            assign[lab] = c
            total += c * vals[k]
        assign[labs[k0]] = -total / vals[k0]
    return assign


def random_specialization(problem: SupportProblem,
                          rng: random.Random) -> dict[str, Fraction]:
    """Fully random coefficient values, nonzero to stay clear of faces."""
    return {lab: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                          rng.randint(1, 9))
            for labs in problem.labels for lab in labs}


def membership_test(delta: SparsePoly, spec: Mapping[str, Fraction]) -> bool:
    """Exact zero test of delta at a full coefficient specialization."""
    used = set()
    for e in delta.terms:
        for v, k in zip(delta.vars, e):
            if k:
                used.add(v)
    missing = sorted(used - set(spec))
    if missing:
        raise InputError(f"specialization misses {missing[0]}")
    full = {v: Fraction(spec[v]) if v in spec else Fraction(0)
            for v in delta.vars}
    return delta.eval(full) == 0


# -- implicitization of rational plane curves ----------------------------------------

def _binary_degree(p: SparsePoly) -> int:
    degs = {e[-2] + e[-1] for e in p.terms}
    if len(degs) != 1:
        raise InputError("form is not homogeneous in the last two variables")
    return degs.pop()


def _gcd_lists(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Monic gcd of two coefficient lists, ascending order."""
    def trim(c):
        while c and not c[-1]:
            c.pop()
        return c
    a, b = trim(list(a)), trim(list(b))
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        f = a[-1] / b[-1]
        off = len(a) - len(b)
        a = trim([c - f * b[i - off] if i >= off else c
                  for i, c in enumerate(a)])
        if len(a) < len(b):
            a, b = b, a
    return [c / a[-1] for c in a] if a else [Fraction(0)]


def _common_factor_generically(forms: list[SparsePoly], params: tuple[str, ...],
                               rng: random.Random) -> bool:
    """True when the binary forms share a factor at two random parameter
    specializations.  Dehomogenizes at first coordinate one; a shared root
    there covers every common factor apart from a power of that coordinate,
    which the leading coefficients catch."""
    for _ in range(2):
        assign = {v: Fraction(rng.choice((-1, 1)) * rng.randint(1, 50),
                              rng.randint(1, 7)) for v in params}
        coeffs = []
        for p in forms:
            d = _binary_degree(p)
            c = [Fraction(0)] * (d + 1)
            for e, val0 in p.terms.items():
                val = Fraction(val0)
                for name, k in zip(p.vars[:-2], e):
                    if k:
                        val *= assign[name] ** k
                c[e[-1]] += val
            coeffs.append(c)
        g = coeffs[0]
        for c in coeffs[1:]:
            g = _gcd_lists(g, c)
        divisible_by_first = all(not c[-1] for c in coeffs)
        if len(g) - 1 < 1 and not divisible_by_first:
            return False
    return True


def implicitize_curve(f0: SparsePoly, f1: SparsePoly, f2: SparsePoly,
                      u: str = "u", v: str = "v", seed: int = 0) -> SparsePoly:
    """Implicit equation of the plane curve (f1/f0, f2/f0) on the line.

    The forms share a variable tuple whose last two entries parametrize the
    line; any leading entries are free parameters of the family.  Returns
    the primitive polynomial in (parameters, u, v) cutting out the image in
    the affine chart (u, v)."""
    if not (f0.vars == f1.vars == f2.vars) or len(f0.vars) < 2:
        raise InputError("the three forms must share one variable tuple "
                         "ending in the two line variables")
    if f0.is_zero() or f1.is_zero() or f2.is_zero():
        raise InputError("forms must be nonzero")
    params = f0.vars[:-2]
    x = variety_from_simplex(1)
    taken = set(params) | set(x.var_names())
    if u in taken or v in taken or u == v:
        raise InputError("chart variable names collide")
    if set(params) & set(x.var_names()):
        raise InputError("parameter names collide with the line coordinates")
    d = _binary_degree(f0)
    if {_binary_degree(f1), _binary_degree(f2)} != {d}:
        raise InputError("forms must share one degree")
    if d < 1:
        raise InputError("degree must be positive")
    rng = random.Random(seed + 1)
    if _common_factor_generically([f0, f1, f2], params, rng):
        raise MathFailure("the forms share a common factor; "
                          "the image curve degenerates")
    pv = params + (u, v)
    variables = pv + x.var_names()
    nold = len(f0.vars) - 2

    def lift(p: SparsePoly, extra: str | None) -> SparsePoly:
        terms = {}
        for e, c in p.terms.items():
            key = (e[:nold] + ((1,) if extra == u else (0,))
                   + ((1,) if extra == v else (0,)) + e[nold:])
            terms[key] = terms.get(key, 0) + c
        return SparsePoly(variables, terms)

    g1 = lift(f0, u) - lift(f1, None)
    g2 = lift(f0, v) - lift(f2, None)
    K = FreeGradedComplex(
        x=x, variables=variables, n_params=len(pv),
        degrees={-2: ((2 * d,),), -1: ((d,), (d,)), 0: ((0,),)},
        diffs={-2: PolyMatrix.from_rows([[-g2, g1]], variables, ncols=2),
               -1: PolyMatrix.from_rows([[g1], [g2]], variables)})
    W = weyman_differential(K.twist((2 * d - 1,)))
    out = primitive_part(determinant_of_complex(W, seed=seed))
    if out.is_constant():
        raise MathFailure("implicit equation degenerated to a constant")
    return out
