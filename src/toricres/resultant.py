"""Sparse resultants as determinants of direct-image complexes.

Pipeline: Koszul complex of the generic system, twist (the zero class
unless the caller names one; see resolve_twist), direct image, then
the determinant of the resulting based complex over the coefficient ring.
The determinant is taken with the Cayley recipe: nested row/column index
subsets picked, and proven, by rank profiling modulo a prime at one random
integer point, exact polynomial minors, alternating product cleared to a
polynomial.
Multiplicity is recovered afterwards by perfect-power extraction."""
from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Mapping, NamedTuple, Sequence

from .complexes import FreeGradedComplex, koszul_generic, variety_from_simplex
from .errors import InputError, MathFailure
from .qpoly import (
    Coeff,
    PolyMatrix,
    SparsePoly,
    _is_name,
    kth_root,
    poly_to_text,
    primitive_part,
)
from .toric import SupportProblem, codimension, variety_of
from .weyman import E1Page, WeymanComplex, weyman_differential

Class = tuple[int, ...]

# The Cayley subsets are proven modulo this number; the proof needs a prime.
FIRST_PRIME = (1 << 61) - 1


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
        if any(type(i) is not int or not isinstance(m, PolyMatrix) for i, m in C.items()):
            raise InputError("a based complex maps integer degrees to PolyMatrix instances")
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


def _rand_assign(pv: Sequence[str], rng: random.Random) -> dict[str, int]:
    return {v: rng.randrange(1, FIRST_PRIME) for v in pv}


def _coeff_mod(c: Coeff) -> int:
    if type(c) is int:
        return c
    if not c.denominator % FIRST_PRIME:
        raise MathFailure("a coefficient's denominator is divisible by the modulus")
    return c.numerator * pow(c.denominator, -1, FIRST_PRIME)


def _eval_mod(m: PolyMatrix, assign: Mapping[str, int]) -> list[dict[int, int]]:
    """Sparse rows (column -> value) of m at an integer point, mod FIRST_PRIME."""
    p = FIRST_PRIME
    point = [assign[v] % p for v in m.vars]
    monos: dict[tuple[int, ...], int] = {}
    out = []
    for row in m.rows:
        vals = {}
        for c, poly in enumerate(row):
            if not poly:
                continue
            v = 0
            for e, coef in poly.terms.items():
                mono = monos.get(e)
                if mono is None:
                    mono = 1
                    for a, k in zip(point, e):
                        if k:
                            mono = mono * pow(a, k, p) % p
                    monos[e] = mono
                v += _coeff_mod(coef) * mono
            v %= p
            if v:
                vals[c] = v
        out.append(vals)
    return out


def _row_profile(rows: Sequence[Mapping[int, int]], cols: Sequence[int],
                 need: int) -> list[int] | None:
    """First `need` rows whose restriction to `cols` has full rank mod
    FIRST_PRIME, or None if there are fewer.

    Incremental sparse elimination: each kept row is stored with its
    smallest column as pivot, scaled to 1 there, so reducing a new row
    pivot by pivot in increasing column order only fills larger columns."""
    if need == 0:
        return []
    p = FIRST_PRIME
    keep = set(cols)
    echelon: dict[int, dict[int, int]] = {}   # pivot -> the row's other entries
    chosen: list[int] = []
    for rn, row in enumerate(rows):
        vec = {c: v for c, v in row.items() if c in keep}
        todo = [c for c in vec if c in echelon]
        heapify(todo)
        while todo:
            c = heappop(todo)
            f = vec.pop(c, 0)
            if not f:
                continue   # cancelled, or a column pushed twice
            for j, a in echelon[c].items():
                s = (vec.get(j, 0) - f * a) % p
                if not s:
                    vec.pop(j, None)
                    continue
                if j not in vec and j in echelon:
                    heappush(todo, j)
                vec[j] = s
        piv = min(vec, default=None)
        if piv is None:
            continue
        inv = pow(vec.pop(piv), -1, p)
        echelon[piv] = {j: a * inv % p for j, a in vec.items()}
        chosen.append(rn)
        if len(chosen) == need:
            return chosen
    return None


def _det_once(span: list[int], ranks: dict[int, int],
              diffs: dict[int, PolyMatrix], pv: tuple[str, ...],
              a_profile: Mapping[str, int],
              ) -> tuple[SparsePoly, dict[int, dict[str, list[int]]]]:
    """One attempt at the Cayley determinant, its index subsets chosen and
    proven at one integer point.

    The nested subsets are read off the differentials modulo
    p = FIRST_PRIME at a_profile, from the right end leftwards: at each
    degree i, _row_profile picks s_i rows of d_i whose minor on the columns
    left over from degree i + 1 is nonsingular mod p, and the leftmost term
    must be used up.  A minor that is nonsingular mod p at a point has a
    nonzero polynomial determinant, so the generic rank r_i of d_i is at
    least s_i; the subsets give s_i + s_(i-1) = n_i, the term rank, and
    d . d = 0 gives r_i + r_(i-1) <= n_i.  So r_i = s_i: the complex is
    generically exact, and every chosen minor's determinant is nonzero.

    A bad draw, where some minor vanishes mod p, can only lower a rank, so
    the profile fails and raises _Retry; it never yields wrong subsets.  By
    Schwartz-Zippel a minor of degree deg vanishes at a random point with
    probability at most deg/(p - 1)."""
    spec = {i: _eval_mod(diffs[i], a_profile) for i in span[:-1]}
    # nested subsets from the right end leftwards
    cols = list(range(ranks[span[-1]]))
    subsets: dict[int, dict[str, list[int]]] = {}
    minors: list[tuple[int, PolyMatrix]] = []
    for i in reversed(span[:-1]):
        rows = _row_profile(spec[i], cols, len(cols))
        if rows is None:
            raise _Retry("complex has nonzero generic homology")
        if cols:
            minors.append((i, diffs[i].submatrix(rows, cols)))
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


def _determinant_with_subsets(C) -> tuple[SparsePoly, dict[int, dict[str, list[int]]]]:
    span, ranks, diffs, pv = _based_view(C)
    if not span or all(ranks.get(i, 0) == 0 for i in span):
        return SparsePoly.const(pv, 1), {}
    rng = random.Random(0)
    last = "unreachable"
    for _ in range(2):
        try:
            return _det_once(span, ranks, diffs, pv, _rand_assign(pv, rng))
        except _Retry as err:
            last = str(err)
    raise MathFailure(last)


def determinant_of_complex(C) -> SparsePoly:
    """Determinant of a generically exact based complex, up to sign.

    For a two-term square complex this is the plain matrix determinant;
    in general it is the alternating product of the exact minors attached
    to nested index subsets, cleared to a polynomial."""
    return _determinant_with_subsets(C)[0]


# -- the resultant pipeline ----------------------------------------------------------

class ResultantOutput(NamedTuple):
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


def resolve_twist(K: FreeGradedComplex, twist) -> Class:
    """Accept the "default" keyword or an explicit class vector.

    The determinant of the direct image does not depend on the twist; only
    its cost does.  The default is the zero class, with no search: scoring
    0, A and 2A (A the anticanonical class of K's variety) by their
    rank-only E1 pages cost more end to end, on every fixture, than the
    smaller minors it found saved, and on random planar supports it won
    only a few systems (see ROADMAP).  An explicit twist is used as given;
    A still gives a two-term complex, a determinantal formula, where one
    exists, as on the Sturmfels example."""
    if twist == "default":
        return (0,) * K.x.class_rank
    try:
        t = tuple(map(operator.index, twist))
    except TypeError as err:
        raise InputError(f"twist must be 'default' or an integer vector: {twist!r}") from err
    if len(t) != K.x.class_rank:
        raise InputError(
            f"twist has {len(t)} entries, the class group has rank {K.x.class_rank}")
    return t


def _multiplicity(delta: SparsePoly) -> tuple[int, SparsePoly]:
    """The largest k with delta = root**k, and that root.  A k-th power has
    k dividing its total degree and every exponent of its leading term, so
    only the divisors of their gcd are tried, largest first; kth_root
    proves each."""
    g = math.gcd(delta.total_degree(), *delta.leading()[0])
    for k in range(g, 1, -1):
        if g % k:
            continue
        root = kth_root(delta, k)
        if root is not None:
            return k, root
    return 1, delta


def a_resultant(problem: SupportProblem, twist="default") -> ResultantOutput:
    """The resultant of the generic system with the given supports.

    The eliminant variety must be a hypersurface; the determinant of the
    twisted direct-image complex is normalized to a primitive integer
    polynomial and factored as root**multiplicity.  The twist changes only
    the cost of the complex: the default is the zero twist, for the
    measured reason resolve_twist gives; an explicit twist is used as given.
    A fixed generator, random.Random(0), draws the integer point at which
    _det_once proves, by ranks modulo a prime, that the complex is
    generically exact and that every chosen minor is a nonzero
    polynomial.  A bad draw can only lower a rank, so it fails the proof
    and never passes it wrongly; it is repeated once with a fresh point,
    and a second failure raises MathFailure.  At multiplicity 1 the root
    is delta itself, already primitive."""
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
    variety_of(problem)   # stage 1 on its own; the problem keeps the fan
    K = koszul_generic(problem)
    tw = resolve_twist(K, twist)
    C = K.twist(tw)
    W = weyman_differential(C)
    try:
        raw, subsets = _determinant_with_subsets(W)
    except MathFailure as err:
        if "homology" in str(err):
            raise MathFailure("degenerate twist or support configuration") from err
        raise
    delta = primitive_part(raw)
    if delta.is_constant():
        raise MathFailure("degenerate twist or support configuration")
    m, root = _multiplicity(delta)
    return ResultantOutput(
        delta=delta, multiplicity=m, root=primitive_part(root) if m > 1 else root,
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


def implicitize_curve(f0: SparsePoly, f1: SparsePoly, f2: SparsePoly) -> SparsePoly:
    """Implicit equation of the plane curve (f1/f0, f2/f0) on the line.

    The forms share a variable tuple whose last two entries parametrize the
    line; any leading entries are free parameters of the family, each a
    name (as a support_problem label) other than u or v.  No exponent is
    negative.  Returns the primitive polynomial in (parameters, u, v)
    cutting out the image in the affine chart (u, v): the determinant of the
    direct image of the Koszul complex of g1 = u.f0 - f1 and g2 = v.f0 - f2.

    Degeneracy is read off that determinant.  A common factor of g1 (no v)
    and g2 (no u) is free of u and v, so it divides f0, f1 and f2.  So the
    forms share a factor for generic parameters exactly when the direct
    image is not generically exact, and the exactness proof of _det_once
    then fails at every point."""
    if not (f0.vars == f1.vars == f2.vars) or len(f0.vars) < 2:
        raise InputError("the three forms must share one variable tuple "
                         "ending in the two line variables")
    if f0.is_zero() or f1.is_zero() or f2.is_zero():
        raise InputError("forms must be nonzero")
    if any(min(e) < 0 for f in (f0, f1, f2) for e in f.terms):
        raise InputError("forms must have no negative exponent")
    params = f0.vars[:-2]
    if not all(map(_is_name, params)):
        raise InputError(f"parameters {params!r} are not all names")
    x = variety_from_simplex(1)
    if set(params) & {"u", "v", *x.var_names()}:
        raise InputError("parameter names collide with the chart variables "
                         "u, v or the line coordinates")
    d = _binary_degree(f0)
    if {_binary_degree(f1), _binary_degree(f2)} != {d}:
        raise InputError("forms must share one degree")
    if d < 1:
        raise InputError("degree must be positive")
    pv = params + ("u", "v")
    variables = pv + x.var_names()
    nold = len(params)

    def lift(p: SparsePoly, chart: tuple[int, int]) -> SparsePoly:
        return SparsePoly(variables, {e[:nold] + chart + e[nold:]: c
                                      for e, c in p.terms.items()})

    g1 = lift(f0, (1, 0)) - lift(f1, (0, 0))
    g2 = lift(f0, (0, 1)) - lift(f2, (0, 0))
    K = FreeGradedComplex(
        x=x, variables=variables, n_params=len(pv),
        degrees={-2: ((2 * d,),), -1: ((d,), (d,)), 0: ((0,),)},
        diffs={-2: PolyMatrix.from_rows([[-g2, g1]], variables, ncols=2),
               -1: PolyMatrix.from_rows([[g1], [g2]], variables)})
    W = weyman_differential(K.twist((2 * d - 1,)))
    try:
        raw = determinant_of_complex(W)
    except MathFailure as err:
        if "homology" in str(err):
            raise MathFailure("the forms share a common factor; "
                              "the image curve degenerates") from err
        raise
    out = primitive_part(raw)
    if out.is_constant():
        raise MathFailure("implicit equation degenerated to a constant")
    return out
