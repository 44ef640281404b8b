"""Sparse resultants as determinants of direct-image complexes.

Pipeline: Koszul complex of the generic system, twist (the zero class
unless the caller names one; see resolve_twist), direct image, then
the determinant of that direct image, a WeymanComplex: a based complex
over the coefficient ring, and the only input the determinant takes.
The determinant is taken with the Cayley recipe: nested row/column index
subsets picked, and proven, by rank profiling modulo a prime at one random
integer point, exact polynomial minors, alternating product cleared to a
polynomial.  A failed exactness proof raises ExactnessFailure, the type
callers catch to tell a degenerate input from other failures.
Multiplicity is recovered afterwards by perfect-power extraction.

This module holds that pipeline and nothing else, so that a process which
solves imports (and, without cached bytecode, compiles) no more than it
runs.  Implicitization of plane curves, which reuses the determinant, is in
`implicit`."""
from __future__ import annotations

import math
import operator
import random
from heapq import heapify, heappop, heappush
from typing import Mapping, NamedTuple, Sequence

from .complexes import FreeGradedComplex, koszul_generic
from .errors import ExactnessFailure, InputError, MathFailure
from .qpoly import (
    PolyMatrix,
    SparsePoly,
    kth_root,
    poly_to_text,
    primitive_part,
)
from .toric import SupportProblem, codimension, support_problem, variety_of
from .weyman import E1Page, WeymanComplex, weyman_differential

Class = tuple[int, ...]

# The Cayley subsets are proven modulo this number; the proof needs a prime.
FIRST_PRIME = (1 << 61) - 1


# -- determinant of a based complex --------------------------------------------------

def _rand_assign(pv: Sequence[str], rng: random.Random) -> dict[str, int]:
    return {v: rng.randrange(1, FIRST_PRIME) for v in pv}


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
                v += coef * mono
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


def _det_once(W: WeymanComplex, span: list[int], a_profile: Mapping[str, int],
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
    the profile fails and raises ExactnessFailure; it never yields wrong
    subsets.  By Schwartz-Zippel a minor of degree deg vanishes at a random
    point with probability at most deg/(p - 1).  Once the subsets are
    proven, the alternating product does not depend on them (up to sign),
    so a product that does not clear to a polynomial is no bad draw."""
    diffs = {i: W.diff_at(i) for i in span[:-1]}
    spec = {i: _eval_mod(d, a_profile) for i, d in diffs.items()}
    # nested subsets from the right end leftwards
    cols = list(range(W.rank(span[-1])))
    subsets: dict[int, dict[str, list[int]]] = {}
    minors: list[tuple[int, PolyMatrix]] = []
    for i in reversed(span[:-1]):
        rows = _row_profile(spec[i], cols, len(cols))
        if rows is None:
            raise ExactnessFailure("complex has nonzero generic homology")
        if cols:
            minors.append((i, diffs[i].submatrix(rows, cols)))
            subsets[i] = {"rows": list(rows), "cols": list(cols)}
        taken = set(rows)
        cols = [c for c in range(W.rank(i)) if c not in taken]
    if cols:
        raise ExactnessFailure("complex has nonzero generic homology")
    # the determinant is prod det(M_i)^((-1)^(i+1)): odd degrees multiply
    one = SparsePoly.const(W.source.param_vars, 1)
    num, den = one, one
    for i, minor in minors:
        d = minor.det()
        if i % 2:
            num = num * d
        else:
            den = den * d
    out = num.exact_div(den)
    if out is None:
        raise MathFailure("alternating product of minors did not clear to a polynomial")
    return out, subsets


def _determinant_with_subsets(W: WeymanComplex,
                              ) -> tuple[SparsePoly, dict[int, dict[str, list[int]]]]:
    pv = W.source.param_vars
    degs = W.degrees()
    if not any(map(W.rank, degs)):
        return SparsePoly.const(pv, 1), {}
    span = list(range(degs[0], degs[-1] + 1))
    rng = random.Random(0)
    try:
        return _det_once(W, span, _rand_assign(pv, rng))
    except ExactnessFailure:
        return _det_once(W, span, _rand_assign(pv, rng))


def determinant_of_complex(W: WeymanComplex) -> SparsePoly:
    """Determinant of a generically exact direct-image complex, up to sign.

    The input is a WeymanComplex, the based complex weyman_differential
    returns; anything else raises InputError.  For a two-term square
    complex this is the plain matrix determinant; in general it is the
    alternating product of the exact minors attached to nested index
    subsets, cleared to a polynomial.  A based complex of hand-made
    matrices over R is its own direct image on the projective line at
    class zero: put every summand at class 0 on variety_from_simplex(1),
    lift each entry with zero Cox exponents, and pass the complex through
    weyman_differential, which returns those matrices.  Their entries are
    SparsePolys, so polynomials with int coefficients and no negative
    exponent, refused with InputError where they are built (see qpoly).  A
    complex that is not generically exact raises ExactnessFailure."""
    if not isinstance(W, WeymanComplex):
        raise InputError(f"not a WeymanComplex: {type(W).__name__}")
    return _determinant_with_subsets(W)[0]


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
    # a problem built directly, not by support_problem, passes its checks;
    # support_problem would make default labels the problem itself lacks
    if problem.labels is None:
        raise InputError("a problem built directly needs its coefficient labels")
    support_problem(problem.supports, problem.labels)
    n = len(problem.supports[0][0])
    if len(problem.supports) != n + 1:
        raise InputError(
            f"resultants need {n + 1} supports in dimension {n}, "
            f"got {len(problem.supports)}")
    # the Koszul complex, and the codimension one it needs, depend on the
    # problem alone, so the problem instance keeps the complex, as
    # variety_of keeps the fan
    K = getattr(problem, "_koszul", None)
    if K is None:
        cod = codimension(problem.supports)
        if cod != 1:
            raise MathFailure(
                f"the eliminant variety has codimension {cod}; "
                "the resultant is defined only in codimension one")
    variety_of(problem)   # stage 1 on its own; the problem keeps the fan
    if K is None:
        K = koszul_generic(problem)
        object.__setattr__(problem, "_koszul", K)
    tw = resolve_twist(K, twist)
    C = K.twist(tw)
    W = weyman_differential(C)
    try:
        raw, subsets = _determinant_with_subsets(W)
    except ExactnessFailure as err:
        raise MathFailure("degenerate twist or support configuration") from err
    delta = primitive_part(raw)
    if delta.is_constant():
        raise MathFailure("degenerate twist or support configuration")
    m, root = _multiplicity(delta)
    return ResultantOutput(
        delta=delta, multiplicity=m, root=primitive_part(root) if m > 1 else root,
        e1=W.e1, term_ranks={i: W.rank(i) for i in W.degrees()},
        twist=tw, subsets=subsets)
