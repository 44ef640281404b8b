"""Complex fixtures that only tests use: based complexes of given matrices
as direct images on the projective line, random small complexes over the
projective line, chain maps between Koszul complexes on the line and the
mapping cones they span, the four-term complex of one generic plane curve
(the cotangent-family oracle), and the exterior-power resolution of
projective n-space mapped onto its structure sheaf.

A chain map is a triple (M, N, maps): maps[p] is the degree-p map from M^p
to N^p in the row convention (rows index M's summands), and a degree that
maps omits carries the zero map."""
from __future__ import annotations

import math
from fractions import Fraction

from helpers_poly import diff, variable
from toricres.complexes import Class, FreeGradedComplex, _contraction
from toricres.qpoly import PolyMatrix, SparsePoly
from toricres.toric import variety_from_simplex
from toricres.weyman import WeymanComplex, weyman_differential

P1 = variety_from_simplex(1)
PARAMS = ("s", "t")
VARIABLES = PARAMS + P1.var_names()
ChainMap = tuple[FreeGradedComplex, FreeGradedComplex, dict[int, PolyMatrix]]


def on_the_line(diffs: dict[int, PolyMatrix]) -> WeymanComplex:
    """The based complex over R with the given differentials (the matrix at
    i maps term i to term i + 1), as its own direct image on the line:
    every summand at class 0, every entry lifted with zero Cox exponents.
    H^0 of the structure sheaf is one-dimensional and nothing else is, so
    weyman_differential returns the same matrices."""
    pv = tuple(next(iter(diffs.values())).vars)
    variables = pv + P1.var_names()
    zero = (0,) * len(P1.var_names())
    last = max(diffs)
    ranks = {i: m.nrows for i, m in diffs.items()} | {last + 1: diffs[last].ncols}
    lifted = {i: PolyMatrix.from_rows(
        [[SparsePoly(variables, {e + zero: c for e, c in p.terms.items()}) for p in row]
         for row in m.rows], variables, ncols=m.ncols) for i, m in diffs.items()}
    return weyman_differential(FreeGradedComplex(
        x=P1, variables=variables, n_params=len(pv),
        degrees={i: ((0,),) * n for i, n in ranks.items()}, diffs=lifted))


def random_form(rng, deg: int) -> SparsePoly:
    """Random binary form of the given degree, coefficients linear in the
    parameters with small integers."""
    if deg < 0:
        return SparsePoly.zero(VARIABLES)
    terms = {}
    for k in range(deg + 1):
        xe = (k, deg - k)
        for pi in range(len(PARAMS) + 1):
            c = rng.randint(-3, 3)
            if c:
                pe = [0] * len(PARAMS)
                if pi < len(PARAMS):
                    pe[pi] = 1
                key = tuple(pe) + xe
                terms[key] = terms.get(key, 0) + c
    return SparsePoly(VARIABLES, terms)


def random_two_term(rng) -> FreeGradedComplex:
    """Two-term complex of free modules on the line with random entries."""
    r1 = rng.randint(1, 2)
    r0 = rng.randint(1, 2)
    cod = [rng.randint(-2, 3) for _ in range(r0)]
    dom = [rng.randint(-1, 4) for _ in range(r1)]
    rows = [[random_form(rng, dom[i] - cod[j]) for j in range(r0)]
            for i in range(r1)]
    return FreeGradedComplex(
        x=P1, variables=VARIABLES, n_params=len(PARAMS),
        degrees={-1: tuple((a,) for a in dom), 0: tuple((b,) for b in cod)},
        diffs={-1: PolyMatrix.from_rows(rows, VARIABLES, ncols=r0)})


def random_specialization(rng) -> dict[str, Fraction]:
    return {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
            for v in PARAMS}


def binary_form(coeffs) -> SparsePoly:
    """Constant-coefficient binary form from the coefficient list."""
    d = len(coeffs) - 1
    xv = P1.var_names()
    return SparsePoly(xv, {(d - k, k): c for k, c in enumerate(coeffs) if c})


def koszul_two(fa: SparsePoly, ga: SparsePoly, da: int, db: int,
               twist: int) -> FreeGradedComplex:
    """Koszul complex of two binary forms of degrees da, db, twisted."""
    xv = P1.var_names()
    deg = {-2: ((da + db - twist,),),
           -1: ((da - twist,), (db - twist,)),
           0: ((-twist,),)}
    d2 = PolyMatrix.from_rows([[-ga, fa]], xv, ncols=2)
    d1 = PolyMatrix.from_rows([[fa], [ga]], xv)
    return FreeGradedComplex(x=P1, variables=xv, n_params=0, degrees=deg,
                             diffs={-2: d2, -1: d1})


def rescale_morphism(f: SparsePoly, g: SparsePoly, u: SparsePoly,
                     df: int, dg: int, twist: int) -> ChainMap:
    """The map K(f*u, g) -> K(f, g) dividing the first generator by u."""
    xv = P1.var_names()
    du = u.total_degree()
    M = koszul_two(f * u, g, df + du, dg, twist)
    N = koszul_two(f, g, df, dg, twist)
    one = SparsePoly.const(xv, 1)
    zero = SparsePoly.zero(xv)
    return M, N, {
        -2: PolyMatrix.from_rows([[u]], xv),
        -1: PolyMatrix.from_rows([[u, zero], [zero, one]], xv, ncols=2),
        0: PolyMatrix.from_rows([[one]], xv)}


def identity_morphism(C: FreeGradedComplex) -> ChainMap:
    maps = {}
    for p in C.degrees:
        m = PolyMatrix(C.rank(p), C.rank(p), C.variables)
        for k in range(C.rank(p)):
            m.rows[k][k] = SparsePoly.const(C.variables, 1)
        maps[p] = m
    return C, C, maps


def mapping_cone(M: FreeGradedComplex, N: FreeGradedComplex,
                 maps: dict[int, PolyMatrix]) -> FreeGradedComplex:
    """The mapping cone of the chain map theta: M -> N given by maps: degree
    p holds M^(p+1) + N^p, M's summands first, with differential
    [[-d_M, theta], [0, d_N]].  Degrees inside the range that neither
    complex fills are zero-rank terms.  It is block triangular, and not a
    Koszul complex, so its direct image checks the staircase signs of
    weyman_differential: a walk inside M takes r steps of -d_M and sees the
    staircase sign of degree i - 1, so the M block of W(cone) is -d_W(M);
    a walk inside N sees d_N at its own degree, so that block is d_W(N);
    and no walk goes from N to M."""
    lo = min(min(M.degrees) - 1, min(N.degrees))
    hi = max(max(M.degrees) - 1, max(N.degrees))
    zero = SparsePoly.zero(M.variables)
    diffs = {}
    for p in range(lo, hi):
        dm, dn = M.diff_at(p + 1), N.diff_at(p)
        theta = maps.get(p + 1)
        if theta is None:
            theta = PolyMatrix(M.rank(p + 1), N.rank(p + 1), M.variables)
        rows = [[-e for e in a] + b for a, b in zip(dm.rows, theta.rows)]
        rows += [[zero] * dm.ncols + c for c in dn.rows]
        diffs[p] = PolyMatrix.from_rows(rows, M.variables, ncols=dm.ncols + dn.ncols)
    return FreeGradedComplex(
        x=M.x, variables=M.variables, n_params=M.n_params,
        degrees={p: M.degrees.get(p + 1, ()) + N.degrees.get(p, ())
                 for p in range(lo, hi + 1)},
        diffs=diffs)


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
    fx = [diff(f, v) for v in xv]
    xs = [variable(variables, v) for v in xv]
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

def koszul_vs_unit_fixture(n: int) -> ChainMap:
    """Source: contraction complex with degree-p term the (1-p)-th exterior
    power of S(-1)^(n+1) on projective n-space, p = -n..0.  Target: S in
    degree 0.  The map sends e_j to x_j."""
    x = variety_from_simplex(n)
    xv = x.var_names()
    variables = xv  # no parameters
    xs = [variable(variables, v) for v in xv]

    one = x.degree_of([1] + [0] * (x.n_rays - 1))
    def cls(k: int) -> Class:
        return tuple(k * c for c in one)

    degrees = {p: (cls(1 - p),) * math.comb(n + 1, 1 - p) for p in range(-n, 1)}
    diffs = {p: _contraction(xs, 1 - p, variables) for p in range(-n, 0)}
    source = FreeGradedComplex(x=x, variables=variables, n_params=0,
                               degrees=degrees, diffs=diffs)
    target = FreeGradedComplex(x=x, variables=variables, n_params=0,
                               degrees={0: (cls(0),)}, diffs={})
    theta0 = PolyMatrix.from_rows([[xs[j]] for j in range(n + 1)], variables)
    return source, target, {0: theta0}
