"""Implicit equations of rational plane curves, by the resultant pipeline.

A curve (f1/f0, f2/f0) on the projective line, with binary forms whose
coefficients may carry free parameters, has its implicit equation, up to
a factor in the parameters alone, as the determinant of a direct image:
the Koszul complex of u.f0 - f1 and v.f0 - f2 on the line, twisted and
pushed down by `weyman`, then the Cayley determinant of `resultant`.  The
solve path never imports this module."""
from __future__ import annotations

from .complexes import koszul_complex
from .errors import ExactnessFailure, InputError, MathFailure
from .qpoly import SparsePoly, _is_name, primitive_part
from .resultant import determinant_of_complex
from .toric import variety_from_simplex
from .weyman import weyman_differential


def _binary_degree(p: SparsePoly) -> int:
    degs = {e[-2] + e[-1] for e in p.terms}
    if len(degs) != 1:
        raise InputError("form is not homogeneous in the last two variables")
    return degs.pop()


def implicitize_curve(f0: SparsePoly, f1: SparsePoly, f2: SparsePoly) -> SparsePoly:
    """Implicit equation of the plane curve (f1/f0, f2/f0) on the line.

    The forms share a variable tuple whose last two entries parametrize the
    line; any leading entries are free parameters of the family, each a
    name (as a support_problem label) other than u, v, x1 or x2: the lifted
    forms are over (parameters, u, v, x1, x2), and SparsePoly refuses a
    repeated name with InputError.  The forms have one positive degree; a
    SparsePoly has int coefficients and no negative exponent.  Returns
    a polynomial in (parameters, u, v) that vanishes on the image in the
    affine chart (u, v): the determinant of the direct image of the
    Koszul complex of g1 = u.f0 - f1 and g2 = v.f0 - f2, with its integer
    content cleared by primitive_part.  Only the integer content
    is cleared, so a factor in the parameters alone can remain: for
    (s^2, c.t^2 + s.t, s.t) the result is c.(u - c.v^2 - v), up to sign,
    not the image's equation u - c.v^2 - v.

    Degeneracy is read off that determinant.  A common factor of g1 (no v)
    and g2 (no u) is free of u and v, so it divides f0, f1 and f2.  So the
    forms share a factor for generic parameters exactly when the direct
    image is not generically exact, and the exactness proof of _det_once
    then fails at every point with ExactnessFailure."""
    if not (f0.vars == f1.vars == f2.vars) or len(f0.vars) < 2:
        raise InputError("the three forms must share one variable tuple "
                         "ending in the two line variables")
    if f0.is_zero() or f1.is_zero() or f2.is_zero():
        raise InputError("forms must be nonzero")
    params = f0.vars[:-2]
    if not all(map(_is_name, params)):
        raise InputError(f"parameters {params!r} are not all names")
    x = variety_from_simplex(1)
    d = _binary_degree(f0)
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
    K = koszul_complex(x, variables, len(pv), [g1, g2], [(d,), (d,)])
    W = weyman_differential(K.twist((2 * d - 1,)))
    try:
        raw = determinant_of_complex(W)
    except ExactnessFailure as err:
        raise MathFailure("the forms share a common factor; "
                          "the image curve degenerates") from err
    out = primitive_part(raw)
    if out.is_constant():
        raise MathFailure("implicit equation degenerated to a constant")
    return out
