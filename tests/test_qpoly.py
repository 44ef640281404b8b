from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers_poly import (
    degree_in,
    diff,
    evaluate,
    matmul_reference,
    matrix_text,
    transpose,
    variable,
)
from helpers_reference import substitute
from toricres import qpoly
from toricres.errors import InputError, MathFailure
from toricres.qpoly import (
    PolyMatrix,
    SparsePoly,
    content_unit,
    drl_key,
    kth_root,
    poly_from_text,
    poly_to_text,
    primitive_part,
)

V = ("x", "y", "z")


# -- reference kernel: tuple exponents, leading term found by a full scan --------

def ref_mul(a: SparsePoly, b: SparsePoly) -> SparsePoly:
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return SparsePoly(a.vars, out)


def ref_exact_div(a: SparsePoly, d: SparsePoly) -> SparsePoly | None:
    de = max(d.terms, key=drl_key)
    dc = d.terms[de]
    rem = dict(a.terms)
    q = {}
    while rem:
        re_ = max(rem, key=drl_key)
        te = tuple(x - y for x, y in zip(re_, de))
        if any(x < 0 for x in te):
            return None
        tc, r = divmod(rem[re_], dc)
        if r:
            return None
        q[te] = tc
        for e2, c2 in d.terms.items():
            e = tuple(x + y for x, y in zip(te, e2))
            s = rem.get(e, 0) - tc * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return SparsePoly(a.vars, q)


def P(text: str, variables=V) -> SparsePoly:
    return poly_from_text(text, variables)


def test_degrevlex_order_degree_three():
    # standard descending degrevlex listing of the degree-3 monomials in x,y,z
    p = SparsePoly(V, {e: 1 for e in [
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
        (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3)]})
    got = [e for e, _ in p.sorted_terms()]
    assert got == [
        (3, 0, 0), (2, 1, 0), (1, 2, 0), (0, 3, 0), (2, 0, 1),
        (1, 1, 1), (0, 2, 1), (1, 0, 2), (0, 1, 2), (0, 0, 3)]


def test_text_round_trip_simple():
    p = P("2 * x^2 * z + -3 * y + 5")
    assert poly_to_text(p) == "2 * x^2 * z + -3 * y + 5"
    assert poly_from_text(poly_to_text(p), V) == p
    assert poly_to_text(SparsePoly.zero(V)) == "0"
    assert poly_from_text("0", V).is_zero()


def test_a_name_that_does_not_round_trip_is_refused_by_text_not_by_repr():
    """poly_to_text would write '2 * a b + 1 * c', which poly_from_text
    cannot read; it refuses instead.  repr falls back to the raw variables
    and terms, also on an int name."""
    p = SparsePoly(("a b", "c"), {(1, 0): 2, (0, 1): 1})
    with pytest.raises(InputError, match="'a b'"):
        poly_to_text(p)
    assert repr(p) == "SparsePoly(('a b', 'c'), {(1, 0): 2, (0, 1): 1})"
    q = SparsePoly((1, "c"), {(1, 0): 2})
    with pytest.raises(InputError, match="1"):
        poly_to_text(q)
    assert repr(q) == "SparsePoly((1, 'c'), {(1, 0): 2})"
    assert repr(P("2 * x")) == "SparsePoly('2 * x')"


def test_a_rational_coefficient_in_text_is_an_input_error():
    """Coefficients are integers: poly_from_text reads no "a/b"."""
    with pytest.raises(InputError, match="coefficients are integers"):
        poly_from_text("-1/3 * y", V)


def test_a_negative_exponent_in_text_is_an_input_error():
    """The grammar's exponents are digits: "x^-1" is not a factor."""
    with pytest.raises(InputError, match=r"bad factor token 'x\^-1'"):
        poly_from_text("1 * x^-1", V)


@pytest.mark.parametrize("variables, terms, match", [
    (V, {(1, 0, 0): True}, "True of .* is not an int"),
    (V, {(1, 0, 0): Fraction(1, 2)}, "Fraction.* is not an int"),
    (V, {(1, 0, 0): 2.0}, "2.0 of .* is not an int"),
    # x1 / x2 and x1 / a, the Cox and the parameter exponent negative
    (("x1", "x2"), {(1, -1): 1}, r"exponent \(1, -1\) is not a monomial"),
    (("a", "x1", "x2"), {(-1, 1, 0): 1}, r"exponent \(-1, 1, 0\) is not a monomial"),
    (("x1", "x2"), {(1,): 1}, r"exponent \(1,\) is not a monomial"),
    (V, {(1, 0, 0, 0): 1}, r"exponent \(1, 0, 0, 0\) is not a monomial"),
    (("a", "x", "a"), {(0, 1, 0): 1}, "repeated variable name"),
], ids=["bool", "fraction", "float", "negative-cox-exponent", "negative-parameter-exponent",
        "short-exponent", "long-exponent", "repeated-name"])
def test_a_term_outside_the_integer_polynomial_ring_is_refused_where_it_is_built(
        variables, terms, match):
    """A SparsePoly is a polynomial of Z[variables]: a coefficient whose
    type is not int, an exponent of the wrong length or with a negative
    entry, and a repeated variable name raise InputError at construction."""
    with pytest.raises(InputError, match=match):
        SparsePoly(variables, terms)


def test_the_empty_ring_and_zero_coefficients_still_construct():
    assert SparsePoly.const((), 3).terms == {(): 3}
    assert SparsePoly(V, {(1, 0, 0): 0, (0, 1, 0): 2}).terms == {(0, 1, 0): 2}
    assert SparsePoly.zero(()).is_zero()


def test_parse_merges_duplicate_monomials():
    assert P("1 * x + 2 * x") == P("3 * x")
    assert P("1 * x + -1 * x").is_zero()


def test_arithmetic_identities():
    a, b = P("1 * x + 2 * y"), P("3 * y + -1 * z")
    assert (a + b) * (a - b) == a * a - b * b
    assert (a + b) ** 2 == a * a + a * b * SparsePoly.const(V, 2) + b * b
    assert a * SparsePoly.zero(V) == SparsePoly.zero(V)


def test_pow_small_cases():
    x = variable(V, "x")
    one = SparsePoly.const(V, 1)
    assert x ** 0 == one
    assert x ** 1 == x
    assert (x + one) ** 3 == P("1 * x^3 + 3 * x^2 + 3 * x + 1")


def test_diff():
    p = P("1 * x^3 * y + 2 * y^2 + 7")
    assert diff(p, "x") == P("3 * x^2 * y")
    assert diff(p, "y") == P("1 * x^3 + 4 * y")
    assert diff(p, "z").is_zero()


def test_exact_div():
    a, b = P("1 * x^2 + 1 * y"), P("1 * x + -1 * y + 2")
    assert (a * b).exact_div(b) == a
    assert (a * b).exact_div(a) == b
    assert P("1 * x^2 + 1").exact_div(P("1 * x + 1")) is None
    # division is over Z: a quotient coefficient 1/2 means no quotient
    assert P("1 * x").exact_div(P("2 * x")) is None
    assert P("1 * x^2 + 1 * x").exact_div(P("2 * x + 2")) is None
    assert SparsePoly.zero(V).exact_div(a) == SparsePoly.zero(V)


def test_eval_and_substitute():
    p = P("1 * x^2 * y + -2 * z")
    assert evaluate(p, {"x": 2, "y": 3, "z": 1}) == 10
    assert evaluate(p, {"x": Fraction(1, 2), "y": 4, "z": 0}) == 1
    w = ("u", "v")
    images = {
        "x": poly_from_text("1 * u + 1 * v", w),
        "y": poly_from_text("1 * u", w),
        "z": poly_from_text("2", w),
    }
    q = substitute(p, images, w)
    assert q == poly_from_text("1 * u^3 + 2 * u^2 * v + 1 * u * v^2 + -4", w)


def test_content_and_primitive():
    p = P("4 * x + 6 * y")
    assert content_unit(p) == 2
    assert primitive_part(p) == P("2 * x + 3 * y")
    q = P("-4 * x^2 + 2 * y")
    assert content_unit(q) == -2
    assert primitive_part(q) == P("2 * x^2 + -1 * y")
    assert primitive_part(q).leading()[1] > 0


def test_kth_root_exact():
    h = P("1 * x^2 + -3 * y + 1 * z^2")
    for k in (2, 3, 5):
        assert kth_root(h ** k, k) == h
    assert kth_root(P("1 * x^2 + 1 * y"), 2) is None
    assert kth_root(P("4 * x^2"), 2) == P("2 * x")
    assert kth_root(P("-8 * x^3"), 3) == P("-2 * x")
    assert kth_root(P("-4 * x^2"), 2) is None
    # the second term a square root would need is y/2: not over Z
    assert kth_root(P("1 * x^2 + 1 * x * y + 1 * y^2"), 2) is None


def test_kth_root_of_coefficients_beyond_float_range():
    h = variable(V, "x") * SparsePoly.const(V, 10 ** 200) + SparsePoly.const(V, 7)
    assert kth_root(h ** 2, 2) == h
    assert kth_root(h ** 3, 3) == h
    assert kth_root(h ** 2 + SparsePoly.const(V, 1), 2) is None


coord = st.integers(min_value=0, max_value=3)
coefficient = st.integers(min_value=-9, max_value=9)


@st.composite
def polys(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    terms = {}
    for _ in range(n):
        e = (draw(coord), draw(coord), draw(coord))
        terms[e] = draw(coefficient)
    return SparsePoly(V, terms)


@given(polys())
@settings(max_examples=60, deadline=None)
def test_round_trip_property(p):
    assert poly_from_text(poly_to_text(p), V) == p


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_product_division_property(a, b):
    if b.is_zero():
        return
    q = (a * b).exact_div(b)
    assert q == a


@given(polys(), st.integers(min_value=2, max_value=3))
@settings(max_examples=25, deadline=None)
def test_kth_root_recovers_power(p, k):
    if p.is_zero():
        return
    r = kth_root(p ** k, k)
    assert r is not None
    assert r ** k == p ** k


def _naive_det(rows):
    """Laplace expansion along the rows, skipping zero entries, with the
    minor on each set of remaining columns computed once."""
    n = len(rows)
    variables = rows[0][0].vars
    memo = {(): SparsePoly.const(variables, 1)}

    def minor(cols):
        if cols not in memo:
            i = n - len(cols)
            out = SparsePoly.zero(variables)
            for pos, j in enumerate(cols):
                if rows[i][j]:
                    term = rows[i][j] * minor(cols[:pos] + cols[pos + 1:])
                    out = out - term if pos % 2 else out + term
            memo[cols] = out
        return memo[cols]

    return minor(tuple(range(n)))


def test_det_matches_cofactor_expansion():
    cells = [
        ["1 * x", "2", "0"],
        ["1 * y", "1 * x + 1", "3"],
        ["0", "1 * z", "1 * x * y"],
    ]
    m = PolyMatrix.from_text(cells, V)
    assert m.det() == _naive_det([list(r) for r in m.rows])


def test_det_singular_and_transpose():
    cells = [["1 * x", "1 * y"], ["2 * x", "2 * y"]]
    m = PolyMatrix.from_text(cells, V)
    assert m.det().is_zero()
    cells2 = [["1 * x", "1"], ["0", "1 * y"]]
    m2 = PolyMatrix.from_text(cells2, V)
    assert m2.det() == transpose(m2).det()


def test_det_raises_math_failure_on_a_non_exact_division(monkeypatch):
    # dense and generic: after step 0 every row below the pivot has a
    # nonzero in the pivot column, so step 1 divides by the first pivot
    m = PolyMatrix.from_text([
        ["1 * x", "2", "1 * y"],
        ["1 * y", "1 * x + 1", "3"],
        ["1", "1 * z", "1 * x * y"],
    ], V)
    monkeypatch.setattr(qpoly, "_exact_div", lambda *args: None)
    with pytest.raises(MathFailure, match="non-exact division"):
        m.det()


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=4, max_size=4), min_size=4, max_size=4))
@settings(max_examples=30, deadline=None)
def test_det_integer_matrices_property(raw):
    m = PolyMatrix.from_rows(
        [[SparsePoly.const(V, c) for c in row] for row in raw], V)
    got = m.det()
    want = _naive_det([list(r) for r in m.rows])
    assert got == want


def test_det_of_a_non_square_matrix_is_an_input_error():
    m = PolyMatrix.from_text([["1 * x", "1"]], V)
    with pytest.raises(InputError, match="non-square"):
        m.det()


def test_rows_of_the_wrong_shape_are_an_input_error():
    """PolyMatrix refuses rows that are not nrows lists of ncols entries, as
    QMatrix does; one short row made det raise IndexError."""
    one = SparsePoly.const(("a",), 1)
    for rows in ([[one]], [[one, one], [one]], [[one, one]] * 3, [(one, one), [one, one]]):
        with pytest.raises(InputError, match="rows must be 2 lists of 2 entries"):
            PolyMatrix(2, 2, ("a",), rows)
    assert PolyMatrix(2, 2, ("a",), [[one, one], [one, one]]).det().is_zero()


def test_matmul_shape_mismatch_is_an_input_error():
    a = PolyMatrix.from_text([["1 * x", "1"]], V)
    with pytest.raises(InputError, match="shape mismatch"):
        a.matmul(a)


def test_bad_token_in_polynomial_text_is_an_input_error():
    for text in ("x", "2 * 3", "1 * x^y", "1 + "):
        with pytest.raises(InputError, match="bad"):
            P(text)


def test_unknown_variable_in_polynomial_text_is_an_input_error():
    with pytest.raises(InputError, match="unknown variable 'w'"):
        P("1 * x * w")


def test_arithmetic_on_different_variables_is_an_input_error():
    other = poly_from_text("1 * u", ("u",))
    with pytest.raises(InputError, match="variable mismatch"):
        P("1 * x") + other


def test_leading_term_of_zero_is_an_input_error():
    with pytest.raises(InputError, match="no leading term"):
        SparsePoly.zero(V).leading()


def test_negative_power_is_an_input_error():
    with pytest.raises(InputError, match="negative power"):
        P("1 * x") ** -1


def test_kth_root_with_k_not_positive_is_an_input_error():
    for k in (0, -2):
        with pytest.raises(InputError, match="k must be positive"):
            kth_root(P("1 * x^2"), k)


def test_exact_division_by_zero_is_an_input_error():
    with pytest.raises(InputError, match="division by zero"):
        P("1 * x").exact_div(SparsePoly.zero(V))


def test_eval_with_a_missing_variable_is_an_input_error():
    with pytest.raises(InputError, match="assignment misses y"):
        evaluate(P("1 * x^2 * y + -2 * z"), {"x": 2, "z": 4})


def test_unknown_variable_name_is_an_input_error():
    p = P("1 * x^2 * y")
    for call in (lambda: variable(V, "w"), lambda: degree_in(p, "w"),
                 lambda: degree_in(SparsePoly.zero(V), "w"), lambda: diff(p, "w")):
        with pytest.raises(InputError, match="unknown variable 'w'"):
            call()


def test_matmul_row_convention():
    a = PolyMatrix.from_text([["1 * x", "0"], ["1", "1 * y"]], V)
    b = PolyMatrix.from_text([["0", "1"], ["1 * z", "0"]], V)
    ab = a.matmul(b)
    assert matrix_text(ab) == [["0", "1 * x"], ["1 * y * z", "1"]]


def test_published_matrix_determinant_is_eliminant():
    # determinant of the frozen 15x15 matrix vs the frozen 20-term eliminant
    from helpers_examples import sturmfels_eliminant, sturmfels_matrix

    d = sturmfels_matrix().det()
    e = sturmfels_eliminant()
    assert d == e or d == -e


# -- packed kernel against the reference -------------------------------------------

VARS4 = ("w", "x", "y", "z")
# exponents on both sides of the packed field widths 2^k
WIDE = sorted({2 ** k + d for k in range(1, 7) for d in (-1, 0, 1)})


@st.composite
def ring_polys(draw, count, max_terms=4):
    """`count` polynomials over one ring of 0-4 variables."""
    n = draw(st.integers(min_value=0, max_value=4))
    expo = st.one_of(st.integers(min_value=0, max_value=6), st.sampled_from(WIDE))
    out = []
    for _ in range(count):
        terms = draw(st.dictionaries(st.tuples(*[expo] * n), coefficient,
                                     max_size=max_terms))
        out.append(SparsePoly(VARS4[:n], terms))
    return out


@given(ring_polys(2))
@settings(max_examples=100, deadline=None)
def test_product_matches_reference(ab):
    a, b = ab
    assert a * b == ref_mul(a, b)


@given(ring_polys(2))
@settings(max_examples=100, deadline=None)
def test_product_divided_by_a_factor_gives_the_other(ab):
    a, b = ab
    assume(not b.is_zero())
    assert (a * b).exact_div(b) == a


@given(ring_polys(3), st.booleans())
# x / y would need y^-1: both sides are None
@example([P("1 * x"), P("1 * y"), SparsePoly.zero(V)], False)
@settings(max_examples=150, deadline=None)
def test_division_returns_none_exactly_when_the_reference_does(abr, multiple):
    a, d, r = abr
    assume(not d.is_zero())
    num = a * d + r if multiple else a
    assert num.exact_div(d) == ref_exact_div(num, d)


@given(ring_polys(1, max_terms=6))
@settings(max_examples=100, deadline=None)
def test_primitive_part_times_content_unit_is_the_polynomial(ps):
    [p] = ps
    assume(not p.is_zero())
    u = content_unit(p)
    q = primitive_part(p)
    assert SparsePoly.const(p.vars, u) * q == p
    cs = list(q.terms.values())
    assert all(type(c) is int for c in cs)
    assert math.gcd(*cs) == 1 and q.leading()[1] > 0


@st.composite
def matmul_pairs(draw):
    """A (n x k) times B (k x m), n, k and m in 0..3, over one ring of 0-4
    variables, entries with integer coefficients and zero entries.  When
    k >= 2 and the flag is drawn, column 1 of A repeats column 0 and row 1
    of B negates row 0, so those products cancel."""
    n, k, m = (draw(st.integers(min_value=0, max_value=3)) for _ in range(3))
    cells = draw(ring_polys(n * k + k * m + 1, max_terms=3))
    a = [cells[i * k:(i + 1) * k] for i in range(n)]
    b = [cells[n * k + r * m:n * k + (r + 1) * m] for r in range(k)]
    if k >= 2 and draw(st.booleans()):
        for row in a:
            row[1] = row[0]
        b[1] = [-p for p in b[0]]
    variables = cells[-1].vars
    return (PolyMatrix.from_rows(a, variables, k), PolyMatrix.from_rows(b, variables, m))


def _pm(cells):
    return PolyMatrix.from_text(cells, V)


@given(matmul_pairs())
# each operand alone packs in fields too narrow for the product's degree
@example((_pm([["1 * x", "1"]]), _pm([["1"], ["1 * y^6"]])))
@example((_pm([["1 * y^7", "1"]]), _pm([["1 * y * z"], ["1"]])))
@settings(max_examples=150, deadline=None)
def test_matmul_matches_the_entrywise_reference(ab):
    a, b = ab
    got = a.matmul(b)
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert got == matmul_reference(a, b)


def test_matmul_of_different_rings_is_an_input_error_once_a_product_forms():
    a = PolyMatrix.from_text([["1 * x", "0"]], V)
    b = PolyMatrix.from_text([["1 * u"], ["0"]], ("u", "v", "w"))
    with pytest.raises(InputError, match="variable mismatch"):
        a.matmul(b)
    b.rows[0][0] = SparsePoly.zero(b.vars)
    b.rows[1][0] = variable(b.vars, "v")
    assert a.matmul(b).is_zero()


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    cells = draw(ring_polys(n * n, max_terms=2))
    return PolyMatrix.from_rows([cells[i * n:(i + 1) * n] for i in range(n)],
                                cells[0].vars)


@given(poly_matrices())
@settings(max_examples=60, deadline=None)
def test_det_matches_cofactor_expansion_property(m):
    assert m.det() == _naive_det([list(r) for r in m.rows])


# -- sparse matrices: rows that skip elimination steps ----------------------------

@st.composite
def sparse_matrices(draw):
    """Up to 10x10, the entries monomials and binomials with integer
    coefficients and exponents in 0..5, nonzero on a random transversal;
    off it a half or two thirds of the entries are zero up to 7x7, and four
    fifths beyond (a dense 10x10 of binomials takes Bareiss seconds).  A
    quarter of them made singular by replacing a row with a monomial
    multiple of another, and a sixth by zeroing a row or a column."""
    n = draw(st.integers(min_value=1, max_value=10))
    expo = st.tuples(*[st.integers(min_value=0, max_value=5)] * len(V))
    nonzero = st.dictionaries(expo, coefficient.filter(bool), min_size=1, max_size=2)
    # sampled_from, not one_of: one_of does not weight a repeated branch
    zeros = draw(st.integers(min_value=1, max_value=2)) if n <= 7 else 4
    is_zero = st.sampled_from([True] * zeros + [False])
    diagonal = draw(st.permutations(range(n)))
    rows = [[SparsePoly(V, draw(nonzero) if j == diagonal[i] or not draw(is_zero) else {})
             for j in range(n)] for i in range(n)]
    if n > 1 and draw(st.integers(min_value=0, max_value=3)) == 0:
        src, dst = draw(st.permutations(range(n)))[:2]
        f = SparsePoly.monomial(V, draw(expo), draw(coefficient.filter(bool)))
        rows[dst] = [f * p for p in rows[src]]
    if draw(st.integers(min_value=0, max_value=5)) == 0:
        k = draw(st.integers(min_value=0, max_value=n - 1))
        if draw(st.booleans()):
            rows[k] = [SparsePoly.zero(V)] * n
        else:
            for row in rows:
                row[k] = SparsePoly.zero(V)
    return PolyMatrix.from_rows(rows, V)


def _parity(perm) -> int:
    return sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:]) % 2


@given(sparse_matrices(), st.data())
@settings(max_examples=120, deadline=None)
def test_sparse_det_matches_cofactor_expansion(m, data):
    """The determinant is the cofactor expansion, zero with a zero row or
    column, and permuting rows and columns changes only its sign."""
    d = m.det()
    assert d == _naive_det(m.rows)
    if not all(any(row) for row in m.rows) or not all(any(col) for col in zip(*m.rows)):
        assert d.is_zero()
    rp = data.draw(st.permutations(range(m.nrows)))
    cp = data.draw(st.permutations(range(m.ncols)))
    moved = PolyMatrix.from_rows([[m.rows[r][c] for c in cp] for r in rp], V)
    assert moved.det() == (-d if _parity(rp) != _parity(cp) else d)


def test_det_packs_each_nonzero_entry_once_and_never_a_zero(monkeypatch):
    """On a 14x14 matrix with 42 nonzeros, `_Packing.pack` runs once per
    nonzero entry, on that entry's terms, and never on a zero."""
    n = 14
    x, y, z = (SparsePoly.monomial(V, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    rows = [[SparsePoly.zero(V)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = x + SparsePoly.const(V, i + 1)
        rows[i][(i + 1) % n] = y
        rows[i][(i + 5) % n] = z * z if i % 2 else -z
    m = PolyMatrix.from_rows(rows, V)
    packed = []
    real = qpoly._Packing.pack

    def counting(self, terms):
        packed.append(dict(terms))
        return real(self, terms)

    monkeypatch.setattr(qpoly._Packing, "pack", counting)
    d = m.det()
    monkeypatch.undo()
    entries = [p.terms for row in m.rows for p in row if p]
    assert len(entries) == 42
    assert sorted(map(sorted, packed)) == sorted(map(sorted, entries))
    assert d == _naive_det(m.rows)


def test_block_diagonal_det_is_the_product_of_the_block_dets():
    """A's monomial entries win every pivot choice, its last pivot a 3x3
    minor of at most 6 terms against 2 * 5 for a binomial of B, so B's rows
    keep a zero in the pivot column through all three steps of A and are
    brought up to date only when B's first pivot is taken."""
    a = [["1 * x", "1 * y", "1 * z"],
         ["1 * y^2", "1 * x * z", "1"],
         ["1 * z", "1 * x^2", "1 * y * z"]]
    b = [["1 * x + 1", "1 * y + -2", "1 * z + 1 * x"],
         ["2 * y + 1", "1 * x * y + 1 * z", "2 * x + -1 * y^2"],
         ["3 * z + 1 * y", "3 * x + -1", "1 * z^2 + 1 * x^3"]]
    zero = ["0"] * 3
    blocks = [r + zero for r in a] + [zero + r for r in b]
    am, bm = PolyMatrix.from_text(a, V), PolyMatrix.from_text(b, V)
    da, db = _naive_det(am.rows), _naive_det(bm.rows)
    assert not da.is_zero() and not db.is_zero()
    assert PolyMatrix.from_text(blocks, V).det() == da * db
