from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_cohomology import bott_pn, cls_of_degree, kunneth_p1p1, p1p1_class
from helpers_complexes import (
    P1,
    binary_form,
    cotangent_family_complex,
    identity_morphism,
    koszul_two,
    koszul_vs_unit_fixture,
    random_specialization,
    random_two_term,
    rescale_morphism,
)
from helpers_examples import (
    M33_E1,
    M33_ELIMINANT_TEXT,
    M33_MULTIPLICITY,
    M34_K8_RANKS,
    STURMFELS_E1_UNIT,
    STURMFELS_STABLE_SHAPE,
    m33_problem,
    m34_problem,
    sturmfels_eliminant,
    sturmfels_problem,
)
from helpers_poly import constant_value, e1_page_from_obj, matrix_text, same_up_to_sign
import helpers_reference
from helpers_reference import (
    expanded_certs,
    retract_identity_failures,
    specialized_homology,
    stabilization_level,
    staircase_block,
    total_complex_direct,
)
from toricres.complexes import FreeGradedComplex, koszul_generic
from toricres import cech, weyman
from toricres.errors import MathFailure, ResourceGuard
from toricres.fixtures import sturmfels_twist
from toricres.morphisms import ComplexMorphism, weyman_on_morphism
from toricres.qlinalg import QMatrix
from toricres.qpoly import (
    PolyMatrix,
    SparsePoly,
    poly_from_text,
    poly_to_text,
    primitive_part,
)
from toricres.resultant import (
    _multiplicity,
    a_resultant,
    determinant_of_complex,
    resolve_twist,
)
from toricres.toric import variety_from_points, variety_from_simplex, variety_of
from toricres.weyman import (
    E1Page,
    weyman_differential,
    weyman_terms,
)


def one_term(x, alpha) -> FreeGradedComplex:
    return FreeGradedComplex(x=x, variables=x.var_names(), n_params=0,
                             degrees={0: (tuple(alpha),)}, diffs={})


def pm_equal(a: PolyMatrix, b: PolyMatrix) -> bool:
    if (a.nrows, a.ncols) != (b.nrows, b.ncols):
        return False
    return all((a.rows[r][c] - b.rows[r][c]).is_zero()
               for r in range(a.nrows) for c in range(a.ncols))


def squares_commute(theta: ComplexMorphism, mats) -> bool:
    WM = weyman_differential(theta.source)
    WN = weyman_differential(theta.target)
    for i in sorted(set(WM.terms) | set(WN.terms)):
        if i in mats and i + 1 in mats:
            lhs = WM.diff_at(i).matmul(mats[i + 1])
            rhs = mats[i].matmul(WN.diff_at(i))
            if not pm_equal(lhs, rhs):
                return False
    return True


@pytest.fixture(scope="module")
def sturmfels_unit():
    prob = sturmfels_problem()
    x = variety_of(prob)
    C = koszul_generic(prob).twist(sturmfels_twist(x, "unit"))
    return C, weyman_differential(C)


@pytest.fixture(scope="module")
def m33_weyman():
    C = koszul_generic(m33_problem())
    return C, weyman_differential(C)


def test_one_term_unit_sheaf_has_rank_one_in_degree_zero():
    for n in (1, 2, 3):
        x = variety_from_simplex(n)
        C = one_term(x, (0,) * x.class_rank)
        W = weyman_differential(C)
        assert {i: W.rank(i) for i in W.degrees()} == {0: 1}
        assert W.e1.table == {(0, 0): 1}


P2 = variety_from_simplex(2)
P1P1 = variety_from_points(((0, 0), (1, 0), (0, 1), (1, 1)))
_CLOSED_FORMS = (
    [pytest.param(P1, cls_of_degree(P1, a), bott_pn(1, -a), id=f"P1-{a}")
     for a in range(-6, 7)]
    + [pytest.param(P2, cls_of_degree(P2, a), bott_pn(2, -a), id=f"P2-{a}")
       for a in range(-6, 7)]
    + [pytest.param(P1P1, p1p1_class(P1P1, d1, d2), kunneth_p1p1(-d1, -d2),
                    id=f"P1P1-{d1},{d2}")
       for d1, d2 in [(0, 0), (1, 2), (-2, 1), (2, 3), (-2, -3), (-1, -1)]])


@pytest.mark.parametrize("x, alpha, want", _CLOSED_FORMS)
def test_one_term_e1_page_matches_closed_form_cohomology(x, alpha, want):
    """The shipped dims, from the families of the contributing patterns,
    against Bott's formula on P1 and P2 and Kunneth on P1 x P1: the E1 page
    of the one-term complex of alpha holds the cohomology of O(-alpha)."""
    _, page = weyman_terms(one_term(x, alpha))
    assert [page.rank(0, q) for q in range(x.dim + 1)] == want
    assert all(p == 0 for p, q in page.table)


def test_e1_diagonal_sums_match_term_ranks(sturmfels_unit):
    _, W = sturmfels_unit
    for i in W.degrees():
        diag = sum(r for (p, q), r in W.e1.table.items() if p + q == i)
        assert diag == W.rank(i)


def test_e1_page_round_trip():
    page = E1Page({(-2, 1): 3, (0, 0): 1})
    assert e1_page_from_obj(page.to_obj()).table == page.table


def test_pipeline_records_are_named_tuples_in_field_order(sturmfels_unit):
    """E1Page, WeymanComplex and ResultantOutput are NamedTuples, not
    dataclasses: they construct by keyword with their fields in order, and
    E1Page and ResultantOutput refuse attribute assignment."""
    import dataclasses
    from toricres.resultant import ResultantOutput
    from toricres.toric import support_problem
    from toricres.weyman import WeymanComplex

    _, W = sturmfels_unit
    square = ((0, 0), (1, 0), (0, 1), (1, 1))
    out = a_resultant(support_problem((square,) * 3))
    for cls in (E1Page, WeymanComplex, ResultantOutput):
        assert not dataclasses.is_dataclass(cls)
    assert tuple(E1Page(table=W.e1.table)) == (W.e1.table,)
    assert WeymanComplex._fields == ("source", "terms", "e1", "basis", "diffs")
    again = WeymanComplex(source=W.source, terms=W.terms, e1=W.e1, basis=W.basis,
                          diffs=W.diffs)
    assert tuple(again) == tuple(W)
    assert ResultantOutput._fields == ("delta", "multiplicity", "root", "e1",
                                       "term_ranks", "twist", "subsets")
    again = ResultantOutput(delta=out.delta, multiplicity=out.multiplicity, root=out.root,
                            e1=out.e1, term_ranks=out.term_ranks, twist=out.twist,
                            subsets=out.subsets)
    assert again.to_obj() == out.to_obj()
    for record, name, value in ((out, "multiplicity", 2), (out, "extra", 0),
                                (out.e1, "table", {}), (out.e1, "extra", 0)):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    assert out.multiplicity == 1 and out.e1.table


def test_weyman_differential_builds_only_acyclic_families_past_weyman_terms(built_families):
    """The summand dims are read off the certificate families, so the walks
    that follow build only the families the cone-apex screen skipped: each
    has a cone for Sigma and every dim 0."""
    cech.clear_caches()
    prob = sturmfels_problem()
    x = variety_of(prob)
    C = koszul_generic(prob).twist(sturmfels_twist(x, "unit"))
    _, page = weyman_terms(C)
    for q, row in STURMFELS_E1_UNIT.items():
        assert page.row(q, -3, 0) == row
    before = set(built_families)
    assert before
    weyman_differential(C)
    late = set(built_families) - before
    assert late   # a walk chain lands in a skipped pattern's family
    for sigma, n in late:
        assert any(all(S | 1 << j in sigma for S in sigma) for j in range(n))
        assert not any(built_families[(sigma, n)].dims)


def test_sturmfels_unit_page_and_ranks(sturmfels_unit):
    C, W = sturmfels_unit
    terms, page = weyman_terms(C)
    for q, row in STURMFELS_E1_UNIT.items():
        assert page.row(q, -3, 0) == row
    assert page.table == W.e1.table
    assert {i: W.rank(i) for i in W.degrees()} == {-1: 15, 0: 15}
    W.validate()


def test_sturmfels_unit_determinant_is_the_eliminant(sturmfels_unit):
    _, W = sturmfels_unit
    d = W.diff_at(-1)
    assert (d.nrows, d.ncols) == (15, 15)
    det = d.det()
    assert same_up_to_sign(det, sturmfels_eliminant())


def test_sturmfels_column_entry_degree_equals_step_count(sturmfels_unit):
    # every source summand sits at p = -3, so a column reached in r steps
    # holds entries of coefficient degree exactly r
    _, W = sturmfels_unit
    d = W.diff_at(-1)
    for c, (p2, q2, k2, w2, mpos2) in enumerate(W.basis[0]):
        r = p2 - (-3)
        for rown in range(d.nrows):
            p = d.rows[rown][c]
            for exp in p.terms:
                assert sum(exp) == r


def _labelled_certs(c):
    """A family's iota rows keyed by their surviving cells, and its h."""
    return [dict(zip(active, iota)) for active, iota in zip(c.active, c.iota)], c.h


def test_sturmfels_pivot_order_naturality(sturmfels_unit, request):
    """Reversing the order of each degree's subsets changes the pivots, hence
    the certificates and the matrices, but not the complex up to a change
    of basis: the same page, term ranks and determinant up to sign."""
    C, W = sturmfels_unit
    x = C.x
    negs = sorted({tuple(rho for rho, v in enumerate(lab[3]) if v < 0)
                   for labs in W.basis.values() for lab in labs})
    before = [_labelled_certs(cech.family_certs(x, neg)) for neg in negs]
    request.getfixturevalue("reversed_subset_order")
    built = request.getfixturevalue("built_families")
    W2 = weyman_differential(C)
    after = [_labelled_certs(cech.family_certs(x, neg)) for neg in negs]
    assert built
    for (sigma, _), c in built.items():
        assert retract_identity_failures(*expanded_certs(c, sigma)) == []
    assert W2.e1.table == W.e1.table
    assert {i: W2.rank(i) for i in W2.degrees()} == \
        {i: W.rank(i) for i in W.degrees()}
    assert same_up_to_sign(W2.diff_at(-1).det(), W.diff_at(-1).det())
    # not vacuous: the reversed order took other pivots
    assert any(b != a for b, a in zip(before, after))
    assert any(not pm_equal(W2.diff_at(i), W.diff_at(i)) for i in W.degrees())


def test_sturmfels_stable_twist_shape():
    prob = sturmfels_problem()
    x = variety_of(prob)
    C = koszul_generic(prob).twist(sturmfels_twist(x, "stable"))
    W = weyman_differential(C)
    # published shape lists ranks from degree 0 downward
    ranks = tuple(W.rank(i) for i in sorted(W.degrees(), reverse=True))
    assert ranks == STURMFELS_STABLE_SHAPE
    # a stable twist keeps only section-level cohomology
    assert all(q == 0 for (p, q), r in W.e1.table.items() if r)
    W.validate()


def test_m33_page_and_term_ranks(m33_weyman):
    C, W = m33_weyman
    for q, row in M33_E1.items():
        assert W.e1.row(q, -4, 0) == row
    assert {i: W.rank(i) for i in W.degrees()} == {-1: 42, 0: 44, 1: 2}
    W.validate()


def test_m33_multiplicity_and_eliminant(m33_weyman):
    _, W = m33_weyman
    delta = primitive_part(determinant_of_complex(W))
    m, root = _multiplicity(delta)
    assert m == M33_MULTIPLICITY
    assert same_up_to_sign(primitive_part(root),
                           poly_from_text(M33_ELIMINANT_TEXT, delta.vars))


def test_m33_resultant_at_the_default_twist(m33_weyman):
    """The default twist is the zero class, so a_resultant builds the
    fixture's zero-twist complex and gives the printed root with
    multiplicity 14."""
    C, W = m33_weyman
    out = a_resultant(m33_problem())
    assert out.term_ranks == {i: W.rank(i) for i in W.degrees()}
    assert out.multiplicity == M33_MULTIPLICITY
    assert same_up_to_sign(out.root,
                           poly_from_text(M33_ELIMINANT_TEXT, out.root.vars))


def test_m34_k8_ranks_at_twice_the_anticanonical_class():
    """The printed k = 8 ranks, read from degree 1 down, belong to 2A; the
    default twist is zero there, as everywhere."""
    prob = m34_problem(8)
    x = variety_of(prob)
    K = koszul_generic(prob)
    two_a = tuple(2 * c for c in x.anticanonical_class())
    assert resolve_twist(K, "default") == (0,) * x.class_rank
    terms, _ = weyman_terms(K.twist(two_a))
    ranks = tuple(sum(s.dim for s in terms[i]) for i in sorted(terms, reverse=True))
    assert ranks == M34_K8_RANKS


def test_m33_named_staircase_blocks(m33_weyman):
    """Which staircase blocks vanish and which carry weight freezes one
    certificate choice, not only the complex: the cone vertex of every
    family reduction is generator 0, and each degree's subsets are indexed
    in sorted order.  Another exact retract (another vertex, another pivot
    order) gives the same page, term ranks and determinant up to sign, yet
    may make a zero r >= 2 block nonzero.  The block shapes depend on the
    page alone."""
    _, W = m33_weyman
    for p, q, r in ((-2, 1, 2), (-3, 2, 2), (-3, 3, 2), (-3, 2, 3),
                    (-4, 3, 2), (-4, 3, 3), (-4, 3, 4)):
        b = staircase_block(W, p, q, r)
        assert (b.nrows, b.ncols) == (W.e1.table.get((p, q), 0),
                                      W.e1.table.get((p + r, q - r + 1), 0))
    # the two knight moves that carry weight
    b = staircase_block(W, -2, 1, 2)
    assert (b.nrows, b.ncols) == (2, 1) and not b.is_zero()
    b = staircase_block(W, -3, 2, 2)
    assert (b.nrows, b.ncols) == (21, 2) and not b.is_zero()
    # and the ones that vanish
    assert staircase_block(W, -3, 3, 2).is_zero()
    assert staircase_block(W, -3, 2, 3).is_zero()
    for r in (2, 3, 4):
        assert staircase_block(W, -4, 3, r).is_zero()


def test_m33_family_certificates_satisfy_the_retract_identities(m33_weyman, built_families):
    """Every family the M33 complex reduces, built cold: 72 families on 10
    generators, each an exact deformation retract onto its cohomology."""
    C, W = m33_weyman
    cech.clear_caches()
    assert weyman_differential(C).e1.table == W.e1.table
    assert len(built_families) == cech.cache_counters["built"] == 72
    for (sigma, n), c in built_families.items():
        assert n == 10
        assert retract_identity_failures(*expanded_certs(c, sigma)) == []


def test_staircase_stops_at_the_bottom_row(m33_weyman):
    # projections exist only for 1 <= r <= q0 + 1
    C, W = m33_weyman
    lab = None
    for (p, q, k, w, mpos) in W.basis[-1]:
        if (p, q) == (-2, 1):
            lab = (p, q, k, w, mpos)
            break
    assert lab is not None
    certs = weyman._Certs(C.x)
    pk = weyman._walk_packing(C.x, C.diffs.values(), C.n_params)
    splits = {p: weyman._split_matrix(C.diff_at(p), C.n_params, pk, certs.n)
              for p in C.diffs}
    projs = dict(weyman._walk(certs, splits, pk, lab[0], lab[1], [lab[2:]]))
    assert projs and set(projs) <= {1, 2}


def test_walk_packing_rejects_a_negative_parameter_exponent():
    """Walk exponents are packed with no offset, so a Laurent parameter in a
    differential is refused before any walk, as a typed error."""
    v = ("a",) + P1.var_names()
    d = PolyMatrix.from_rows([[SparsePoly(v, {(-1, 1, 0): 1})]], v)   # x1 / a
    with pytest.raises(MathFailure, match="negative parameter exponent"):
        weyman._walk_packing(P1, [d], 1)
    C = FreeGradedComplex(x=P1, variables=v, n_params=1,
                          degrees={-1: ((1,),), 0: ((0,),)}, diffs={-1: d})
    C.validate()
    with pytest.raises(MathFailure, match="negative parameter exponent"):
        weyman_differential(C)


def test_split_matrix_rejects_a_negative_cox_exponent():
    """A walk keeps each chain's subset across a step by x^nu, which needs
    nu >= 0: then the source family sits inside the destination family.
    A Laurent Cox exponent is refused as a typed error."""
    from toricres.qpoly import _Packing

    v = ("a",) + P1.var_names()
    pk = _Packing((0,), 1)
    # a x1 + 2a x2 / x1
    d = PolyMatrix.from_rows([[SparsePoly(v, {(1, 1, 0): 1, (1, -1, 1): 2})]], v)
    with pytest.raises(MathFailure, match="negative Cox exponent"):
        weyman._split_matrix(d, 1, pk, 2)
    d = PolyMatrix.from_rows([[SparsePoly(v, {(1, 1, 0): 1, (1, 0, 1): 2})]], v)
    assert [nu for nu, _ in weyman._split_matrix(d, 1, pk, 2)[0][0]] == [(0, 1), (1, 0)]


@pytest.mark.parametrize("name", ["sturmfels_unit", "m33_weyman"])
def test_walking_each_basis_element_alone_reproduces_its_row(name, request):
    """A batched walk tags each term with its walk's place in the group,
    and weyman_differential decodes the tags of whole groups: walked alone,
    as a group of one, every basis element gives its row again."""
    C, W = request.getfixturevalue(name)
    certs = weyman._Certs(C.x)
    pk = weyman._walk_packing(C.x, C.diffs.values(), C.n_params)
    splits = {p: weyman._split_matrix(C.diff_at(p), C.n_params, pk, certs.n)
              for p in C.diffs}
    # not vacuous: some group holds several rows, whose tags differ
    assert any(len(list(g)) > 1 for labs in W.basis.values()
               for _, g in itertools.groupby(labs, key=lambda lab: lab[:2]))
    walked = 0
    for i, d in W.diffs.items():
        tpos = {lab: n for n, lab in enumerate(W.basis[i + 1])}
        for rown, (p0, q0, k, w, mpos) in enumerate(W.basis[i]):
            entries: dict = {}
            for r, proj in weyman._walk(certs, splits, pk, p0, q0, [(k, w, mpos)]):
                sgn = -1 if ((i - 1) * (r - 1)) % 2 else 1
                for (k2, w2, mpos2), part in proj.items():
                    acc = entries.setdefault(tpos[(p0 + r, q0 - r + 1, k2, w2, mpos2)], {})
                    for tag, a in part.items():
                        acc[tag] = acc.get(tag, 0) + sgn * a
            m = PolyMatrix(1, d.ncols, d.vars)
            weyman._fill_rows(m, [0], entries, pk)
            assert [p.terms for p in m.rows[0]] == [p.terms for p in d.rows[rown]]
            walked += 1
    assert walked == sum(W.rank(i) for i in W.diffs)


def test_a_row_tag_that_overruns_its_field_is_a_typed_error():
    """A tag holds its walk's place t above the negated total degree of its
    exponent, in a field as wide as one exponent field.  A degree past that
    field borrows from t, and a t outside the group names no row: both are
    refused, never written into another row."""
    from toricres.qpoly import _Packing

    pk = _Packing((0, 0), 1)   # two-bit fields, the high one a guard
    at = weyman._stride(pk)
    m = PolyMatrix(2, 1, ("a", "b"))
    weyman._fill_rows(m, [0, 1], {0: {(1 << at) + e: c
                                       for e, c in pk.pack({(1, 0): 5}).items()}}, pk)
    assert m.rows[1][0].terms == {(1, 0): 5} and not m.rows[0][0].terms
    # degree 4 borrows from t = 1 and from t = 0; degree 4 in guarded fields;
    # a third place in a group of two
    for t, past in ((1, (4, 0)), (0, (4, 0)), (1, (2, 2)), (2, (0, 0))):
        tagged = {(t << at) + e: c for e, c in pk.pack({past: 1}).items()}
        with pytest.raises(MathFailure, match="degree bound"):
            weyman._fill_rows(m, [0, 1], {0: tagged}, pk)


def _weyman_hash(W) -> str:
    """sha256 prefix of W's basis followed by the text of every entry of
    each differential, in sorted degree and row-major order."""
    h = hashlib.sha256(repr(sorted(W.basis.items())).encode())
    for i in sorted(W.diffs):
        for row in W.diffs[i].rows:
            for p in row:
                h.update(poly_to_text(p).encode())
    return h.hexdigest()[:16]


def test_weyman_complexes_match_their_pins(sturmfels_unit, m33_weyman):
    """The basis labels and every matrix entry of three direct-image
    complexes, frozen: a change of certificate or walk that keeps the
    determinant but moves a pivot, a model order or an entry shows here."""
    prob = sturmfels_problem()
    x = variety_of(prob)
    stable = weyman_differential(koszul_generic(prob).twist(sturmfels_twist(x, "stable")))
    assert _weyman_hash(sturmfels_unit[1]) == "0a9b43dd12175106"
    assert _weyman_hash(stable) == "72ce60113a91decf"
    assert _weyman_hash(m33_weyman[1]) == "bbf41bdbbdf80108"


def test_walk_exponent_past_its_degree_bound_is_a_typed_error(monkeypatch):
    """An exponent past the packing's degree bound is caught on unpacking,
    both when it sets a guard bit and when it carries into the next field,
    where the guard bit alone would miss it."""
    from toricres.qpoly import _Packing

    pk = _Packing((0, 0), 1)   # two-bit fields, the high one a guard
    m = PolyMatrix(1, 1, ("a", "b"))
    # the tag of a group's first walk is its packed exponent
    for past in ((2, 0), (0, 3), (4, 0)):   # guard bit, guard bit, carry
        with pytest.raises(MathFailure, match="degree bound"):
            weyman._fill_rows(m, [0], {0: pk.pack({past: 1})}, pk)
    weyman._fill_rows(m, [0], {0: pk.pack({(1, 1): 3, (0, 0): -1})}, pk)
    assert m.rows[0][0].terms == {(1, 1): 3, (0, 0): -1}

    prob = sturmfels_problem()
    x = variety_of(prob)
    C = koszul_generic(prob).twist(sturmfels_twist(x, "unit"))
    pk = weyman._walk_packing(x, C.diffs.values(), C.n_params)
    # Koszul pieces have parameter degree 1, and a walk takes dim + 1 steps
    assert pk.mask == _Packing((0,) * C.n_params, x.dim + 1).mask
    monkeypatch.setattr(weyman, "_walk_packing",
                        lambda x_, mats, n: _Packing((0,) * n, 0))
    with pytest.raises(MathFailure, match="degree bound"):
        weyman_differential(C)


def test_koszul_vs_unit_morphism_is_invertible_in_degree_zero():
    for n in (1, 2, 3):
        theta = koszul_vs_unit_fixture(n)
        mats = weyman_on_morphism(theta)
        WM = weyman_differential(theta.source)
        WN = weyman_differential(theta.target)
        assert {i: WM.rank(i) for i in WM.degrees()} == {0: 1}
        assert {i: WN.rank(i) for i in WN.degrees()} == {0: 1}
        m = mats[0]
        assert (m.nrows, m.ncols) == (1, 1)
        val = constant_value(m.rows[0][0])
        assert val != 0


def test_identity_morphism_induces_identity():
    f = binary_form([2, -1])
    g = binary_form([1, 3, 2])
    C = koszul_two(f, g, 1, 2, 3)
    theta = identity_morphism(C)
    mats = weyman_on_morphism(theta)
    W = weyman_differential(C)
    for i in W.degrees():
        m = mats[i]
        assert (m.nrows, m.ncols) == (W.rank(i), W.rank(i))
        for r in range(m.nrows):
            for c in range(m.ncols):
                want = 1 if r == c else 0
                assert constant_value(m.rows[r][c]) == want


def test_morphism_squares_commute_exactly():
    u = binary_form([1, 1])
    f = binary_form([2, -1])
    g = binary_form([1, 3, 2])
    for t in (2, 3, 4):
        theta = rescale_morphism(f, g, u, 1, 2, t)
        theta.validate()
        mats = weyman_on_morphism(theta)
        assert squares_commute(theta, mats)


def _morphism_fixtures() -> list[ComplexMorphism]:
    f = binary_form([2, -1])
    g = binary_form([1, 3, 2])
    u = binary_form([1, 1])
    return ([koszul_vs_unit_fixture(n) for n in (1, 2, 3)]
            + [identity_morphism(koszul_two(f, g, 1, 2, 3))]
            + [rescale_morphism(f, g, u, 1, 2, t) for t in (2, 3, 4)])


def test_morphism_functor_matches_its_pin():
    """Keys, shapes and entry texts of the induced maps on every morphism
    fixture, frozen."""
    obj = [{str(i): [m.nrows, m.ncols, [[poly_to_text(p) for p in row] for row in m.rows]]
            for i, m in weyman_on_morphism(theta).items()}
           for theta in _morphism_fixtures()]
    digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
    assert digest[:16] == "4e54043a760cf404"


@pytest.mark.parametrize("n", range(7))
def test_cone_direct_image_has_the_block_form(n):
    """W of the cone of theta: M M (-d_W(M)), N N (d_W(N)) and N M (zero)
    blocks, with the cone's M-type labels at i - 1 those of W(M)^i and its
    N-type labels at i those of W(N)^i, in basis order."""
    theta = _morphism_fixtures()[n]
    M, N = theta.source, theta.target
    W = weyman_differential(theta.cone())
    WM, WN = weyman_differential(M), weyman_differential(N)

    def split(i):
        ms, ns = [], []
        for pos, (p, q, k, w, mpos) in enumerate(W.basis.get(i, [])):
            if k < M.rank(p + 1):
                ms.append((pos, (p + 1, q, k, w, mpos)))
            else:
                ns.append((pos, (p, q, k - M.rank(p + 1), w, mpos)))
        return ms, ns

    degrees = set(W.terms) | {i - 1 for i in WM.terms} | set(WN.terms)
    for i in sorted(degrees):
        (ms, ns), (ms1, ns1) = split(i), split(i + 1)
        assert [lab for _, lab in ms] == WM.basis.get(i + 1, [])
        assert [lab for _, lab in ns] == WN.basis.get(i, [])
        d = W.diff_at(i)

        def block(rows, cols):
            return d.submatrix([r for r, _ in rows], [c for c, _ in cols])

        mm = block(ms, ms1)
        want = WM.diff_at(i + 1)
        assert (mm.nrows, mm.ncols) == (want.nrows, want.ncols)
        assert all(a == -b for ra, rb in zip(mm.rows, want.rows) for a, b in zip(ra, rb))
        assert pm_equal(block(ns, ns1), WN.diff_at(i))
        assert block(ns, ms1).is_zero()


def constant_q(m: PolyMatrix) -> QMatrix:
    out = QMatrix(m.nrows, m.ncols)
    for r in range(m.nrows):
        for c, p in enumerate(m.rows[r]):
            v = constant_value(p)
            if v:
                out.set(r, c, Fraction(v))
    return out


def null_homotopic(dM: dict[int, QMatrix], dN: dict[int, QMatrix],
                   D: dict[int, QMatrix]) -> bool:
    """Solvability of d_M s + s d_N = D over the rationals."""
    degs = sorted(D)
    var_pos: dict[tuple[int, int, int], int] = {}
    for i in degs + [degs[-1] + 1]:
        if i in dN or i - 1 in dN:
            rM = D[i].nrows if i in D else (dM[i - 1].ncols if i - 1 in dM else 0)
            rN = dN[i - 1].nrows if i - 1 in dN else 0
            for a in range(rM):
                for b in range(rN):
                    var_pos[(i, a, b)] = len(var_pos)
    rows = []
    rhs = []
    for i in degs:
        for r in range(D[i].nrows):
            for c in range(D[i].ncols):
                row: dict[int, Fraction] = {}
                if i in dM:
                    for a in range(dM[i].ncols):
                        j = var_pos.get((i + 1, a, c))
                        if j is not None and dM[i].get(r, a):
                            row[j] = row.get(j, 0) + dM[i].get(r, a)
                if i - 1 in dN:
                    for b in range(dN[i - 1].nrows):
                        j = var_pos.get((i, r, b))
                        if j is not None and dN[i - 1].get(b, c):
                            row[j] = row.get(j, 0) + dN[i - 1].get(b, c)
                rows.append(row)
                rhs.append(D[i].get(r, c))
    A = QMatrix(len(rows), len(var_pos))
    Ab = QMatrix(len(rows), len(var_pos) + 1)
    for n, row in enumerate(rows):
        for j, v in row.items():
            if v:
                A.set(n, j, v)
                Ab.set(n, j, v)
        if rhs[n]:
            Ab.set(n, len(var_pos), rhs[n])
    return A.rank() == Ab.rank()


def test_morphism_composition_commutes_up_to_homotopy():
    # transfer through the staircase certificates is functorial only up
    # to chain homotopy; over constants that is an exact rational check
    rng = random.Random(11)
    for _ in range(2):
        u = binary_form([rng.randint(1, 3), rng.randint(1, 3)])
        v = binary_form([rng.randint(1, 3), -rng.randint(1, 3)])
        f = binary_form([rng.randint(1, 3), rng.randint(-3, -1)])
        g = binary_form([1, rng.randint(-3, 3), rng.randint(1, 3)])
        t = rng.choice((2, 3))
        # K(f*u*v, g) -> K(f*v, g) -> K(f, g)
        a = rescale_morphism(f * v, g, u, 1 + v.total_degree(), 2, t)
        b = rescale_morphism(f, g, v, 1, 2, t)
        c = a.then(b)
        c.validate()
        ma = weyman_on_morphism(a)
        mb = weyman_on_morphism(b)
        mc = weyman_on_morphism(c)
        assert squares_commute(c, mc)
        WM = weyman_differential(a.source)
        WN = weyman_differential(b.target)
        dM = {i: constant_q(WM.diff_at(i)) for i in WM.degrees()}
        dN = {i: constant_q(WN.diff_at(i)) for i in WN.degrees()}
        D = {}
        for i in sorted(mc):
            if i in ma and i in mb:
                prod = ma[i].matmul(mb[i])
                dq = QMatrix(mc[i].nrows, mc[i].ncols)
                for r in range(mc[i].nrows):
                    for c2 in range(mc[i].ncols):
                        val = constant_value(mc[i].rows[r][c2] - prod.rows[r][c2])
                        if val:
                            dq.set(r, c2, Fraction(val))
                D[i] = dq
        assert null_homotopic(dM, dN, D)


def max_level(C) -> list[int]:
    x = C.x
    out = [0] * len(x.max_cones)
    for p in C.degrees:
        for alpha in C.degrees[p]:
            lev = stabilization_level(x, alpha)
            out = [max(a, b) for a, b in zip(out, lev)]
    return out


def homologies_agree(C, n_spec: int, seed: int, pad: int = 0) -> bool:
    rng = random.Random(seed)
    W = weyman_differential(C)
    W.validate()
    e = [v + pad for v in max_level(C)]
    T = total_complex_direct(C, e)
    for _ in range(n_spec):
        assign = {v: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for v in C.param_vars}
        hw = specialized_homology(W, assign)
        ho = specialized_homology(T, assign)
        for i in set(hw) | set(ho):
            if hw.get(i, 0) != ho.get(i, 0):
                return False
    return True


def test_oracle_agrees_on_cotangent_family():
    for d in (1, 2, 3, 4):
        assert homologies_agree(cotangent_family_complex(d), 3, seed=d)


def test_oracle_agrees_at_a_larger_level():
    assert homologies_agree(cotangent_family_complex(2), 2, seed=3, pad=1)


def test_direct_total_complex_label_cap_raises_resource_guard(monkeypatch):
    C = cotangent_family_complex(1)
    monkeypatch.setattr(helpers_reference, "ORACLE_LABEL_CAP", 1)
    with pytest.raises(ResourceGuard):
        total_complex_direct(C, max_level(C))


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=10, deadline=None)
def test_oracle_agrees_on_random_two_term_complexes(seed):
    rng = random.Random(seed)
    C = random_two_term(rng)
    W = weyman_differential(C)
    W.validate()
    T = total_complex_direct(C, max_level(C))
    for _ in range(2):
        assign = random_specialization(rng)
        hw = specialized_homology(W, assign)
        ho = specialized_homology(T, assign)
        for i in set(hw) | set(ho):
            assert hw.get(i, 0) == ho.get(i, 0)


def test_weyman_complex_serialization_round_trip(sturmfels_unit):
    _, W = sturmfels_unit
    assert W.terms[-1][0].dim == 15
    assert e1_page_from_obj(W.e1.to_obj()).table == W.e1.table
    d = PolyMatrix.from_text(matrix_text(W.diff_at(-1)), W.source.param_vars)
    assert pm_equal(d, W.diff_at(-1))
