from __future__ import annotations

import math
import re

import pytest

from helpers_complexes import (
    cotangent_family_complex,
    koszul_vs_unit_fixture,
    mapping_cone,
)
from helpers_examples import STURMFELS_LABELS, STURMFELS_SUPPORTS

from toricres.complexes import (
    FreeGradedComplex,
    generic_sections,
    koszul_generic,
)
from toricres.errors import InputError
from toricres.qpoly import PolyMatrix, SparsePoly
from toricres.toric import SupportProblem, support_problem, variety_from_simplex, variety_of


def test_koszul_unit_simplices_shape():
    prob = support_problem((((0, 0), (1, 0), (0, 1)),) * 3)
    k = koszul_generic(prob)
    assert sorted(k.degrees) == [-3, -2, -1, 0]
    assert [k.rank(p) for p in range(-3, 1)] == [1, 3, 3, 1]
    k.validate()


def test_koszul_sturmfels_validates():
    prob = support_problem(STURMFELS_SUPPORTS, STURMFELS_LABELS)
    k = koszul_generic(prob)
    assert [k.rank(p) for p in range(-3, 1)] == [1, 3, 3, 1]
    assert k.n_params == 8
    k.validate()
    # the full subset class is the sum of the three support classes
    from toricres.toric import divisor_class
    full = k.degrees[-3][0]
    total = tuple(sum(divisor_class(k.x, s)[i] for s in prob.supports)
                  for i in range(k.x.class_rank))
    assert full == total


def test_koszul_twist_validates():
    prob = support_problem((((0, 0), (1, 0), (0, 1)),) * 3)
    k = koszul_generic(prob)
    beta = k.x.anticanonical_class()
    kt = k.twist(beta)
    kt.validate()
    assert kt.degrees[0][0] == tuple(-b for b in beta)


def test_sections_are_homogeneous():
    prob = support_problem(STURMFELS_SUPPORTS, STURMFELS_LABELS)
    x = variety_of(prob)
    variables = prob.all_labels() + x.var_names()
    fs = generic_sections(prob, x, variables)
    from toricres.toric import divisor_class
    for f, sup in zip(fs, prob.supports):
        want = divisor_class(x, sup)
        assert f.num_terms() == len(sup)
        for e in f.terms:
            assert x.degree_of(e[len(prob.all_labels()):]) == want


def test_cotangent_family_complex_is_complex():
    for d in (2, 3):
        c = cotangent_family_complex(d)
        assert [c.rank(p) for p in range(-3, 1)] == [1, 4, 4, 1]
        c.validate()


def test_koszul_vs_unit_fixture_commutes():
    for n in (1, 2, 3):
        M, N, maps = koszul_vs_unit_fixture(n)
        M.validate()
        N.validate()
        # the cone's homogeneity and d.d = 0 are the chain map's
        # homogeneity and its squares d_M theta = theta d_N
        mapping_cone(M, N, maps).validate()
        assert [M.rank(p) for p in range(-n, 1)] == \
            [math.comb(n + 1, 1 - p) for p in range(-n, 1)]


def test_coefficient_label_equal_to_a_cox_variable_is_an_input_error():
    """A label x1 would share the Cox variable x1 and silently change the
    sections: delta came out b0 - b1, not x2*b0 - x1*b1.  The ring's
    variables repeat a name, which SparsePoly refuses."""
    sup = [[(0,), (1,)], [(0,), (1,)]]
    prob = support_problem(sup, labels=[["x1", "x2"], ["b0", "b1"]])
    with pytest.raises(InputError, match="repeated variable name"):
        koszul_generic(prob)
    prob = support_problem(sup, labels=[["a0", "a1"], ["b0", "b1"]])
    assert koszul_generic(prob).n_params == 4


@pytest.mark.parametrize("stage", [koszul_generic, variety_of])
def test_a_mixed_dimension_problem_is_refused_before_any_stage(stage):
    """A SupportProblem built directly over points of mixed dimension is
    refused where it is built: koszul_generic returned a complex for it,
    and variety_of a variety."""
    with pytest.raises(InputError, match="mixed dimension"):
        stage(SupportProblem(supports=(((0,), (1,)), ((0, 0), (1, 0))),
                             labels=(("a", "b"), ("c", "d"))))


def test_validate_catches_bad_square():
    prob = support_problem((((0, 0), (1, 0), (0, 1)),) * 2)
    k = koszul_generic(prob)
    bad = k.diffs[-2]
    # corrupt one sign
    r, c = 0, 0
    bad.rows[r][c] = -bad.rows[r][c]
    with pytest.raises(InputError):
        k.validate()


def test_validate_catches_inhomogeneous_entry():
    prob = support_problem((((0, 0), (1, 0), (0, 1)),) * 2)
    k = koszul_generic(prob)
    k.diffs[-1].rows[0][0] = SparsePoly.const(k.variables, 7)
    with pytest.raises(InputError):
        k.validate()


def test_validate_names_the_inhomogeneous_entry_that_shares_a_homogeneous_monomial():
    """x_0 appears at every position; only the classes of the summands
    decide where it is homogeneous, so a degree looked up once per monomial
    must still be compared per entry."""
    k = koszul_generic(support_problem((((0, 0), (1, 0), (0, 1)),) * 2))
    e = [0] * len(k.variables)
    e[k.n_params] = 1
    x0 = SparsePoly(k.variables, {tuple(e): 1})
    c = k.x.degree_of(e[k.n_params:])
    zero, minus_c, two_c = (0,) * len(c), tuple(-v for v in c), tuple(2 * v for v in c)

    def one_map(source, target, rows):
        return FreeGradedComplex(x=k.x, variables=k.variables, n_params=k.n_params,
                                 degrees={0: source, 1: target},
                                 diffs={0: PolyMatrix.from_rows(rows, k.variables)})

    one_map((c,), (zero,), [[x0]]).validate()
    for source, target, rows, where in [
            ((c,), (zero, minus_c), [[x0, x0]], "(0,1)"),
            ((c,), (minus_c, zero), [[x0, x0]], "(0,0)"),
            ((c, two_c), (zero,), [[x0], [x0]], "(1,0)")]:
        with pytest.raises(InputError, match=re.escape(f"inhomogeneous entry at p=0, {where}")):
            one_map(source, target, rows).validate()


def test_complex_records_are_named_tuples_in_field_order():
    """FreeGradedComplex is a named tuple, not a dataclass, and constructs
    by keyword with its fields in order."""
    import dataclasses

    K = koszul_generic(support_problem((((0, 0), (1, 0), (0, 1)),) * 3))
    assert not dataclasses.is_dataclass(FreeGradedComplex)
    C = FreeGradedComplex(x=K.x, variables=K.variables, n_params=K.n_params,
                          degrees=K.degrees, diffs=K.diffs)
    assert FreeGradedComplex._fields == ("x", "variables", "n_params", "degrees", "diffs")
    assert tuple(C) == tuple(K) == (K.x, K.variables, K.n_params, K.degrees, K.diffs)


def _on_the_line(variables, n_params, degrees, diffs):
    return FreeGradedComplex(x=variety_from_simplex(1), variables=variables,
                             n_params=n_params, degrees=degrees, diffs=diffs)


_XS = ("x1", "x2")


def _written_into(m, entry):
    """m with entry written into its rows at (0, 0), past the constructor,
    which refuses a foreign entry given with the rows."""
    m.rows[0][0] = entry
    return m


@pytest.mark.parametrize("make, match", [
    (lambda: _on_the_line(_XS, 0, {}, {}), "at least one degree"),
    # an entry outside Z[x1, x2] is refused where it is built
    (lambda: _on_the_line(_XS, 0, {0: ((1,),), 1: ((0,),)},
                          {0: PolyMatrix.from_rows([[SparsePoly(_XS, {(1,): 1})]], _XS)}),
     re.escape("exponent (1,) is not a monomial of ('x1', 'x2')")),
    (lambda: _on_the_line(_XS, 5, {0: ((0,),)}, {}), "2 variables for 5 parameters"),
    (lambda: _on_the_line(_XS, 0, {0: ((0, 0),)}, {}), "class group has rank 1"),
    # x1 / x2, homogeneous of class 0
    (lambda: _on_the_line(_XS, 0, {0: ((0,),), 1: ((0,),)},
                          {0: PolyMatrix.from_rows([[SparsePoly(_XS, {(1, -1): 1})]], _XS)}),
     re.escape("exponent (1, -1) is not a monomial of ('x1', 'x2')")),
    # x1 / a
    (lambda: _on_the_line(("a",) + _XS, 1, {-1: ((1,),), 0: ((0,),)},
                          {-1: PolyMatrix.from_rows(
                              [[SparsePoly(("a",) + _XS, {(-1, 1, 0): 1})]], ("a",) + _XS)}),
     re.escape("exponent (-1, 1, 0) is not a monomial of ('a', 'x1', 'x2')")),
    # a well-formed matrix, but at a degree the complex does not reach
    (lambda: _on_the_line(_XS, 0, {0: ((0,),)},
                          {3: PolyMatrix.from_rows([[SparsePoly(_XS, {(1, 0): 1})]], _XS)}),
     "stray differential at 3"),
    # y1 is homogeneous of class 1 when read as x1 by position
    (lambda: _on_the_line(_XS, 0, {0: ((1,),), 1: ((0,),)},
                          {0: PolyMatrix.from_rows([[SparsePoly(("y1", "y2"), {(1, 0): 1})]],
                                                   ("y1", "y2"))}),
     re.escape("differential at 0 is over ('y1', 'y2')")),
    # a matrix over the complex's variables holding an entry over others,
    # written into its rows: read as x1 by position, y1 would give the
    # direct image of x1
    (lambda: _on_the_line(_XS, 0, {0: ((-1,),), 1: ((-2,),)},
                          {0: _written_into(PolyMatrix(1, 1, _XS),
                                            SparsePoly(("y1", "y2"), {(1, 0): 1}))}),
     re.escape("entry at p=0, (0,0) is over ('y1', 'y2')")),
], ids=["no-degrees", "exponent-length", "variable-count", "class-length",
        "negative-cox-exponent", "negative-parameter-exponent", "stray-differential",
        "foreign-variables", "foreign-entry-variables"])
def test_validate_refuses_a_malformed_complex(make, match, monkeypatch):
    """Each malformed complex is refused with InputError, by validate, the
    pipeline's input boundary, or, for an entry outside Z[variables], by
    SparsePoly where the entry is built; weyman_differential raises the
    same error before any walk: none reaches an IndexError, a failure
    inside a walk, or a direct image of a complex the ring does not hold."""
    from toricres import weyman

    def no_walk(*args):
        raise AssertionError("walked a complex validate refuses")

    monkeypatch.setattr(weyman, "_walk", no_walk)
    with pytest.raises(InputError, match=match) as refused:
        make().validate()
    with pytest.raises(InputError, match=match) as pushed:
        weyman.weyman_differential(make())
    assert str(pushed.value) == str(refused.value)
