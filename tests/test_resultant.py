"""Determinants of based complexes and the resultant pipeline."""
import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers_complexes import on_the_line
from helpers_examples import (
    M33_ELIMINANT_TEXT,
    linear3_problem,
    m33_problem,
    m34_problem,
    sturmfels_eliminant,
    sturmfels_problem,
)
from helpers_poly import constant_value, evaluate, renamed, same_up_to_sign
from helpers_reference import (
    NonGenericLifting,
    generic_initial_monomial,
    incidence_sample,
    initial_monomial,
    membership_test,
    random_specialization,
    sylvester_resultant,
)
from toricres import cech, resultant
from toricres.complexes import koszul_generic
from toricres.errors import ExactnessFailure, InputError, MathFailure
from toricres.fixtures import sturmfels_twist
from toricres.qlinalg import QMatrix
from toricres.qpoly import (
    PolyMatrix,
    SparsePoly,
    kth_root,
    poly_from_text,
    poly_to_text,
    primitive_part,
)
from toricres.implicit import implicitize_curve
from toricres.resultant import (
    a_resultant,
    determinant_of_complex,
    resolve_twist,
)
from toricres.toric import SupportProblem, support_problem, variety_of
from toricres.weyman import weyman_differential


def embed(p: SparsePoly, variables) -> SparsePoly:
    """Reindex a polynomial into a variable tuple containing its own."""
    variables = tuple(variables)
    pos = [variables.index(v) for v in p.vars]
    terms = {}
    for e, c in p.terms.items():
        key = [0] * len(variables)
        for i, k in zip(pos, e):
            key[i] = k
        terms[tuple(key)] = c
    return SparsePoly(variables, terms)


def univariate_problem(d1: int, d2: int, labels=None):
    return support_problem([[(k,) for k in range(d1 + 1)],
                            [(k,) for k in range(d2 + 1)]], labels=labels)


def generic_univariate_pair(problem, d1, d2):
    labs = problem.all_labels()
    uvars = tuple(labs) + ("x",)
    n = len(labs)
    f = SparsePoly(uvars, {tuple(1 if i == k else 0 for i in range(n)) + (k,): 1
                           for k in range(d1 + 1)})
    g = SparsePoly(uvars, {tuple(1 if i == d1 + 1 + k else 0 for i in range(n)) + (k,): 1
                           for k in range(d2 + 1)})
    return f, g, uvars


# -- sylvester oracle ------------------------------------------------------------


def test_sylvester_of_a_linear_pair_is_the_two_by_two_determinant():
    vs = ("a0", "a1", "b0", "b1", "x")
    f = poly_from_text("1 * a0 + 1 * a1 * x", vs)
    g = poly_from_text("1 * b0 + 1 * b1 * x", vs)
    assert sylvester_resultant(f, g, "x") == poly_from_text(
        "1 * a0 * b1 + -1 * a1 * b0", vs)


def test_sylvester_detects_a_shared_root():
    vs = ("x",)
    f = poly_from_text("1 * x^2 + -1", vs)
    assert sylvester_resultant(f, poly_from_text("1 * x + -1", vs), "x").is_zero()
    assert not sylvester_resultant(f, poly_from_text("1 * x + -2", vs), "x").is_zero()


def test_sylvester_rejects_degenerate_input():
    vs = ("a", "x")
    f = poly_from_text("1 * a * x", vs)
    with pytest.raises(InputError):
        sylvester_resultant(f, SparsePoly.zero(vs), "x")
    with pytest.raises(InputError):
        sylvester_resultant(f, poly_from_text("1 * a", vs), "x")
    with pytest.raises(InputError):
        sylvester_resultant(f, f, "y")


@given(st.lists(st.integers(-4, 4), min_size=2, max_size=3),
       st.lists(st.integers(-4, 4), min_size=2, max_size=3),
       st.lists(st.integers(-4, 4), min_size=2, max_size=3))
@settings(max_examples=25, deadline=None)
def test_sylvester_is_multiplicative_in_the_second_slot(ca, cb, cc):
    """|Res(f, g*h)| = |Res(f, g)| * |Res(f, h)| for constant coefficients."""
    vs = ("x",)

    def mk(cs):
        return SparsePoly(vs, {(k,): c for k, c in enumerate(cs[:-1] + [cs[-1] or 1])})

    f, g, h = mk(ca), mk(cb), mk(cc)
    lhs = constant_value(sylvester_resultant(f, g * h, "x"))
    rhs = constant_value(sylvester_resultant(f, g, "x") * sylvester_resultant(f, h, "x"))
    assert abs(Fraction(lhs)) == abs(Fraction(rhs))


# -- determinants of based complexes ----------------------------------------------


def two_by_two():
    vm = ("p", "q")
    m = PolyMatrix.from_rows(
        [[poly_from_text("1 * p", vm), poly_from_text("1", vm)],
         [poly_from_text("1", vm), poly_from_text("1 * q", vm)]], vm)
    return vm, m


def test_two_term_square_determinant_is_the_plain_determinant():
    vm, m = two_by_two()
    W = on_the_line({-1: m})
    assert W.diff_at(-1) == m
    assert same_up_to_sign(determinant_of_complex(W), m.det())


def test_determinant_takes_only_a_weyman_complex():
    """A plain dict of matrices and a complex not yet pushed down are both
    refused; hand-made matrices go through on_the_line."""
    vm, m = two_by_two()
    K = koszul_generic(linear3_problem())
    for bad in ({-1: m}, K, m):
        with pytest.raises(InputError, match="not a WeymanComplex"):
            determinant_of_complex(bad)


def test_determinant_unchanged_by_an_invertible_split_summand():
    """Padding with an identity pair in adjacent degrees keeps the determinant."""
    vm, m = two_by_two()
    zero = SparsePoly.zero(vm)
    one = SparsePoly.const(vm, 1)
    head = PolyMatrix.from_rows([[one, zero, zero]], vm)
    body = PolyMatrix.from_rows([[zero, zero], list(m.rows[0]), list(m.rows[1])], vm)
    padded = determinant_of_complex(on_the_line({-2: head, -1: body}))
    assert same_up_to_sign(padded, m.det())


def test_determinant_is_seed_independent_up_to_sign(monkeypatch):
    """At the anticanonical class (3,) the complex has four terms, so each
    draw chooses the rows and columns of three minors; the default twist
    gives a 1x1 complex, with nothing to choose."""
    prob = linear3_problem()
    K = koszul_generic(prob)
    W = weyman_differential(K.twist((3,)))
    draw = resultant._rand_assign
    points = []

    def drawn(pv, rng):
        points.append(draw(pv, rng))
        return points[-1]

    monkeypatch.setattr(resultant, "_rand_assign", drawn)
    a = determinant_of_complex(W)
    other = random.Random(7)
    monkeypatch.setattr(resultant, "_rand_assign", lambda pv, rng: drawn(pv, other))
    b = determinant_of_complex(W)
    assert len(points) == 2 and points[0] != points[1]
    assert same_up_to_sign(primitive_part(a), primitive_part(b))


def greedy_rows_over_q(rows, cols, need):
    """Reference for _row_profile: the first rows that raise the rank over Q
    of the restriction to cols, ranked by QMatrix."""
    chosen = []
    for rn, row in enumerate(rows):
        trial = chosen + [rn]
        m = QMatrix(len(trial), len(cols),
                    [{j: rows[r].get(c, 0) for j, c in enumerate(cols)} for r in trial])
        if m.rank() == len(trial):
            chosen = trial
            if len(chosen) == need:
                return chosen
    return None if need else []


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_modular_row_profile_picks_rows_of_full_rank_over_q(seed):
    """Random integer rows, some planted as combinations of up to three
    drawn rows with coefficients +-1, +-2.  Entries stay at most 30 on at
    most 8 columns, so every minor is below (30 * 8 ** 0.5) ** 8 < 2 ** 61 - 1
    in absolute value: a minor is zero mod FIRST_PRIME only if it is zero,
    and the modular profile must pick exactly the greedy rows over Q."""
    rng = random.Random(seed)
    ncols = rng.randint(1, 8)
    drawn: list[list[int]] = []
    rows = []
    for _ in range(rng.randint(1, 10)):
        if drawn and rng.random() < 0.4:
            picks = [(rng.choice((-2, -1, 1, 2)), r) for r in
                     rng.sample(drawn, min(len(drawn), rng.randint(1, 3)))]
            dense = [sum(c * r[j] for c, r in picks) for j in range(ncols)]
        else:
            dense = [rng.randint(-5, 5) if rng.random() < 0.6 else 0
                     for _ in range(ncols)]
            drawn.append(dense)
        rows.append({j: v for j, v in enumerate(dense) if v})
    cols = sorted(rng.sample(range(ncols), rng.randint(1, ncols)))
    full = QMatrix(len(rows), len(cols),
                   [{j: r.get(c, 0) for j, c in enumerate(cols)} for r in rows]).rank()
    for need in (full, full + 1):
        got = resultant._row_profile(rows, cols, need)
        assert got == greedy_rows_over_q(rows, cols, need)
        if got is not None:
            picked = QMatrix(len(got), len(cols),
                             [{j: rows[r].get(c, 0) for j, c in enumerate(cols)}
                              for r in got])
            assert len(got) == need == picked.rank()


def delta_hash(out) -> str:
    return hashlib.sha256(poly_to_text(out.delta).encode()).hexdigest()[:16]


def test_a_bad_draw_is_detected_and_drawn_again(monkeypatch):
    """The zero point lowers every rank mod p, so it fails the proof of
    the index subsets; one fresh draw gives the pinned resultant, and two
    bad draws raise MathFailure."""
    draw = resultant._rand_assign
    prob = sturmfels_problem()
    calls = []

    def zero_first(pv, rng):
        calls.append(draw(pv, rng))
        return dict.fromkeys(pv, 0) if len(calls) == 1 else calls[-1]

    monkeypatch.setattr(resultant, "_rand_assign", zero_first)
    out = a_resultant(prob)
    assert delta_hash(out) == "9c93f61499ad08e3"
    assert len(calls) == 2
    monkeypatch.setattr(resultant, "_rand_assign",
                        lambda pv, rng: dict.fromkeys(pv, 0))
    K = koszul_generic(prob)
    W = weyman_differential(K.twist(resolve_twist(K, "default")))
    with pytest.raises(MathFailure, match="homology"):
        determinant_of_complex(W)
    with pytest.raises(MathFailure) as err:
        a_resultant(prob)
    assert "homology" in str(err.value.__cause__)


def test_a_coefficient_that_is_not_an_int_is_refused_at_the_boundary():
    """The coefficients are integers wherever a polynomial exists:
    SparsePoly refuses a Fraction where it is built, so neither a matrix
    entry for weyman_differential nor a form to implicitize holds one."""
    with pytest.raises(InputError, match="not an int"):
        SparsePoly(("p",), {(1,): Fraction(1, 2)})
    with pytest.raises(InputError, match="not an int"):
        SparsePoly(LINE, {(2, 0): Fraction(1, 2)})


def test_first_prime_is_the_prime_2_61_minus_1():
    assert resultant.FIRST_PRIME == 2**61 - 1
    assert pytest.importorskip("sympy").isprime(resultant.FIRST_PRIME)


def test_the_pipeline_takes_no_rational_rank(monkeypatch):
    """The pipeline's ranks come from the Smith form (lattices), the family
    reducer _reduce_block (Cech families) and the profile mod p
    (Cayley subsets); QMatrix is a test reference only."""
    def refuse(self):
        raise AssertionError("QMatrix.rank called")

    monkeypatch.setattr(QMatrix, "rank", refuse)
    out = a_resultant(sturmfels_problem())
    assert delta_hash(out) == "9c93f61499ad08e3"


def test_determinant_rejects_a_complex_with_homology():
    vm = ("p", "q")
    p = poly_from_text("1 * p", vm)
    q = poly_from_text("1 * q", vm)
    m = PolyMatrix.from_rows([[p, q], [p, q]], vm)
    with pytest.raises(ExactnessFailure, match="homology"):
        determinant_of_complex(on_the_line({-1: m}))


# -- the resultant pipeline --------------------------------------------------------


def test_binomial_resultant_for_two_point_supports():
    prob = univariate_problem(1, 1)
    out = a_resultant(prob)
    labs = prob.all_labels()
    expect = SparsePoly(tuple(labs), {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1})
    assert out.multiplicity == 1
    assert same_up_to_sign(embed(out.delta, labs), expect)


def test_univariate_resultants_match_the_sylvester_oracle():
    for d1, d2 in itertools.product(range(1, 5), repeat=2):
        prob = univariate_problem(d1, d2)
        out = a_resultant(prob)
        f, g, uvars = generic_univariate_pair(prob, d1, d2)
        syl = sylvester_resultant(f, g, "x")
        assert out.multiplicity == 1, (d1, d2)
        assert same_up_to_sign(embed(out.delta, uvars), syl), (d1, d2)


@pytest.mark.parametrize("first, second", [
    ((0, 1, 2), (0, 1)),
    ((0, 2), (0, 3)),
    ((1, 3), (0, 2, 5)),
])
def test_line_supports_match_the_primitive_sylvester_resultant(first, second):
    """Sparse supports on a line whose point differences generate Z: delta
    is the primitive part of the Sylvester resultant of the generic
    polynomials, each support translated to start at 0."""
    prob = support_problem([[(k,) for k in first], [(k,) for k in second]])
    out = a_resultant(prob)
    labs = prob.all_labels()
    uvars = labs + ("x",)
    generic = []
    for sup, group in zip(prob.supports, prob.labels):
        terms = {}
        for (k,), lab in zip(sup, group):
            e = [0] * len(uvars)
            e[labs.index(lab)], e[-1] = 1, k - min(sup)[0]
            terms[tuple(e)] = 1
        generic.append(SparsePoly(uvars, terms))
    syl = primitive_part(sylvester_resultant(*generic, "x"))
    assert out.multiplicity == 1
    assert same_up_to_sign(embed(out.delta, uvars), syl)


def test_relabeled_problems_give_the_same_resultant():
    rng = random.Random(23)
    base = univariate_problem(2, 3)
    ref = a_resultant(base)
    for trial in range(5):
        labels = [[f"w{rng.randrange(10 ** 6)}_{j}_{k}" for k in range(len(sup))]
                  for j, sup in enumerate(base.supports)]
        prob = univariate_problem(2, 3, labels=labels)
        out = a_resultant(prob)
        moved = renamed(ref.delta,
                        tuple(dict(zip(base.all_labels(), prob.all_labels()))[v]
                              for v in ref.delta.vars))
        assert same_up_to_sign(embed(moved, prob.all_labels()),
                               embed(out.delta, prob.all_labels()))


def test_linear_system_resultant_is_the_coefficient_determinant():
    prob = linear3_problem()
    out = a_resultant(prob)
    labs = prob.all_labels()
    m = PolyMatrix(3, 3, labs)
    for j in range(3):
        for k in range(3):
            m.rows[j][k] = SparsePoly(
                labs, {tuple(1 if i == 3 * j + k else 0 for i in range(9)): 1})
    assert out.multiplicity == 1
    assert same_up_to_sign(embed(out.delta, labs), m.det())


SIMPLEX4 = ((0, 0, 0, 0),) + tuple(tuple(int(i == k) for i in range(4)) for k in range(4))


def test_five_linear_forms_on_p4_give_the_coefficient_determinant():
    prob = support_problem([SIMPLEX4] * 5)
    out = a_resultant(prob)
    labs = prob.all_labels()
    m = PolyMatrix(5, 5, labs)
    for j in range(5):
        for k in range(5):
            m.rows[j][k] = SparsePoly(
                labs, {tuple(1 if i == 5 * j + k else 0 for i in range(25)): 1})
    assert out.multiplicity == 1 and len(out.delta.terms) == 120
    assert same_up_to_sign(embed(out.delta, labs), m.det())


def test_a_4d_system_has_the_mixed_volumes_as_group_degrees():
    """Four linear forms and one form with the extra monomial x1^2: delta
    has degree MV(others) in each coefficient group, 2 in each of the four
    linear groups and 1 in the last."""
    prob = support_problem([SIMPLEX4] * 4 + [SIMPLEX4 + ((2, 0, 0, 0),)])
    out = a_resultant(prob)
    assert out.multiplicity == 1 and len(out.delta.terms) == 2484
    at = {v: i for i, v in enumerate(out.delta.vars)}
    degrees = [{sum(e[at[v]] for v in group) for e in out.delta.terms}
               for group in prob.labels]
    assert degrees == [{2}, {2}, {2}, {2}, {1}]


def test_incidence_samples_vanish_and_generic_samples_do_not():
    rng = random.Random(41)
    for prob in (linear3_problem(), univariate_problem(2, 2)):
        delta = a_resultant(prob).delta
        for _ in range(20):
            assert membership_test(delta, incidence_sample(prob, rng))
        for _ in range(20):
            assert not membership_test(delta, random_specialization(prob, rng))


def test_a_system_with_more_generators_than_the_cap_solves():
    """Seventeen irrelevant generators, past the old cap of sixteen on
    their number, yet no ray lies in more than five max cones: the system
    solves, and its delta vanishes at incidence samples and not at random
    specializations."""
    prob = support_problem([[(1, 0, 1), (0, 0, 0), (0, 1, 1)],
                            [(0, 1, 0), (0, 0, 0), (1, 0, 1), (1, 1, 1)],
                            [(1, 0, 1), (1, 1, 1), (0, 1, 0)],
                            [(1, 0, 0), (1, 0, 1), (0, 1, 1), (0, 0, 0)]])
    x = variety_of(prob)
    assert (len(x.max_cones), x.n_rays) == (17, 14)
    assert max(m.bit_count() for m in cech._ray_cones(x)) == 5
    out = a_resultant(prob)
    assert out.term_ranks == {-1: 10, 0: 12, 1: 2}
    rng = random.Random(3)
    for _ in range(5):
        assert membership_test(out.delta, incidence_sample(prob, rng))
    for _ in range(5):
        assert not membership_test(out.delta, random_specialization(prob, rng))


def test_membership_requires_a_full_specialization():
    prob = univariate_problem(1, 1)
    delta = a_resultant(prob).delta
    spec = incidence_sample(prob, random.Random(1))
    spec.pop(sorted(spec)[0])
    with pytest.raises(InputError):
        membership_test(delta, spec)


def test_perfect_power_multiplicity_is_extracted():
    """Supports {0,2},{0,2} on the line square the binomial resultant."""
    prob = support_problem([[(0,), (2,)], [(0,), (2,)]])
    out = a_resultant(prob)
    labs = prob.all_labels()
    root = SparsePoly(tuple(labs), {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1})
    assert out.multiplicity == 2
    assert same_up_to_sign(embed(out.root, labs), root)
    assert same_up_to_sign(embed(out.root, labs) ** 2, embed(out.delta, labs))


def _multiplicity_trying_every_k(delta):
    """resultant._multiplicity without its divisibility filter: kth_root
    for every k from the total degree down to 2."""
    for k in range(delta.total_degree(), 1, -1):
        root = kth_root(delta, k)
        if root is not None:
            return k, root
    return 1, delta


def test_multiplicity_matches_trying_every_k_on_the_fixture_deltas():
    x = variety_of(sturmfels_problem())
    runs = [(support_problem(UNIT_SQUARES), "default"),
            (support_problem([[(0,), (2,)], [(0,), (2,)]]), "default"),
            (sturmfels_problem(), sturmfels_twist(x, "unit")),
            (sturmfels_problem(), sturmfels_twist(x, "stable")),
            (m34_problem(1), "default")]
    for prob, twist in runs:
        out = a_resultant(prob, twist=twist)
        got = resultant._multiplicity(out.delta)
        assert got == _multiplicity_trying_every_k(out.delta)
        assert got[0] == out.multiplicity


@given(st.dictionaries(st.tuples(*[st.integers(min_value=0, max_value=3)] * 3),
                       st.integers(min_value=-3, max_value=3).filter(bool),
                       min_size=1, max_size=4),
       st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_multiplicity_matches_trying_every_k_on_powers(terms, k):
    delta = SparsePoly(("a", "b", "c"), terms) ** k
    assert resultant._multiplicity(delta) == _multiplicity_trying_every_k(delta)


def test_codimension_gate_rejects_deficient_supports():
    prob = support_problem([[(0,)], [(0,)]])
    with pytest.raises(MathFailure, match="codimension"):
        a_resultant(prob)


def test_the_koszul_complex_is_built_once_per_problem_instance(monkeypatch):
    """The codimension gate and the Koszul complex depend on the problem
    alone: solving one instance at two twists computes each once, and the
    gate still refuses a deficient problem on every call."""
    calls = []
    for name in ("codimension", "koszul_generic"):
        fn = getattr(resultant, name)
        monkeypatch.setattr(resultant, name,
                            lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    problem = sturmfels_problem()
    x = variety_of(problem)
    outs = [a_resultant(problem, twist=sturmfels_twist(x, which))
            for which in ("unit", "stable")]
    assert calls == ["codimension", "koszul_generic"]
    assert same_up_to_sign(outs[0].delta, outs[1].delta)
    deficient = support_problem([[(0,)], [(0,)]])
    for _ in range(2):
        with pytest.raises(MathFailure, match="codimension"):
            a_resultant(deficient)


def test_support_count_must_match_the_dimension():
    prob = support_problem([[(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (0, 1)]])
    with pytest.raises(InputError, match="supports"):
        a_resultant(prob)


@pytest.mark.parametrize("supports, labels, match", [
    ((), (), "nonempty support"),
    ((((0,), (1,)), ()), (("a", "b"), ()), "empty support"),
    ((((),), ((),)), (("a",), ("b",)), "at least one coordinate"),
    ((((0,), (1,)), ((0,), ())), (("a", "b"), ("c", "d")), "mixed dimension"),
    ((((0,), (1,)), ((0,), (1, 1))), (("a", "b"), ("c", "d")), "mixed dimension"),
    ((((0,), (0,)), ((0,), (1,))), (("a", "b"), ("c", "d")), "repeated point"),
    ((((0,), (1,)), ((0,), (1,))), (("a", "b"), ("a", "d")), "duplicate"),
    ((((0,), (1,)), ((0,), (1,))), (("a",), ("c", "d")), "label shape"),
    ((((0,), (1,)), ((0,), (1,))), None, None),
    ((((0,), (1,)), ((0,), (1,))), ("ab", "cd"), "not a string"),
])
def test_a_problem_built_directly_is_checked_at_the_boundary(supports, labels, match):
    """A SupportProblem built directly is checked where it is built, as one
    from support_problem is, so a malformed problem raises InputError before
    any stage sees it, not an IndexError or a wrong delta.  Labels None get
    the default labels."""
    if match is None:
        problem = SupportProblem(supports=supports, labels=labels)
        assert problem == support_problem(supports)
        assert problem.labels == (("a0_0", "a0_1"), ("a1_0", "a1_1"))
        return
    with pytest.raises(InputError, match=match):
        SupportProblem(supports=supports, labels=labels)


def test_resultant_does_not_depend_on_the_twist():
    """Three unit squares: shapes change with the twist, the determinant not."""
    sq = [(0, 0), (1, 0), (0, 1), (1, 1)]
    prob = support_problem([list(sq)] * 3)
    ref = a_resultant(prob)
    assert ref.delta.total_degree() == 6
    two_a = tuple(2 * c for c in variety_of(prob).anticanonical_class())
    for tw in (two_a, (-1, 2), (3, -1)):
        out = a_resultant(prob, twist=tw)
        if tw == two_a:
            assert out.term_ranks != ref.term_ranks
        assert same_up_to_sign(embed(out.delta, ref.delta.vars), ref.delta)


UNIT_SQUARES = [[(0, 0), (1, 0), (0, 1), (1, 1)]] * 3

DEFAULT_TWIST_CASES = {
    **{f"uni{d1}{d2}": [[(k,) for k in range(d1 + 1)], [(k,) for k in range(d2 + 1)]]
       for d1, d2 in itertools.product(range(1, 5), repeat=2)},
    "linear3": linear3_problem().supports,
    "squares": UNIT_SQUARES,
    "power": [[(0,), (2,)], [(0,), (2,)]],
}


def test_non_integer_twist_is_an_input_error():
    prob = support_problem([[(0,), (1,)], [(0,), (1,)]])
    K = koszul_generic(prob)
    for bad in ([0.9], ["a"], [None], 3, None):
        with pytest.raises(InputError, match="twist"):
            resolve_twist(K, bad)
    assert resolve_twist(K, [True]) == (1,)


def test_default_twist_is_the_zero_class():
    """No candidate is scored: the default is the zero class on every
    variety, Sturmfels included, where A gives a two-term complex."""
    for prob in (support_problem(UNIT_SQUARES), sturmfels_problem(), m33_problem(),
                 m34_problem(1), m34_problem(2), m34_problem(3)):
        K = koszul_generic(prob)
        assert resolve_twist(K, "default") == (0,) * K.x.class_rank


def minor_term_counts(prob, out) -> list[tuple[int, int]]:
    """(size, terms of its determinant) for each Cayley minor of out,
    largest first."""
    W = weyman_differential(koszul_generic(prob).twist(out.twist))
    return sorted(((len(s["cols"]),
                    len(W.diff_at(i).submatrix(s["rows"], s["cols"]).det().terms))
                   for i, s in out.subsets.items()), reverse=True)


@pytest.mark.parametrize("make", [lambda: support_problem(UNIT_SQUARES), linear3_problem,
                                  m33_problem, lambda: m34_problem(1), sturmfels_problem],
                         ids=["squares", "linear3", "m33", "m34 k=1", "sturmfels"])
def test_default_twist_has_no_extraneous_factor(make):
    """At the zero twist every Cayley minor but the largest has a monomial
    determinant, so the largest expands to exactly delta's terms: on
    Sturmfels a 19x19 minor expands to the eliminant's 20 terms beside a
    2x2 minor."""
    prob = make()
    out = a_resultant(prob)
    (_, largest), *rest = minor_term_counts(prob, out)
    assert largest == len(out.delta.terms)
    assert all(terms == 1 for _, terms in rest)


def test_squares_at_the_anticanonical_class_has_an_extraneous_factor():
    """At A the 3x3 minor of three unit squares has a two-term determinant,
    which the 9x9 minor carries as an extraneous factor."""
    prob = support_problem(UNIT_SQUARES)
    out = a_resultant(prob, twist=variety_of(prob).anticanonical_class())
    assert minor_term_counts(prob, out) == [(9, 116), (3, 2)]
    assert len(out.delta.terms) == 66


@pytest.mark.parametrize("name", sorted(DEFAULT_TWIST_CASES))
def test_default_twist_matches_twice_the_anticanonical_class(name):
    """The default twist gives 2A's delta and multiplicity."""
    prob = support_problem(DEFAULT_TWIST_CASES[name])
    two_a = tuple(2 * c for c in variety_of(prob).anticanonical_class())
    old = a_resultant(prob, twist=two_a)
    new = a_resultant(prob)
    assert poly_to_text(new.delta) == poly_to_text(old.delta)
    assert new.multiplicity == old.multiplicity


def test_resultant_output_serializes():
    out = a_resultant(univariate_problem(1, 2))
    obj = out.to_obj()
    assert obj["multiplicity"] == 1
    assert set(obj) >= {"delta", "root", "e1", "term_ranks", "twist",
                        "index_subsets"}
    back = poly_from_text(obj["delta"], tuple(obj["coefficients"]))
    assert back == renamed(out.delta, tuple(obj["coefficients"]))


# -- printed fixtures ---------------------------------------------------------------


def test_sturmfels_resultant_equals_the_printed_eliminant():
    prob = sturmfels_problem()
    x = variety_of(prob)
    out = a_resultant(prob, twist=sturmfels_twist(x, "unit"))
    assert out.multiplicity == 1
    assert {i: n for i, n in out.term_ranks.items()} == {-1: 15, 0: 15}
    eli = sturmfels_eliminant()
    assert same_up_to_sign(embed(out.delta, eli.vars), eli)


def test_stable_twist_gives_the_same_determinant():
    prob = sturmfels_problem()
    x = variety_of(prob)
    out = a_resultant(prob, twist=sturmfels_twist(x, "stable"))
    assert out.term_ranks == {-2: 4, -1: 27, 0: 23}
    eli = sturmfels_eliminant()
    assert same_up_to_sign(embed(out.delta, eli.vars), eli)


def _permutation_sign(p) -> int:
    inversions = sum(a > b for a, b in itertools.combinations(p, 2))
    return -1 if inversions % 2 else 1


def test_permuting_the_stable_twist_cayley_minor_changes_only_the_sign():
    """The 23x23 minor of the Sturmfels stable twist, its rows and columns
    shuffled: the pivots and the rows that skip steps change, the
    determinant only by the signs of the two permutations."""
    prob = sturmfels_problem()
    x = variety_of(prob)
    tw = sturmfels_twist(x, "stable")
    out = a_resultant(prob, twist=tw)
    W = weyman_differential(koszul_generic(prob).twist(tw))
    [(i, sub)] = [(i, s) for i, s in out.subsets.items() if len(s["cols"]) == 23]
    minor = W.diff_at(i).submatrix(sub["rows"], sub["cols"])
    ref = minor.det()
    assert not ref.is_zero()
    rng = random.Random(23)
    for _ in range(4):
        rp, cp = rng.sample(range(23), 23), rng.sample(range(23), 23)
        shuffled = PolyMatrix.from_rows([[minor.rows[r][c] for c in cp] for r in rp],
                                        minor.vars)
        sign = _permutation_sign(rp) * _permutation_sign(cp)
        assert shuffled.det() == (ref if sign > 0 else -ref)


# sha256 prefix of poly_to_text(delta) at the default twist, and multiplicity
DELTA_PINS = {
    "squares": ("e5c29648953b1bf6", 1),
    "m33": ("b6b0a8107ab89b2c", 14),
    "m34 k=1": ("7c07cece59af03c3", 1),
    "m34 k=2": ("ed11df8f4a31806c", 1),
    "sturmfels": ("9c93f61499ad08e3", 1),
}


@pytest.fixture(scope="module")
def pinned_runs():
    """Each DELTA_PINS fixture with its output at the default twist, solved
    once for the module."""
    problems = {"squares": support_problem(UNIT_SQUARES), "m33": m33_problem(),
                "m34 k=1": m34_problem(1), "m34 k=2": m34_problem(2),
                "sturmfels": sturmfels_problem()}
    return {name: (prob, a_resultant(prob)) for name, prob in problems.items()}


def test_delta_hashes_match_their_pins(pinned_runs):
    for name, (_, out) in pinned_runs.items():
        assert (delta_hash(out), out.multiplicity) == DELTA_PINS[name], name


def test_delta_initial_terms_are_the_mixed_cell_monomials(pinned_runs):
    """Under a generic lifting omega, delta has one omega-minimal term: the
    product of c_{i,a}^vol over the mixed cells, with coefficient +-1
    (Sturmfels 1994, Thm. 2.1).  At M33 the exponent carries the power 14
    of delta = root^14."""
    assert set(pinned_runs) == set(DELTA_PINS)
    rng = random.Random(1994)
    for name, (prob, out) in pinned_runs.items():
        delta = out.delta
        for _ in range(2):
            omega, exps, _ = generic_initial_monomial(prob, rng)
            weights = [omega[v] for v in delta.vars]

            def weight(e):
                return sum(w * k for w, k in zip(weights, e))

            low = min(map(weight, delta.terms))
            [(e, c)] = [(e, c) for e, c in delta.terms.items() if weight(e) == low]
            assert {v: k for v, k in zip(delta.vars, e) if k} == exps, name
            assert c in (1, -1), name


def test_m34_degrees_from_mixed_cells(pinned_runs):
    """The mixed-cell group degrees: at k = 2 those of the expanded delta,
    at k = 3 and k = 8 pinned without expanding."""
    rng = random.Random(34)
    prob, out = pinned_runs["m34 k=2"]
    at = {v: n for n, v in enumerate(out.delta.vars)}
    expanded = [{sum(e[at[v]] for v in group if v in at) for e in out.delta.terms}
                for group in prob.labels]
    assert expanded == [{17}, {37}, {12}]
    assert generic_initial_monomial(prob, rng)[2] == (17, 37, 12)
    assert generic_initial_monomial(m34_problem(3), rng)[2] == (30, 48, 24)
    assert generic_initial_monomial(m34_problem(8), rng)[2] == (95, 120, 168)


def test_a_tied_lifting_is_refused_and_never_misleads():
    """Small liftings tie often at M34 k = 2.  Every one of them either
    raises NonGenericLifting or gives the right degrees."""
    prob = m34_problem(2)
    rng = random.Random(9)
    ties = 0
    for _ in range(200):
        omega = {lab: rng.randint(1, 9) for lab in prob.all_labels()}
        try:
            assert initial_monomial(prob, omega)[1] == (17, 37, 12)
        except NonGenericLifting:
            ties += 1
    assert ties
    squares = support_problem(UNIT_SQUARES)
    with pytest.raises(NonGenericLifting):
        initial_monomial(squares, dict.fromkeys(squares.all_labels(), 1))


# sha256 prefix of json.dumps(out.to_obj(), sort_keys=True): delta, root,
# multiplicity, E1 page, term ranks, twist and index subsets
OUTPUT_PINS = {
    "sturmfels unit": "9067482e84e5fb76",
    "sturmfels stable": "657eac72283ac036",
    "m33 zero": "c30f6dd2f5ea9dd3",
}


def test_full_outputs_match_their_pins():
    prob, m33 = sturmfels_problem(), m33_problem()
    x = variety_of(prob)
    runs = {"sturmfels unit": (prob, sturmfels_twist(x, "unit")),
            "sturmfels stable": (prob, sturmfels_twist(x, "stable")),
            "m33 zero": (m33, (0,) * variety_of(m33).class_rank)}
    for name, (problem, twist) in runs.items():
        obj = a_resultant(problem, twist=twist).to_obj()
        digest = hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()
        assert digest[:16] == OUTPUT_PINS[name], name


def test_m33_eliminant_vanishes_on_incidence_samples():
    prob = m33_problem()
    h = poly_from_text(M33_ELIMINANT_TEXT, prob.all_labels())
    rng = random.Random(9)
    for _ in range(20):
        assert membership_test(h, incidence_sample(prob, rng))
    for _ in range(20):
        assert not membership_test(h, random_specialization(prob, rng))


# -- implicitization ------------------------------------------------------------------


LINE = ("s", "t")


def random_form(rng: random.Random, d: int) -> SparsePoly:
    return SparsePoly(LINE, {(d - k, k): rng.randint(-5, 5) or 1
                             for k in range(d + 1)})


def sylvester_implicitization(f0, f1, f2, d):
    """Resultant in the dehomogenized line coordinate."""
    ov = ("u", "v", "t")

    def deh(p, chart=None):
        terms = {}
        for e, c in p.terms.items():
            key = (1 if chart == "u" else 0, 1 if chart == "v" else 0, e[1])
            terms[key] = terms.get(key, 0) + c
        return SparsePoly(ov, terms)

    return primitive_part(sylvester_resultant(
        deh(f0, "u") - deh(f1), deh(f0, "v") - deh(f2), "t"))


def test_implicitization_matches_the_sylvester_oracle():
    rng = random.Random(3)
    for d in (1, 2, 3):
        f0, f1, f2 = (random_form(rng, d) for _ in range(3))
        eq = implicitize_curve(f0, f1, f2)
        oracle = sylvester_implicitization(f0, f1, f2, d)
        assert same_up_to_sign(embed(eq, oracle.vars), oracle), d


def test_implicit_equation_of_the_standard_conic():
    f0 = poly_from_text("1 * s^2", LINE)
    f1 = poly_from_text("1 * s * t", LINE)
    f2 = poly_from_text("1 * t^2", LINE)
    eq = implicitize_curve(f0, f1, f2)
    assert same_up_to_sign(eq, poly_from_text("1 * u^2 + -1 * v", eq.vars))


def test_implicit_equation_vanishes_on_the_image():
    rng = random.Random(18)
    f0, f1, f2 = (random_form(rng, 3) for _ in range(3))
    eq = implicitize_curve(f0, f1, f2)
    hits = 0
    for k in range(10):
        tv = Fraction(rng.randint(-40, 40), rng.randint(1, 9))
        point = {"s": Fraction(1), "t": tv}
        den = evaluate(f0, point)
        if not den:
            continue
        spec = {"u": Fraction(evaluate(f1, point)) / den,
                "v": Fraction(evaluate(f2, point)) / den}
        assert evaluate(eq, {w: spec.get(w, Fraction(0)) for w in eq.vars}) == 0
        hits += 1
    assert hits >= 8


def test_implicitization_keeps_free_parameters():
    vs = ("c", "s", "t")
    f0 = poly_from_text("1 * s^2", vs)
    f1 = poly_from_text("1 * t^2", vs)
    f2 = poly_from_text("1 * c * s * t", vs)
    eq = implicitize_curve(f0, f1, f2)
    assert eq.vars == ("c", "u", "v")
    assert same_up_to_sign(eq, poly_from_text("1 * c^2 * u + -1 * v^2", eq.vars))


def test_implicitization_rejects_a_common_factor():
    f0 = poly_from_text("1 * s^2", LINE)
    f1 = poly_from_text("1 * s * t", LINE)
    f2 = poly_from_text("1 * s^2 + 1 * s * t", LINE)
    with pytest.raises(MathFailure, match="common factor"):
        implicitize_curve(f0, f1, f2)


@pytest.mark.parametrize("vs, texts", [
    (LINE, ("1 * s * t", "1 * t^2", "1 * s * t + 1 * t^2")),
    (LINE, ("1 * s^2 + 1 * s * t", "1 * t^2 + 1 * s * t", "2 * s^2 + 2 * s * t")),
    (("c", "s", "t"), ("1 * s^2 + 1 * c * s * t", "1 * s * t + 1 * c * t^2",
                       "1 * s^2 + 1 * s * t + 1 * c * s * t + 1 * c * t^2")),
], ids=["t", "s+t", "s+ct"])
def test_forms_sharing_a_factor_fail_the_exactness_proof(vs, texts):
    """A common factor, here t, s + t, or s + c.t for every value of c, makes
    the direct image not generically exact; the determinant's proof says so."""
    with pytest.raises(MathFailure, match="common factor") as err:
        implicitize_curve(*(poly_from_text(text, vs) for text in texts))
    assert "homology" in str(err.value.__cause__)


def test_a_factor_shared_at_one_parameter_value_only_is_no_degeneration():
    """At c = 0 the forms s^2, c.t^2 + s.t, s.t share s; for every other c
    they are coprime, and the image is u = c.v^2 + v.  The resultant at
    c = 0 vanishes, so the equation carries the factor c."""
    vs = ("c", "s", "t")
    f0 = poly_from_text("1 * s^2", vs)
    f1 = poly_from_text("1 * c * t^2 + 1 * s * t", vs)
    f2 = poly_from_text("1 * s * t", vs)
    eq = implicitize_curve(f0, f1, f2)
    assert same_up_to_sign(eq, poly_from_text(
        "1 * c * u + -1 * c^2 * v^2 + -1 * c * v", eq.vars))
    for c, tv in itertools.product((-2, 0, Fraction(3, 5)), (-1, Fraction(1, 3), 4)):
        point = {"c": Fraction(c), "s": Fraction(1), "t": Fraction(tv)}
        den = evaluate(f0, point)
        assert evaluate(eq, {"c": point["c"], "u": Fraction(evaluate(f1, point)) / den,
                             "v": Fraction(evaluate(f2, point)) / den}) == 0


def test_implicitization_validates_its_input():
    f0 = poly_from_text("1 * s^2", LINE)
    f1 = poly_from_text("1 * s * t", LINE)
    with pytest.raises(InputError):
        implicitize_curve(f0, f1, poly_from_text("1 * t", LINE))
    with pytest.raises(InputError):
        implicitize_curve(f0, f1, SparsePoly.zero(LINE))
    with pytest.raises(InputError):
        implicitize_curve(f0, f1, renamed(f1, ("s", "u")))
    # a parameter named as a chart variable or a line coordinate repeats a
    # variable of the lifted forms
    for name in ("u", "v", "x1"):
        with pytest.raises(InputError, match="repeated variable name"):
            implicitize_curve(*(poly_from_text(text, (name, "s", "t"))
                                for text in ("1 * s^2", "1 * s * t", "1 * t^2")))
    # a name poly_to_text would print and poly_from_text refuse
    with pytest.raises(InputError, match="not all names"):
        implicitize_curve(*(poly_from_text(text, ("a b", "s", "t"))
                            for text in ("1 * s^2", "1 * s * t", "1 * t^2")))
    # a form with a negative exponent is refused where it is read
    with pytest.raises(InputError, match="bad factor token"):
        poly_from_text("1 * s^3 * t^-1", LINE)


def test_forms_over_a_repeated_variable_name_are_refused():
    """Over ("a", "a", "s", "t"), with f0 = s^2, f1 = a.s.t on the first a
    and f2 = a.t^2 on the second, the implicit equation came out as
    "1 * a^2 * u^2 + -1 * a^2 * a * v", which poly_from_text reads back as
    another polynomial.  The forms cannot be built."""
    va = ("a", "a", "s", "t")
    for e in ((0, 0, 2, 0), (1, 0, 1, 1), (0, 1, 0, 2)):
        with pytest.raises(InputError, match="repeated variable name"):
            SparsePoly(va, {e: 1})
