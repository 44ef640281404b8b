from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers_reference import (
    apply_row,
    identity,
    int_det,
    int_kernel_basis,
    int_matmul,
    inverse,
    is_unimodular,
    matmul,
    to_dense,
)
from toricres.errors import InputError
from toricres.qlinalg import (
    QMatrix,
    cofactor_det,
    int_rank,
    smith_normal_form,
    solve_int,
)


def test_qmatrix_matmul_and_identity():
    a = QMatrix.from_dense([[1, 2], [0, 1]])
    b = QMatrix.from_dense([[1, 0], [Fraction(1, 2), 1]])
    assert to_dense(matmul(a, b)) == [[2, 2], [Fraction(1, 2), 1]]
    i2 = identity(2)
    assert to_dense(matmul(a, i2)) == to_dense(a)
    assert to_dense(matmul(i2, a)) == to_dense(a)


def test_apply_row_matches_matmul():
    m = QMatrix.from_dense([[1, 2, 0], [0, 0, 3]])
    v = {0: Fraction(1, 2), 1: 4}
    w = apply_row(m, v)
    assert w == {0: Fraction(1, 2), 1: 1, 2: 12}


def test_row_count_mismatch_is_an_input_error():
    with pytest.raises(InputError, match="3 rows given for 2"):
        QMatrix(2, 2, [{}, {0: 1}, {}])


def test_inverse_round_trip():
    m = QMatrix.from_dense([[2, 1], [1, 1]])
    inv = inverse(m)
    assert to_dense(matmul(m, inv)) == to_dense(identity(2))
    assert to_dense(matmul(inv, m)) == to_dense(identity(2))
    with pytest.raises(ValueError):
        inverse(QMatrix.from_dense([[1, 2], [2, 4]]))


def test_rank_examples():
    assert QMatrix.from_dense([[1, 2], [2, 4]]).rank() == 1
    assert QMatrix.from_dense([[1, 0], [0, 1]]).rank() == 2
    assert QMatrix(3, 5).rank() == 0
    assert QMatrix.from_dense([[0, 1, 0], [0, 0, 0], [1, 0, 0]]).rank() == 2


def _dense_rank(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    rank, col, m = 0, 0, len(rows[0]) if rows else 0
    while rank < len(rows) and col < m:
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


@given(st.lists(st.lists(st.integers(min_value=-6, max_value=6),
                         min_size=4, max_size=4), min_size=3, max_size=5))
@settings(max_examples=50, deadline=None)
def test_rank_property(raw):
    assert QMatrix.from_dense(raw).rank() == _dense_rank(raw)


def test_int_det():
    assert int_det([[2, 0], [0, 3]]) == 6
    assert int_det([[0, 1], [1, 0]]) == -1
    assert int_det([[1, 2], [2, 4]]) == 0
    assert int_det([[3]]) == 3


@given(st.integers(min_value=0, max_value=4).flatmap(
    lambda n: st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                                min_size=n, max_size=n), min_size=n, max_size=n)),
    st.booleans())
@settings(max_examples=80, deadline=None)
def test_cofactor_det_matches_bareiss(a, singular):
    """The lattice code's determinant against the Bareiss reference, on
    square matrices of sizes 0 to 4 (0x0 is 1); a copied row makes one
    singular."""
    if singular and len(a) > 1:
        a[-1] = list(a[0])
        assert cofactor_det(a) == 0
    assert cofactor_det(a) == int_det(a)
    if not a:
        assert cofactor_det(a) == 1


def test_smith_small():
    a = [[2, 4], [6, 8]]
    d, l, r = smith_normal_form(a)
    assert int_matmul(int_matmul(l, a), r) == d
    assert is_unimodular(l) and is_unimodular(r)
    assert [d[0][0], d[1][1]] == [2, 4]


def test_smith_rectangular_and_zero():
    a = [[0, 0, 0], [0, 0, 0]]
    d, l, r = smith_normal_form(a)
    assert int_matmul(int_matmul(l, a), r) == d
    a = [[1, 2, 3]]
    d, l, r = smith_normal_form(a)
    assert int_matmul(int_matmul(l, a), r) == d
    assert d[0][0] == 1


@given(st.lists(st.lists(st.integers(min_value=-9, max_value=9),
                         min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_smith_property(a):
    d, l, r = smith_normal_form(a)
    assert int_matmul(int_matmul(l, a), r) == d
    assert is_unimodular(l) and is_unimodular(r)
    diag = [d[i][i] for i in range(min(len(a), 3))]
    for i in range(len(diag) - 1):
        assert diag[i] >= 0
        if diag[i + 1]:
            assert diag[i] != 0 and diag[i + 1] % diag[i] == 0


def test_solve_int():
    a = [[2, 0], [0, 3]]
    assert solve_int(a, [4, 9]) == [2, 3]
    assert solve_int(a, [1, 0]) is None
    a = [[1, 1]]
    x = solve_int(a, [5])
    assert x is not None and x[0] + x[1] == 5
    assert solve_int([[0, 0]], [1]) is None


def test_kernel_basis_saturated():
    ker = int_kernel_basis([[2, 2]])
    assert len(ker) == 1
    v = ker[0]
    assert v[0] + v[1] == 0 and abs(v[0]) == 1
    ker = int_kernel_basis([[2, 0]])
    assert ker == [[0, 1]] or ker == [[0, -1]]
    assert int_kernel_basis([[1, 0], [0, 1]]) == []


@given(st.lists(st.lists(st.integers(min_value=-5, max_value=5),
                         min_size=4, max_size=4), min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_kernel_property(a):
    ker = int_kernel_basis(a)
    assert len(ker) == 4 - int_rank(a)
    for v in ker:
        assert all(sum(row[i] * v[i] for i in range(4)) == 0 for row in a)


# -- integer rank from the Smith form ------------------------------------------

entries = st.one_of(st.integers(min_value=-3, max_value=3),
                    st.sampled_from([0, 2**61 - 1, -(2**61 - 1), 2**64 + 1, 3**45]))


@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.lists(st.lists(entries, min_size=m, max_size=m), min_size=0, max_size=6)))
@settings(max_examples=150, deadline=None)
def test_int_rank_matches_fraction_reference(raw):
    assert int_rank(raw) == (_dense_rank(raw) if raw else 0)


def test_int_rank_when_the_first_prime_divides_an_invariant_factor():
    # 2^61 - 1 and the prime below it: invariant factors a rank modulo
    # either prime would miss
    p1, p2 = 2**61 - 1, 2**61 - 31
    assert int_rank([[1, 1], [1, 1 + p1]]) == 2
    assert int_rank([[p1]]) == 1
    assert int_rank([[p1 * p2]]) == 1
    assert int_rank([[p1, 0], [0, p1 * p2]]) == 2
    assert int_rank([[p1, 2 * p1], [3 * p1, 6 * p1]]) == 1
    assert int_rank([[0, 0], [0, 0]]) == 0
    assert int_rank([[0, 0, 0]]) == 0
    assert int_rank([[]]) == 0
    assert int_rank([]) == 0
