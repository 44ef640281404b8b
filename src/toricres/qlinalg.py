"""Exact linear algebra: sparse matrices over Q and lattice algebra over Z.

QMatrix is the Fraction reference that tests check the pipeline against;
no pipeline stage ranks with it.  It follows the row convention used
everywhere in this package: vectors are rows and act on the left,
(v @ M)[j] = sum_i v[i] * M[i][j], so matrix composition reads left to
right along arrows.

Integer routines work on plain list-of-list matrices.  smith_normal_form
returns (D, L, R) with L @ A @ R = D, L and R unimodular and the diagonal
entries in divisibility order; int_rank and solve_int are built on top of
it, through smith_rank and solve_smith, which take a Smith form already
computed, as does smith_kernel.  Nothing here ranks modulo a prime.

The Smith form is one elimination loop.  A pivot p clears its row and
column; then a later row with an entry p does not divide is added to the
pivot row, whose clearing leaves a smaller pivot.  So p is kept only once
it divides every entry left, and each later pivot is an integer
combination of those entries: the diagonal is in divisibility order.
cofactor_det is the one determinant of the lattice code's small minors.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError

Coeff = int | Fraction
Row = dict[int, Coeff]


def cnorm(c: Coeff) -> Coeff:
    """Collapse a Fraction with denominator 1 to int."""
    if type(c) is Fraction and c.denominator == 1:   # type, not isinstance: faster on ints
        return int(c)
    return c


class QMatrix:
    """Sparse exact matrix; rows are dicts column -> nonzero coefficient."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows: int, ncols: int,
                 rows: Sequence[Mapping[int, Coeff]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        if rows is None:
            self.rows: list[Row] = [{} for _ in range(nrows)]
        else:
            if len(rows) != nrows:
                raise InputError(f"{len(rows)} rows given for {nrows}")
            self.rows = [{j: cnorm(c) for j, c in r.items() if c} for r in rows]

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dense(cls, dense: Sequence[Sequence[Coeff]], ncols: int | None = None) -> "QMatrix":
        n = len(dense)
        m = ncols if ncols is not None else (len(dense[0]) if n else 0)
        return cls(n, m, [{j: c for j, c in enumerate(row) if c} for row in dense])

    # -- queries --------------------------------------------------------------

    def get(self, i: int, j: int) -> Coeff:
        return self.rows[i].get(j, 0)

    def set(self, i: int, j: int, c: Coeff) -> None:
        c = cnorm(c)
        if c:
            self.rows[i][j] = c
        else:
            self.rows[i].pop(j, None)

    # -- elimination ---------------------------------------------------------

    def rank(self) -> int:
        work = [dict(r) for r in self.rows if r]
        rank = 0
        while work:
            # sparsest row first keeps fill-in low
            work.sort(key=len)
            row = work.pop(0)
            if not row:
                continue
            rank += 1
            j = min(row)
            pj = Fraction(row[j])
            rest = []
            for r in work:
                if j in r:
                    f = Fraction(r[j]) / pj
                    for jj, c in row.items():
                        s = r.get(jj, 0) - f * c
                        if s:
                            r[jj] = s
                        else:
                            r.pop(jj, None)
                if r:
                    rest.append(r)
            work = rest
        return rank


# -- integer matrices ----------------------------------------------------------

IntMat = list[list[int]]


def int_rank(a: IntMat) -> int:
    """Exact rank over Q of a dense integer matrix, from its Smith form."""
    return smith_rank(smith_normal_form(a)[0])


def smith_rank(d: IntMat) -> int:
    """Rank of a from the diagonal d of its Smith form: the nonzero entries."""
    return sum(1 for i, row in enumerate(d) if i < len(row) and row[i])


def smith_normal_form(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """Smith form with transforms: returns (d, l, r) with l @ a @ r = d.

    l and r are unimodular; the diagonal of d is nonnegative with each entry
    dividing the next.
    """
    n = len(a)
    m = len(a[0]) if n else 0
    d = [row[:] for row in a]
    l = [[int(i == j) for j in range(n)] for i in range(n)]
    r = [[int(i == j) for j in range(m)] for i in range(m)]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        l[i], l[j] = l[j], l[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in r:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        d[dst] = [x + q * y for x, y in zip(d[dst], d[src])]
        l[dst] = [x + q * y for x, y in zip(l[dst], l[src])]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in r:
            row[dst] += q * row[src]

    k = 0
    while k < n and k < m:
        # locate a pivot: smallest nonzero absolute value in the remaining block
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(k, piv[0])
        swap_cols(k, piv[1])
        while True:
            if d[k][k] < 0:
                d[k], l[k] = [-x for x in d[k]], [-x for x in l[k]]
            p = d[k][k]
            dirty = False
            for i in range(k + 1, n):
                if d[i][k]:
                    q = -(d[i][k] // p)
                    add_row(k, i, q)
                    if d[i][k]:
                        swap_rows(k, i)
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(k + 1, m):
                if d[k][j]:
                    q = -(d[k][j] // p)
                    add_col(k, j, q)
                    if d[k][j]:
                        swap_cols(k, j)
                        dirty = True
                        break
            if dirty:
                continue
            # row and column clear: join a later row with an entry p does not divide
            i = next((i for i in range(k + 1, n) if any(v % p for v in d[i])), None)
            if i is None:
                break
            add_row(i, k, 1)
        k += 1
    return d, l, r


def cofactor_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a small square integer matrix, by cofactors along the
    first row; the 0x0 determinant is 1."""
    if len(rows) < 3:
        if len(rows) == 2:
            (a, b), (c, d) = rows
            return a * d - b * c
        return rows[0][0] if rows else 1
    rest = rows[1:]
    return sum((-v if j % 2 else v) * cofactor_det([r[:j] + r[j + 1:] for r in rest])
               for j, v in enumerate(rows[0]) if v)


def solve_int(a: IntMat, b: Sequence[int]) -> list[int] | None:
    """One integer solution x of a @ x = b, or None."""
    return solve_smith(smith_normal_form(a), b)


def solve_smith(snf: tuple[IntMat, IntMat, IntMat], b: Sequence[int]) -> list[int] | None:
    """solve_int from snf = smith_normal_form(a), so that one Smith form
    serves every right-hand side: l a r = d, so x = r y with d y = l b."""
    d, l, r = snf
    n, m = len(d), len(r)
    lb = [sum(l[i][j] * b[j] for j in range(n)) for i in range(n)]
    y = [0] * m
    for i in range(n):
        di = d[i][i] if i < min(n, m) else 0
        if di:
            if lb[i] % di:
                return None
            y[i] = lb[i] // di
        elif lb[i]:
            return None
    return [sum(r[i][j] * y[j] for j in range(m)) for i in range(m)]


def smith_kernel(snf: tuple[IntMat, IntMat, IntMat]) -> list[list[int]]:
    """Basis of the saturated kernel {x in Z^m : a @ x = 0}, as columns,
    from snf = smith_normal_form(a): the columns of r past the rank."""
    d, _, r = snf
    m = len(r)
    return [[r[i][j] for i in range(m)] for j in range(smith_rank(d), m)]
