"""Sparse multivariate polynomials over Z, exact.

A SparsePoly is a polynomial of Z[vars]: a dict mapping exponent tuples
to nonzero int coefficients, over a tuple of distinct variable names.  Its
constructor refuses, with InputError, a coefficient whose type is not int,
an exponent of the wrong length or with an entry that is not a nonnegative
int, and a repeated variable name, so the ring holds wherever a polynomial
exists.  The Cech certificates are integral, as cech._reduce_block pivots
only on units, and every division here is exact division over Z, a
remainder meaning that the divisor does not divide.  Only qlinalg.QMatrix,
the tests' rank reference, works over Q.  Arithmetic requires equal
variable tuples.

Monomial order is degrevlex throughout: higher total degree first, ties
broken so that the last nonzero entry of the exponent difference is
negative for the larger monomial.  Serialization lists terms in descending
degrevlex and is bit-reproducible:

    poly   := "0" | term (" + " term)*
    term   := coeff | coeff (" * " factor)*
    coeff  := ["-"] digits
    factor := name | name "^" digits

Exponents are nonnegative.  Example: "2 * a^2 * c + -3 * b".

Kernel.  Exact division, the determinant, matrix products (`matmul`) and
products whose factors both have several terms run on packed monomials (a
monomial factor just adds its exponents to each term): each call packs the
exponent vectors of its operands into single ints, works on dicts
{packed monomial -> coeff} and unpacks only its result.  With n variables
and fields of w bits, variable i occupies bits i*w to i*w + w - 1 and the
packed monomial is

    low - (deg << n*w),    low = sum e_i << i*w,    deg = sum e_i.

The field width is sized from a bound on the total degree of every
monomial the call can form, so the top bit of each field (its guard) stays
clear and no carry crosses fields.  Then the product of two monomials is
one int addition, and the packed int is itself the degrevlex key negated:
a smaller int is a larger monomial, higher total degree first and, within
a degree, the smaller last exponent.  Monomial m divides monomial t exactly
when t - m borrows from no field, that is when (t - m) has no guard bit set.

Exact division keeps the remainder in a dict with a min-heap of its packed
monomials, deleted lazily: the leading remainder term is the heap top
(Monagan & Pearce, "Sparse polynomial division using a heap", J. Symbolic
Comput. 46, 2011).  `exact_div` returns None as soon as the leading
remainder term is not a multiple of the divisor's leading term, that is
when the divisor does not divide, or when the quotient would need a
negative exponent; a one-term divisor needs no heap.  The determinant
packs the nonzero entries once and runs fraction-free Bareiss elimination
on rows that hold only their nonzeros, leaving each row alone while it has
a zero in the pivot column (see `PolyMatrix.det`).
"""
from __future__ import annotations

import math
import re
from heapq import heapify, heappop, heappush
from operator import add
from typing import Mapping, Sequence

from .errors import InputError, MathFailure

Expo = tuple[int, ...]


def drl_key(exp: Expo) -> tuple:
    # sorting by this key ascending puts smaller monomials first
    return (sum(exp), tuple(-e for e in reversed(exp)))


# -- packed monomials -------------------------------------------------------------

Packed = dict[int, int]


def _top_degree(terms: Mapping[Expo, int]) -> int:
    """Largest total degree of the terms (0 if none)."""
    return max(map(sum, terms), default=0)


class _Packing:
    """Field layout of one kernel call over n variables: field width sized
    so that total degree `bound` fits below each field's guard bit."""

    __slots__ = ("shifts", "top", "low", "mask", "guards")

    def __init__(self, n: int, bound: int):
        w = bound.bit_length() + 1
        self.shifts = tuple(range(0, n * w, w))
        self.top = n * w
        self.low = (1 << self.top) - 1
        self.mask = (1 << w) - 1
        self.guards = sum(1 << (s + w - 1) for s in self.shifts)

    def pack(self, terms: Mapping[Expo, int]) -> Packed:
        shifts, top = self.shifts, self.top
        out: Packed = {}
        for e, c in terms.items():
            low = 0
            for x, s in zip(e, shifts):
                low |= x << s
            out[low - (sum(e) << top)] = c
        return out

    def unpack(self, packed: Packed) -> dict[Expo, int]:
        shifts, low, mask = self.shifts, self.low, self.mask
        out: dict[Expo, int] = {}
        for m, c in packed.items():
            m &= low
            out[tuple((m >> s) & mask for s in shifts)] = c
        return out


def _addmul(out: Packed, a: Packed, b: Packed, sign: int) -> None:
    """out += sign * a * b; cancelled terms stay in out as zeros."""
    if len(a) > len(b):
        a, b = b, a
    items = list(b.items())
    get = out.get
    for ma, ca in a.items():
        if sign < 0:
            ca = -ca
        for mb, cb in items:
            m = ma + mb
            out[m] = get(m, 0) + ca * cb


def _nonzero(p: Packed) -> Packed:
    return {m: c for m, c in p.items() if c}


def _exact_div(a: Packed, d: Packed, guards: int) -> Packed | None:
    """Quotient a/d, or None when d does not divide a: a quotient term
    would need a negative exponent or a coefficient that leaves a
    remainder over Z.

    The remainder's monomials sit in a min-heap, so its top is the leading
    term; a monomial cancelled to zero leaves a stale heap entry that is
    skipped when popped.  A one-term divisor leaves no remainder: each
    nonzero term is shifted and divided on its own."""
    if len(d) == 1:
        [(lead, lc)] = d.items()
        q: Packed = {}
        for m, c in a.items():
            if c:
                t = m - lead
                tc, r = divmod(c, lc)
                if r or t & guards:
                    return None
                q[t] = tc
        return q
    lead = min(d)
    lc = d[lead]
    rest = [(m - lead, c) for m, c in d.items() if m != lead]
    rem = dict(a)
    heap = list(rem)
    heapify(heap)
    q: Packed = {}
    # each step removes the leading remainder term; new terms are smaller
    while heap:
        m = heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue
        t = m - lead
        tc, r = divmod(c, lc)
        if r or t & guards:
            return None
        q[t] = tc
        for dm, dc in rest:
            mm = m + dm
            s = rem.get(mm)
            if s is None:
                rem[mm] = -tc * dc
                heappush(heap, mm)
            else:
                s -= tc * dc
                if s:
                    rem[mm] = s
                else:
                    del rem[mm]
    return q


class SparsePoly:
    """Immutable-by-convention sparse polynomial of Z[variables]."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Expo, int]):
        self.vars: tuple[str, ...] = tuple(variables)
        n = len(self.vars)
        if len(set(self.vars)) != n:
            raise InputError(f"repeated variable name in {self.vars}")
        self.terms: dict[Expo, int] = {}
        for e, c in terms.items():
            e = tuple(e)
            if type(c) is not int:
                raise InputError(f"coefficient {c!r} of {e} is not an int")
            if len(e) != n or not all(type(v) is int and v >= 0 for v in e):
                raise InputError(f"exponent {e} is not a monomial of {self.vars}")
            if c:
                self.terms[e] = c

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], c: int) -> "SparsePoly":
        z: Expo = (0,) * len(variables)
        return cls(variables, {z: c})

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Expo, c: int = 1) -> "SparsePoly":
        return cls(variables, {tuple(exp): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def leading(self) -> tuple[Expo, int]:
        """Leading (exponent, coeff) under degrevlex."""
        if not self.terms:
            raise InputError("zero polynomial has no leading term")
        e = max(self.terms, key=drl_key)
        return e, self.terms[e]

    def num_terms(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Expo, int]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=drl_key, reverse=True)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        try:
            return f"SparsePoly({poly_to_text(self)!r})"
        except InputError:
            return f"SparsePoly({self.vars!r}, {self.terms!r})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise InputError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __add__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = t.get(e, 0) + c
            if s:
                t[e] = s
            elif e in t:
                del t[e]
        return SparsePoly(self.vars, t)

    def __neg__(self) -> "SparsePoly":
        return SparsePoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePoly") -> "SparsePoly":
        return self + (-other)

    def __mul__(self, other: "SparsePoly") -> "SparsePoly":
        self._check(other)
        if not self.terms or not other.terms:
            return SparsePoly.zero(self.vars)
        a, b = self.terms, other.terms
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # a monomial times b: the products are distinct, nothing to collect
            [(ea, ca)] = a.items()
            return SparsePoly(self.vars, {tuple(map(add, ea, e)): ca * c
                                          for e, c in b.items()})
        pk = _Packing(len(self.vars), _top_degree(a) + _top_degree(b))
        out: Packed = {}
        _addmul(out, pk.pack(a), pk.pack(b), 1)
        return SparsePoly(self.vars, pk.unpack(_nonzero(out)))

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise InputError("negative power")
        result = SparsePoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- division ----------------------------------------------------------

    def exact_div(self, d: "SparsePoly") -> "SparsePoly | None":
        """Exact quotient self/d over Z, or None when d does not divide self
        with integer coefficients or the quotient would need a negative
        exponent."""
        self._check(d)
        if not d.terms:
            raise InputError("division by zero polynomial")
        if not self.terms:
            return SparsePoly.zero(self.vars)
        a, b = self.terms, d.terms
        pk = _Packing(len(self.vars), max(_top_degree(a), _top_degree(b)))
        q = _exact_div(pk.pack(a), pk.pack(b), pk.guards)
        return None if q is None else SparsePoly(self.vars, pk.unpack(q))


# -- content and normalization ---------------------------------------------

def content_unit(p: SparsePoly) -> int:
    """The signed content u of p: the gcd of its coefficients, negated when
    the leading (degrevlex) coefficient is negative, so that p/u is
    primitive with a positive leading coefficient.  Zero polynomial gives 1."""
    if not p.terms:
        return 1
    g = math.gcd(*p.terms.values())
    return -g if p.leading()[1] < 0 else g


def primitive_part(p: SparsePoly) -> SparsePoly:
    """p / content_unit(p): primitive, with a positive leading coefficient.
    An input that is already so is returned itself, not copied."""
    u = content_unit(p)
    return p if u == 1 else SparsePoly(p.vars, {e: c // u for e, c in p.terms.items()})


# -- integer k-th roots ------------------------------------------------------

def _int_kth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 2:
        return n
    if k == 2:
        r = math.isqrt(n)
    else:
        # integer Newton from above: 2^ceil(bits/k) >= n^(1/k), and each
        # step decreases until it reaches floor(n^(1/k))
        r = 1 << -(-n.bit_length() // k)
        while True:
            s = ((k - 1) * r + n // r ** (k - 1)) // k
            if s >= r:
                break
            r = s
    return r if r ** k == n else None


def kth_root(p: SparsePoly, k: int) -> SparsePoly | None:
    """Exact polynomial q with q**k == p, or None.

    Peels leading terms under degrevlex: the leading term of q is the k-th
    root of the leading term of p, and each further term t of q satisfies
    LT(p - q_partial**k) = k * LT(q)^(k-1) * t.  A final q**k == p check
    guards against non-power inputs that survive the peeling.  A k-th root
    over Q of an integer polynomial has integer coefficients (Gauss's
    lemma), so a peeled coefficient that leaves a remainder over Z means
    there is no root.
    """
    if k <= 0:
        raise InputError("k must be positive")
    if k == 1:
        return p
    if not p.terms:
        return p
    le, lc = p.leading()
    if any(x % k for x in le):
        return None
    if lc < 0 and not k % 2:
        return None
    rc = _int_kth_root(abs(lc), k)
    if rc is None:
        return None
    q = SparsePoly.monomial(p.vars, tuple(x // k for x in le), -rc if lc < 0 else rc)
    lead_pow = q ** (k - 1)
    lpe, lpc = lead_pow.leading()
    # one peeling round per term of the root; generous bail-out bound
    for _ in range(len(p.terms) * k + 16):
        r = p - q ** k
        if not r.terms:
            return q
        re_, rc_ = r.leading()
        te = tuple(a - b for a, b in zip(re_, lpe))
        if any(x < 0 for x in te):
            return None
        tc, rem = divmod(rc_, k * lpc)
        if rem:
            return None
        t = SparsePoly.monomial(p.vars, te, tc)
        if drl_key(te) >= drl_key(q.leading()[0]):
            return None
        q = q + t
    return None


# -- serialization -----------------------------------------------------------

def poly_to_text(p: SparsePoly) -> str:
    if not all(map(_is_name, p.vars)):
        raise InputError(f"variables {p.vars!r} are not all names poly_from_text reads")
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = [str(c)]
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        parts.append(" * ".join(factors))
    return " + ".join(parts)


_COEFF_RE = re.compile(r"^-?\d+$")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(\^(\d+))?$")


def _is_name(name) -> bool:
    """A variable name that poly_from_text reads back: a factor, no power."""
    m = _FACTOR_RE.fullmatch(name) if isinstance(name, str) else None
    return m is not None and not m.group(2)


def poly_from_text(text: str, variables: Sequence[str]) -> SparsePoly:
    variables = tuple(variables)
    vi = {v: i for i, v in enumerate(variables)}
    text = text.strip()
    if text == "0":
        return SparsePoly.zero(variables)
    terms: dict[Expo, int] = {}
    for raw in text.split(" + "):
        factors = [f.strip() for f in raw.strip().split("*")]
        head = factors[0]
        if not _COEFF_RE.match(head):
            raise InputError(f"bad coefficient token {head!r}: coefficients are integers")
        c = int(head)
        e = [0] * len(variables)
        for f in factors[1:]:
            m = _FACTOR_RE.match(f)
            if not m:
                raise InputError(f"bad factor token {f!r}")
            name, _, kk = m.groups()
            if name not in vi:
                raise InputError(f"unknown variable {name!r}")
            e[vi[name]] += int(kk) if kk else 1
        key = tuple(e)
        s = terms.get(key, 0) + c
        if s:
            terms[key] = s
        elif key in terms:
            del terms[key]
    return SparsePoly(variables, terms)


# -- matrices over the polynomial ring ---------------------------------------

class PolyMatrix:
    """Dense matrix of SparsePoly entries.  Row convention: vectors act on
    the left, v -> v @ M, so rows index the domain.  Given rows, every
    entry must be a SparsePoly over the matrix's own variables."""

    __slots__ = ("nrows", "ncols", "vars", "rows")

    def __init__(self, nrows: int, ncols: int, variables: Sequence[str],
                 rows: list[list[SparsePoly]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.vars = tuple(variables)
        if rows is None:
            z = SparsePoly.zero(self.vars)
            rows = [[z] * ncols for _ in range(nrows)]
        elif len(rows) != nrows or any(type(r) is not list or len(r) != ncols for r in rows):
            raise InputError(f"rows must be {nrows} lists of {ncols} entries")
        else:
            for i, r in enumerate(rows):
                for j, p in enumerate(r):
                    if not isinstance(p, SparsePoly) or p.vars != self.vars:
                        raise InputError(f"entry ({i},{j}) is not a polynomial over {self.vars}")
        self.rows = rows

    @classmethod
    def from_rows(cls, rows: list[list[SparsePoly]], variables: Sequence[str],
                  ncols: int | None = None) -> "PolyMatrix":
        n = len(rows)
        m = ncols if ncols is not None else (len(rows[0]) if rows else 0)
        return cls(n, m, variables, [list(r) for r in rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (self.nrows, self.ncols, self.vars) == (other.nrows, other.ncols, other.vars) \
            and self.rows == other.rows

    def is_zero(self) -> bool:
        return all(not p for row in self.rows for p in row)

    def submatrix(self, rows: Sequence[int], cols: Sequence[int]) -> "PolyMatrix":
        """The entries at the given row and column positions, in that order."""
        return PolyMatrix(len(rows), len(cols), self.vars,
                          [[self.rows[r][c] for c in cols] for r in rows])

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        """The product self * other, each entry sum_k a_ik * b_kj.

        Both operands are packed once; every product a_ik * b_kj has degree
        at most the sum of the two matrices' largest top degrees, the
        packing bound.  Each output entry is accumulated packed and
        unpacked once."""
        if self.ncols != other.nrows:
            raise InputError("shape mismatch")
        if self.vars != other.vars and any(
                p and q for row in self.rows for p, brow in zip(row, other.rows) for q in brow):
            raise InputError(f"variable mismatch: {self.vars} vs {other.vars}")
        out = PolyMatrix(self.nrows, other.ncols, self.vars)

        def top(m: PolyMatrix) -> int:
            return max((_top_degree(p.terms) for row in m.rows for p in row), default=0)

        pk = _Packing(len(self.vars), top(self) + top(other))
        a = [[(k, pk.pack(p.terms)) for k, p in enumerate(row) if p] for row in self.rows]
        b = [[pk.pack(p.terms) for p in row] for row in other.rows]
        for i, arow in enumerate(a):
            for j in range(other.ncols):
                s: Packed = {}
                for k, p in arow:
                    q = b[k][j]
                    if q:
                        _addmul(s, p, q, 1)
                s = _nonzero(s)
                if s:
                    out.rows[i][j] = SparsePoly(self.vars, pk.unpack(s))
        return out

    @classmethod
    def from_text(cls, cells: list[list[str]], variables: Sequence[str]) -> "PolyMatrix":
        rows = [[poly_from_text(s, variables) for s in row] for row in cells]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, variables, rows)

    def det(self) -> SparsePoly:
        """Sparse fraction-free (Bareiss) determinant with lazy rows.

        Step k of Bareiss elimination brings every row below the pivot
        from level k to level k + 1:

            a_ij <- (a_ij * p_k - a_ik * a_kj) / p_(k-1),    p_(-1) = 1,

        and then a_ij is the minor on rows 0..k, i and columns 0..k, j.  A
        row with a_ik = 0 would only be scaled by p_k / p_(k-1).  Such a
        row is left as it is, and it records the pivot p_(s-1) it was last
        brought up to (None for 1).  Its skipped scalings telescope: from
        step s to step t they multiply to p_(t-1) / p_(s-1).  So when the
        row next meets a nonzero in the pivot column, at step t, it takes
        the Bareiss step with its stored entries and divides by its own
        recorded pivot p_(s-1) instead of p_(t-1); the result is the same
        level-(t+1) minor.  The pivot row itself, which at the last step
        is the last diagonal entry, is first brought up to date: each
        entry times p_(t-1), divided by its recorded pivot.

        Each row is a dict {column: packed entry} of its nonzeros, so a
        step visits only the nonzeros of the active rows and a zero is
        never packed.  A count per column of its nonzeros in the active
        rows is kept as the pivot row leaves them, as fill appears and as
        entries cancel.  The pivot is the nonzero entry of the active
        submatrix with the smallest len(a_ij) * ((r_i - 1) * (c_j - 1) + 1),
        r_i and c_j the nonzero counts of its row and column there
        (Markowitz's fill count, weighted by term count), ties to the
        smaller position (i, j).  Rows and column positions are swapped
        into place, each swap flipping the sign.

        The entries are packed once.  Every stored entry, lazy or not, is
        a minor of the matrix, so its degree is at most B, the smaller of
        the sums of the row and of the column top degrees (a zero counts
        0); every product formed before an exact division has two such
        factors, so degree at most 2B, the packing bound."""
        n = self.nrows
        if n != self.ncols:
            raise InputError("determinant of a non-square matrix")
        if n == 0:
            return SparsePoly.const(self.vars, 1)
        nz = [{j: p.terms for j, p in enumerate(row) if p.terms} for row in self.rows]
        rtop, ctop = [0] * n, [0] * n
        count = [0] * n                     # nonzeros per column in the active rows
        for i, row in enumerate(nz):
            for j, t in row.items():
                d = _top_degree(t)
                rtop[i], ctop[j] = max(rtop[i], d), max(ctop[j], d)
                count[j] += 1
        pk = _Packing(len(self.vars), 2 * min(sum(rtop), sum(ctop)))
        guards = pk.guards

        def exact(num: Packed, d: Packed | None) -> Packed:
            if not num or d is None:
                return num
            q = _exact_div(num, d, guards)
            if q is None:
                raise MathFailure("non-exact division in fraction-free elimination")
            return q

        a = [{j: pk.pack(t) for j, t in row.items()} for row in nz]
        pos, col = list(range(n)), list(range(n))   # column -> position, position -> column
        lag: list[Packed | None] = [None] * n   # pivot each row was brought up to
        sign = 1
        prev: Packed | None = None          # the previous pivot; None is 1
        for k in range(n):
            best = None
            for i in range(k, n):
                ri = len(a[i]) - 1
                for j, p in a[i].items():
                    score = (len(p) * (ri * (count[j] - 1) + 1), i, pos[j])
                    if best is None or score < best:
                        best = score
            if best is None:
                return SparsePoly.zero(self.vars)
            _, pi, pj = best
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                lag[k], lag[pi] = lag[pi], lag[k]
                sign = -sign
            if pj != k:
                col[k], col[pj] = col[pj], col[k]
                pos[col[k]], pos[col[pj]] = k, pj
                sign = -sign
            prow = a[k]
            for j in prow:
                count[j] -= 1
            if lag[k] is not prev:
                for j, p in prow.items():
                    num: Packed = {}
                    _addmul(num, p, prev, 1)
                    prow[j] = exact(_nonzero(num), lag[k])
            piv = prow.pop(col[k])
            for i in range(k + 1, n):
                row = a[i]
                x = row.pop(col[k], None)
                if x is None:
                    continue
                new: dict[int, Packed] = {}
                for j in row.keys() | prow.keys():
                    num = {}
                    if j in row:
                        _addmul(num, row[j], piv, 1)
                    if j in prow:
                        _addmul(num, x, prow[j], -1)
                    num = exact(_nonzero(num), lag[i])
                    if num:
                        new[j] = num
                for j in row.keys() - new.keys():
                    count[j] -= 1
                for j in new.keys() - row.keys():
                    count[j] += 1
                a[i] = new
                lag[i] = piv
            prev = piv
        return SparsePoly(self.vars, pk.unpack(prev if sign > 0 else
                                               {m: -c for m, c in prev.items()}))
