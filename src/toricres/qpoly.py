"""Sparse multivariate polynomials over Q, exact.

Polynomials are dicts mapping exponent tuples to nonzero coefficients.
Coefficients are int or fractions.Fraction, normalized to int whenever the
denominator is 1 so that the common all-integer case stays on fast paths.
The variable list is part of every polynomial; arithmetic requires equal
variable tuples.

Monomial order is degrevlex throughout: higher total degree first, ties
broken so that the last nonzero entry of the exponent difference is
negative for the larger monomial.  Serialization lists terms in descending
degrevlex and is bit-reproducible:

    poly   := "0" | term (" + " term)*
    term   := coeff | coeff (" * " factor)*
    coeff  := ["-"] digits | ["-"] digits "/" digits
    factor := name | name "^" exponent

Example: "2 * a^2 * c + -1/3 * b".

Kernel.  Exact division, the determinant and products whose factors both
have several terms run on packed monomials (a monomial factor just adds its
exponents to each term): each call packs the exponent vectors of its
operands into single ints, works on dicts {packed monomial -> coeff} and
unpacks only its result.  With n variables and fields of w bits, variable i
occupies bits i*w to i*w + w - 1 and the packed monomial is

    low - (deg << n*w),    low = sum (e_i - o_i) << i*w,    deg = sum (e_i - o_i).

The offset o_i = min(0, smallest exponent of variable i among the operands)
makes every field nonnegative, so negative (Laurent) exponents pack too.
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
negative exponent.  The determinant packs the matrix once and runs
fraction-free Bareiss elimination on packed dicts.
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from heapq import heapify, heappop, heappush
from operator import add
from typing import Iterable, Mapping, Sequence

Coeff = int | Fraction
Expo = tuple[int, ...]


def cnorm(c: Coeff) -> Coeff:
    """Collapse Fractions with denominator 1 to int."""
    if isinstance(c, Fraction):
        if c.denominator == 1:
            return int(c)
        return c
    return c


def drl_key(exp: Expo) -> tuple:
    # sorting by this key ascending puts smaller monomials first
    return (sum(exp), tuple(-e for e in reversed(exp)))


# -- packed monomials -------------------------------------------------------------

Packed = dict[int, Coeff]


def _offset(n: int, polys: Iterable[Mapping[Expo, Coeff]]) -> Expo:
    """Per-variable min(0, smallest exponent) over the terms of polys."""
    off = (0,) * n
    for terms in polys:
        for e in terms:
            if min(e, default=0) < 0:
                off = tuple(map(min, off, e))
    return off


def _top_degree(terms: Mapping[Expo, Coeff], offset: Expo) -> int:
    """Largest total degree of the terms once shifted by -offset (0 if none)."""
    return max(map(sum, terms), default=sum(offset)) - sum(offset)


class _Packing:
    """Field layout of one kernel call: offset per variable and field width
    sized so that total degree `bound` fits below each field's guard bit."""

    __slots__ = ("offset", "shifts", "top", "low", "mask", "guards")

    def __init__(self, offset: Expo, bound: int):
        w = bound.bit_length() + 1
        self.offset = offset
        self.shifts = tuple(range(0, len(offset) * w, w))
        self.top = len(offset) * w
        self.low = (1 << self.top) - 1
        self.mask = (1 << w) - 1
        self.guards = sum(1 << (s + w - 1) for s in self.shifts)

    def pack(self, terms: Mapping[Expo, Coeff]) -> Packed:
        shifts, offset, top = self.shifts, self.offset, self.top
        out: Packed = {}
        for e, c in terms.items():
            low = deg = 0
            for x, o, s in zip(e, offset, shifts):
                x -= o
                low |= x << s
                deg += x
            out[low - (deg << top)] = c
        return out

    def unpack(self, packed: Packed, times: int) -> dict[Expo, Coeff]:
        """Exponent tuples of packed monomials whose offset is times*offset."""
        offset = [o * times for o in self.offset]
        shifts, low, mask = self.shifts, self.low, self.mask
        out: dict[Expo, Coeff] = {}
        for m, c in packed.items():
            m &= low
            out[tuple(((m >> s) & mask) + o for s, o in zip(shifts, offset))] = c
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


def _cdiv(a: Coeff, b: Coeff) -> Coeff:
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return cnorm(Fraction(a) / b)


def _exact_div(a: Packed, d: Packed, guards: int) -> Packed | None:
    """Quotient a/d with offset zero, or None when d does not divide a.

    The remainder's monomials sit in a min-heap, so its top is the leading
    term; a monomial cancelled to zero leaves a stale heap entry that is
    skipped when popped."""
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
        if t & guards:
            return None
        tc = _cdiv(c, lc)
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
    """Immutable-by-convention sparse polynomial."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Sequence[str], terms: Mapping[Expo, Coeff]):
        self.vars: tuple[str, ...] = tuple(variables)
        clean: dict[Expo, Coeff] = {}
        for e, c in terms.items():
            c = cnorm(c)
            if c:
                clean[tuple(e)] = c
        self.terms: dict[Expo, Coeff] = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "SparsePoly":
        return cls(variables, {})

    @classmethod
    def const(cls, variables: Sequence[str], c: Coeff) -> "SparsePoly":
        z: Expo = (0,) * len(variables)
        return cls(variables, {z: c})

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "SparsePoly":
        i = tuple(variables).index(name)
        e = [0] * len(variables)
        e[i] = 1
        return cls(variables, {tuple(e): 1})

    @classmethod
    def monomial(cls, variables: Sequence[str], exp: Expo, c: Coeff = 1) -> "SparsePoly":
        return cls(variables, {tuple(exp): c})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_value(self) -> Coeff:
        if not self.terms:
            return 0
        [(e, c)] = self.terms.items()
        if any(e):
            raise ValueError("not a constant")
        return c

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, name: str) -> int:
        if not self.terms:
            return -1
        i = self.vars.index(name)
        return max(e[i] for e in self.terms)

    def leading(self) -> tuple[Expo, Coeff]:
        """Leading (exponent, coeff) under degrevlex."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=drl_key)
        return e, self.terms[e]

    def num_terms(self) -> int:
        return len(self.terms)

    def sorted_terms(self) -> list[tuple[Expo, Coeff]]:
        return [(e, self.terms[e]) for e in sorted(self.terms, key=drl_key, reverse=True)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SparsePoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.vars, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"SparsePoly({poly_to_text(self)!r})"

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "SparsePoly") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

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

    def scale(self, c: Coeff) -> "SparsePoly":
        c = cnorm(c)
        if not c:
            return SparsePoly.zero(self.vars)
        return SparsePoly(self.vars, {e: cc * c for e, cc in self.terms.items()})

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
        off = _offset(len(self.vars), (a, b))
        pk = _Packing(off, _top_degree(a, off) + _top_degree(b, off))
        out: Packed = {}
        _addmul(out, pk.pack(a), pk.pack(b), 1)
        return SparsePoly(self.vars, pk.unpack(_nonzero(out), 2))

    def __pow__(self, n: int) -> "SparsePoly":
        if n < 0:
            raise ValueError("negative power")
        result = SparsePoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def diff(self, name: str) -> "SparsePoly":
        i = self.vars.index(name)
        out: dict[Expo, Coeff] = {}
        for e, c in self.terms.items():
            if e[i]:
                e2 = list(e)
                e2[i] -= 1
                out[tuple(e2)] = c * e[i]
        return SparsePoly(self.vars, out)

    # -- division ----------------------------------------------------------

    def exact_div(self, d: "SparsePoly") -> "SparsePoly | None":
        """Exact quotient self/d, or None when d does not divide self or the
        quotient would need a negative exponent."""
        self._check(d)
        if not d.terms:
            raise ZeroDivisionError("division by zero polynomial")
        if not self.terms:
            return SparsePoly.zero(self.vars)
        a, b = self.terms, d.terms
        off = _offset(len(self.vars), (a, b))
        pk = _Packing(off, max(_top_degree(a, off), _top_degree(b, off)))
        q = _exact_div(pk.pack(a), pk.pack(b), pk.guards)
        return None if q is None else SparsePoly(self.vars, pk.unpack(q, 0))

    # -- evaluation -------------------------------------------------------

    def eval(self, assign: Mapping[str, Coeff]) -> Coeff:
        idx = [assign[v] for v in self.vars]
        total: Coeff = 0
        for e, c in self.terms.items():
            val: Coeff = c
            for x, k in zip(idx, e):
                if k:
                    val = val * x ** k
            total = total + val
        return cnorm(Fraction(total)) if isinstance(total, Fraction) else total

    def rename(self, variables: Sequence[str]) -> "SparsePoly":
        """Same exponents, new variable names (lengths must match)."""
        if len(variables) != len(self.vars):
            raise ValueError("length mismatch")
        return SparsePoly(variables, dict(self.terms))


# -- content and normalization ---------------------------------------------

def content_unit(p: SparsePoly) -> Coeff:
    """Rational unit u with p/u primitive: integer coprime coefficients and
    positive leading (degrevlex) coefficient.  Zero polynomial gives 1."""
    if not p.terms:
        return 1
    num = 0
    den = 1
    for c in p.terms.values():
        f = Fraction(c)
        num = math.gcd(num, abs(f.numerator))
        den = den * f.denominator // math.gcd(den, f.denominator)
    u = Fraction(num, den)
    _, lc = p.leading()
    if Fraction(lc) < 0:
        u = -u
    return cnorm(u)


def primitive_part(p: SparsePoly) -> SparsePoly:
    if not p.terms:
        return p
    u = Fraction(content_unit(p))
    return SparsePoly(p.vars, {e: cnorm(Fraction(c) / u) for e, c in p.terms.items()})


def same_up_to_sign(p: SparsePoly, q: SparsePoly) -> bool:
    return p == q or p == -q


# -- integer k-th roots ------------------------------------------------------

def _int_kth_root(n: int, k: int) -> int | None:
    """Exact k-th root of n >= 0, or None."""
    if n < 2:
        return n if n >= 0 else None
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


def _coeff_kth_root(c: Coeff, k: int) -> Coeff | None:
    f = Fraction(c)
    neg = f < 0
    if neg and k % 2 == 0:
        return None
    rn = _int_kth_root(abs(f.numerator), k)
    rd = _int_kth_root(f.denominator, k)
    if rn is None or rd is None:
        return None
    r = Fraction(rn, rd)
    return cnorm(-r if neg else r)


def kth_root(p: SparsePoly, k: int) -> SparsePoly | None:
    """Exact polynomial q with q**k == p, or None.

    Peels leading terms under degrevlex: the leading term of q is the k-th
    root of the leading term of p, and each further term t of q satisfies
    LT(p - q_partial**k) = k * LT(q)^(k-1) * t.  A final q**k == p check
    guards against non-power inputs that survive the peeling.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if k == 1:
        return p
    if not p.terms:
        return p
    le, lc = p.leading()
    if any(x % k for x in le):
        return None
    rc = _coeff_kth_root(lc, k)
    if rc is None:
        return None
    q = SparsePoly.monomial(p.vars, tuple(x // k for x in le), rc)
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
        tc = cnorm(Fraction(rc_) / (k * Fraction(lpc)))
        t = SparsePoly.monomial(p.vars, te, tc)
        if drl_key(te) >= drl_key(q.leading()[0]):
            return None
        q = q + t
    return None


# -- serialization -----------------------------------------------------------

def coeff_to_text(c: Coeff) -> str:
    f = Fraction(c)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def poly_to_text(p: SparsePoly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for e, c in p.sorted_terms():
        factors = [coeff_to_text(c)]
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k:
                factors.append(f"{name}^{k}")
        parts.append(" * ".join(factors))
    return " + ".join(parts)


_COEFF_RE = re.compile(r"^-?\d+(/\d+)?$")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(\^(-?\d+))?$")


def poly_from_text(text: str, variables: Sequence[str]) -> SparsePoly:
    variables = tuple(variables)
    vi = {v: i for i, v in enumerate(variables)}
    text = text.strip()
    if text == "0":
        return SparsePoly.zero(variables)
    terms: dict[Expo, Coeff] = {}
    for raw in text.split(" + "):
        factors = [f.strip() for f in raw.strip().split("*")]
        head = factors[0]
        if not _COEFF_RE.match(head):
            raise ValueError(f"bad coefficient token {head!r}")
        c: Coeff = Fraction(head) if "/" in head else int(head)
        e = [0] * len(variables)
        for f in factors[1:]:
            m = _FACTOR_RE.match(f)
            if not m:
                raise ValueError(f"bad factor token {f!r}")
            name, _, kk = m.groups()
            if name not in vi:
                raise ValueError(f"unknown variable {name!r}")
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
    the left, v -> v @ M, so rows index the domain."""

    __slots__ = ("nrows", "ncols", "vars", "rows")

    def __init__(self, nrows: int, ncols: int, variables: Sequence[str],
                 rows: list[list[SparsePoly]] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.vars = tuple(variables)
        if rows is None:
            z = SparsePoly.zero(self.vars)
            rows = [[z] * ncols for _ in range(nrows)]
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

    def matmul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        out = PolyMatrix(self.nrows, other.ncols, self.vars)
        for i in range(self.nrows):
            for k in range(self.ncols):
                p = self.rows[i][k]
                if not p:
                    continue
                for j in range(other.ncols):
                    q = other.rows[k][j]
                    if q:
                        out.rows[i][j] = out.rows[i][j] + p * q
        return out

    def transpose(self) -> "PolyMatrix":
        out = PolyMatrix(self.ncols, self.nrows, self.vars)
        for i in range(self.nrows):
            for j in range(self.ncols):
                out.rows[j][i] = self.rows[i][j]
        return out

    def eval(self, assign: Mapping[str, Coeff]) -> list[list[Coeff]]:
        return [[p.eval(assign) for p in row] for row in self.rows]

    def to_text(self) -> list[list[str]]:
        return [[poly_to_text(p) for p in row] for row in self.rows]

    @classmethod
    def from_text(cls, cells: list[list[str]], variables: Sequence[str]) -> "PolyMatrix":
        rows = [[poly_from_text(s, variables) for s in row] for row in cells]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        return cls(n, m, variables, rows)

    def det(self) -> SparsePoly:
        """Fraction-free Bareiss determinant with sparsest-entry pivoting.

        The entries are packed once, with one offset for the whole matrix:
        that multiplies every entry by the monomial x^-offset, so the
        packed determinant carries offset n*offset.  Every intermediate
        entry is a minor of the shifted matrix, so its degree is at most B,
        the smaller of the sums of the row and of the column top degrees;
        products before the exact division have degree at most 2B."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError("determinant of a non-square matrix")
        if n == 0:
            return SparsePoly.const(self.vars, 1)
        off = _offset(len(self.vars), (p.terms for row in self.rows for p in row))
        tops = [[_top_degree(p.terms, off) for p in row] for row in self.rows]
        bound = min(sum(map(max, tops)), sum(map(max, zip(*tops))))
        pk = _Packing(off, 2 * bound)
        a = [[pk.pack(p.terms) for p in row] for row in self.rows]
        sign = 1
        prev: Packed | None = None          # the previous pivot; None is 1
        for k in range(n - 1):
            # full pivoting on the fewest-term nonzero entry
            best = None
            for i in range(k, n):
                for j in range(k, n):
                    p = a[i][j]
                    if p:
                        score = (len(p), i, j)
                        if best is None or score < best[0]:
                            best = (score, i, j)
            if best is None:
                return SparsePoly.zero(self.vars)
            _, pi, pj = best
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
                sign = -sign
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
                sign = -sign
            piv = a[k][k]
            for i in range(k + 1, n):
                row = a[i]
                for j in range(k + 1, n):
                    num: Packed = {}
                    if row[j]:
                        _addmul(num, row[j], piv, 1)
                    if row[k] and a[k][j]:
                        _addmul(num, row[k], a[k][j], -1)
                    num = _nonzero(num)
                    if num and prev is not None:
                        num = _exact_div(num, prev, pk.guards)
                        if num is None:
                            raise ArithmeticError(
                                "non-exact division in fraction-free elimination")
                    row[j] = num
                row[k] = {}
            prev = piv
        d = a[n - 1][n - 1]
        return SparsePoly(self.vars, pk.unpack(d if sign > 0 else
                                               {m: -c for m, c in d.items()}, n))
