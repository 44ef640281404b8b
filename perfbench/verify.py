"""Checks of workload answers against references that the package does not compute.

The printed eliminants and cohomology tables below are copied from the
source paper's worked examples, so a change to the package (its fixtures
included) cannot move the reference along with the answer.  Polynomials
are parsed and evaluated here with plain `Fraction` arithmetic.

An answer is a plain dict built from one `ResultantOutput`:

    delta, root     {monomial: Fraction}, monomial = ((var, exp), ...) sorted
    multiplicity    int
    e1              {(p, q): rank}, nonzero entries only
    term_ranks      {degree: rank}

Each `check_*` function returns a list of problems; empty means correct.
"""
from __future__ import annotations

import random
from fractions import Fraction
from typing import Mapping, Sequence

Monomial = tuple[tuple[str, int], ...]
Poly = dict[Monomial, Fraction]

# -- printed references ----------------------------------------------------------------

STURMFELS_ELIMINANT = " + ".join([
    "1 * a1^5 * b3^7 * c1^6 * c2",
    "3 * a1^4 * a2 * b2^2 * b3^5 * c1^4 * c2^3",
    "3 * a1^3 * a2^2 * b2^4 * b3^3 * c1^2 * c2^5",
    "-13 * a1^3 * a2 * a3 * b1^2 * b2 * b3^4 * c1^5 * c2^2",
    "-7 * a1^3 * a3^2 * b1 * b2^3 * b3^3 * c1^4 * c2^3",
    "6 * a1^2 * a2^3 * b1^3 * b2 * b3^3 * c1^4 * c2^3",
    "1 * a1^2 * a2^3 * b2^6 * b3 * c2^7",
    "-1 * a1^2 * a2^2 * a3 * b1^2 * b2^3 * b3^2 * c1^3 * c2^4",
    "5 * a1^2 * a2 * a3^2 * b1^4 * b3^3 * c1^6 * c2",
    "-1 * a1^2 * a2 * a3^2 * b1 * b2^5 * b3 * c1^2 * c2^5",
    "14 * a1^2 * a3^3 * b1^3 * b2^2 * b3^2 * c1^5 * c2^2",
    "1 * a1^2 * a3^3 * b2^7 * c1 * c2^6",
    "-2 * a1 * a2^4 * b1^3 * b2^3 * b3 * c1^2 * c2^5",
    "-5 * a1 * a2^3 * a3 * b1^5 * b3^2 * c1^5 * c2^2",
    "2 * a1 * a2^2 * a3^2 * b1^4 * b2^2 * b3 * c1^4 * c2^3",
    "-2 * a1 * a2 * a3^3 * b1^3 * b2^4 * c1^3 * c2^4",
    "-7 * a1 * a3^4 * b1^5 * b2 * b3 * c1^6 * c2",
    "1 * a2^5 * b1^6 * b3 * c1^4 * c2^3",
    "1 * a2^2 * a3^3 * b1^6 * b2 * c1^5 * c2^2",
    "1 * a3^5 * b1^7 * c1^7",
])

# E1[q] over p = -3..0 at the unit twist
STURMFELS_E1_UNIT = {2: (15, 12, 0, 0), 1: (0, 0, 2, 0), 0: (0, 0, 0, 1)}
STURMFELS_UNIT_RANKS = {-1: 15, 0: 15}
# term ranks at the stable twist, degree 0 down to -2
STURMFELS_STABLE_SHAPE = (23, 27, 4)

M33_MULTIPLICITY = 14
M33_ELIMINANT = (
    "1 * a1_m2_4_6 * a2_3_m3_m3^2"
    " + -1 * a1_1_0_1 * a2_3_m3_m3 * a2_0_1_2"
    " + 1 * a1_4_m4_m4 * a2_0_1_2^2"
)
# E1[q] over p = -4..0 at the zero twist
M33_E1 = {3: (19, 20, 1, 0, 0), 2: (0, 21, 21, 1, 0),
          1: (0, 0, 2, 2, 0), 0: (0, 0, 0, 0, 1)}

# the resultant of three generic unit-square polynomials: degree 2 per group
SQUARES_GROUP_DEGREE = 2
SQUARES_TOTAL_DEGREE = 6
SAMPLE_POINTS = 3


# -- polynomials ---------------------------------------------------------------------

def parse_poly(text: str) -> Poly:
    """Parse `c * v^k * ... + ...` as printed in the references."""
    out: Poly = {}
    for term in text.split(" + "):
        coeff, *factors = (f.strip() for f in term.split("*"))
        exps: dict[str, int] = {}
        for f in factors:
            name, _, k = f.partition("^")
            exps[name] = exps.get(name, 0) + (int(k) if k else 1)
        mono = tuple(sorted(exps.items()))
        out[mono] = out.get(mono, Fraction(0)) + Fraction(coeff)
    return {m: c for m, c in out.items() if c}


def poly_of(variables: Sequence[str], terms: Mapping[Sequence[int], object]) -> Poly:
    """Plain form of a dense-exponent polynomial {exponents: coefficient}."""
    out: Poly = {}
    for e, c in terms.items():
        mono = tuple((v, k) for v, k in sorted(zip(variables, e)) if k)
        out[mono] = out.get(mono, Fraction(0)) + Fraction(c)
    return {m: c for m, c in out.items() if c}


def evaluate(p: Poly, point: Mapping[str, Fraction]) -> Fraction:
    total = Fraction(0)
    for mono, c in p.items():
        for v, k in mono:
            c *= point[v] ** k
        total += c
    return total


def same_up_to_sign(p: Poly, q: Poly) -> bool:
    return p == q or p == {m: -c for m, c in q.items()}


def e1_table(rows: Mapping[int, Sequence[int]]) -> dict[tuple[int, int], int]:
    """Nonzero entries of a printed E1 page {q: row over p = -len(row)+1..0}."""
    return {(p - len(row) + 1, q): r
            for q, row in rows.items() for p, r in enumerate(row) if r}


# -- per-workload checks ------------------------------------------------------------------

def _check_poly(label: str, got: Poly, ref_text: str) -> list[str]:
    return [] if same_up_to_sign(got, parse_poly(ref_text)) else [
        f"{label} differs from the printed eliminant ({len(got)} terms)"]


def check_sturmfels(answers: Sequence[dict]) -> list[str]:
    """Answers at the unit twist, then at the stable twist."""
    if len(answers) != 2:
        return [f"expected 2 answers, got {len(answers)}"]
    unit, stable = answers
    bad = _check_poly("unit delta", unit["delta"], STURMFELS_ELIMINANT)
    bad += _check_poly("stable delta", stable["delta"], STURMFELS_ELIMINANT)
    if unit["term_ranks"] != STURMFELS_UNIT_RANKS:
        bad.append(f"unit term ranks {unit['term_ranks']}")
    shape = {-i: n for i, n in enumerate(STURMFELS_STABLE_SHAPE)}
    if stable["term_ranks"] != shape:
        bad.append(f"stable term ranks {stable['term_ranks']}")
    if unit["e1"] != e1_table(STURMFELS_E1_UNIT):
        bad.append(f"unit E1 page {unit['e1']}")
    return bad


def check_m33(answers: Sequence[dict]) -> list[str]:
    if len(answers) != 1:
        return [f"expected 1 answer, got {len(answers)}"]
    (a,) = answers
    bad = _check_poly("root", a["root"], M33_ELIMINANT)
    if a["multiplicity"] != M33_MULTIPLICITY:
        bad.append(f"multiplicity {a['multiplicity']}")
    if a["e1"] != e1_table(M33_E1):
        bad.append(f"E1 page {a['e1']}")
    return bad


def _rand_q(rng: random.Random) -> Fraction:
    # a wide range keeps the chance that a random point is a root negligible
    # (Schwartz-Zippel: at most degree / 10^12 per point)
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6),
                    rng.randint(1, 10**6))


def incidence_point(supports, labels, rng: random.Random) -> dict[str, Fraction]:
    """Coefficients for which every polynomial of the system vanishes at one
    random torus point: all but one coefficient per polynomial are random,
    the last is solved for."""
    z = [_rand_q(rng) for _ in supports[0][0]]
    point: dict[str, Fraction] = {}
    for sup, labs in zip(supports, labels):
        vals = []
        for nu in sup:
            v = Fraction(1)
            for a, k in zip(z, nu):
                v *= a ** k
            vals.append(v)
        solved = rng.randrange(len(sup))
        total = Fraction(0)
        for k, lab in enumerate(labs):
            if k != solved:
                point[lab] = Fraction(rng.randint(-9, 9))
                total += point[lab] * vals[k]
        point[labs[solved]] = -total / vals[solved]
    return point


def random_point(labels, rng: random.Random) -> dict[str, Fraction]:
    return {lab: _rand_q(rng) for labs in labels for lab in labs}


def check_squares(answers: Sequence[dict], supports, labels, seed: int) -> list[str]:
    """Multidegree, vanishing on the incidence variety, and nonvanishing at
    random points, all drawn from the workload seed."""
    if len(answers) != 1:
        return [f"expected 1 answer, got {len(answers)}"]
    delta = answers[0]["delta"]
    if not delta:
        return ["delta is zero"]
    bad = []
    groups = [set(labs) for labs in labels]
    for mono in delta:
        degs = [sum(k for v, k in mono if v in g) for g in groups]
        if (sum(degs) != SQUARES_TOTAL_DEGREE
                or any(d != SQUARES_GROUP_DEGREE for d in degs)):
            bad.append(f"term of group degrees {degs}")
            break
    rng = random.Random(seed)
    for _ in range(SAMPLE_POINTS):
        if evaluate(delta, incidence_point(supports, labels, rng)):
            bad.append("delta does not vanish at an incidence point")
            break
    for _ in range(SAMPLE_POINTS):
        if not evaluate(delta, random_point(labels, rng)):
            bad.append("delta vanishes at a random point")
            break
    return bad
