"""Seeded input documents for the benchmark, built without importing ramstab.

Branches are chosen with this module's own lower hull: from v(a_{n-1}) the
possible valuations of a_n are the negated slopes of the lower hull of
(0, v(a_{n-1})) and the coefficient points (i, v(P_i)).  A branch is
recorded until its steps are forced: for a positive valuation <= 1 every
coefficient point lies strictly above the chord to (q, 0), and a negative
valuation is always forced, so the program can extend the record on its
own.  The documents for a seed are the same bytes on every commit, because
nothing here depends on the code under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

INF = None  # the valuation of zero


def fmt(v: Optional[Fraction]) -> str:
    return "inf" if v is None else str(Fraction(v))


def lower_hull(points):
    """Strict lower hull of (x, y) points with distinct integer x."""
    hull = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (ax, ay), (bx, by) = hull[-2], hull[-1]
            if (bx - ax) * (pt[1] - ay) - (by - ay) * (pt[0] - ax) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def root_valuations(points) -> list[Fraction]:
    """Negated hull slopes, decreasing."""
    hull = lower_hull(points)
    return [-Fraction(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]


def step_candidates(coeffs: dict[int, int], v_prev: Optional[Fraction]) -> list[Fraction]:
    points = [(i, Fraction(v)) for i, v in coeffs.items()]
    if v_prev is not None:
        points.append((0, Fraction(v_prev)))
    return root_valuations(points)


def forced(v: Optional[Fraction]) -> bool:
    return v is not None and (v < 0 or 0 < v <= 1)


def extend_forced(coeffs: dict[int, int], branch: list, length: int) -> list:
    """The branch continued through forced steps to ``length`` entries."""
    out = list(branch)
    while len(out) < length:
        (nxt,) = step_candidates(coeffs, out[-1])
        out.append(nxt)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass
class Doc:
    """One generated input document and what the checks need to know about it."""

    name: str
    obj: dict
    p: int
    r: int
    v_p: int
    e_ke: int
    coeffs: dict[int, int]
    branch: list  # recorded valuations, None for a zero base point
    broken_field: Optional[str] = None
    extra_commands: bool = False  # also run `branch` and `limit-data`

    @property
    def q(self) -> int:
        return self.p**self.r

    @property
    def support(self) -> frozenset:
        return frozenset(self.coeffs)


def make_doc(name, p, r, v_p, e_ke, coeffs, branch, d=None, leading_zeros=None) -> Doc:
    obj = {
        "p": p,
        "r": r,
        "v_p": v_p,
        "e_ke": e_ke,
        "coeff_valuations": {str(i): str(v) for i, v in sorted(coeffs.items())},
        "base_valuation": fmt(branch[0]),
        "branch_valuations": [fmt(v) for v in branch],
    }
    if d is not None:
        obj["d"] = d
    if leading_zeros is not None:
        obj["leading_zeros"] = leading_zeros
    return Doc(name, obj, p, r, v_p, e_ke, dict(coeffs), list(branch))


def record_branch(rng, coeffs, base, pick_largest=False) -> list:
    """Follow the polygon dynamics from ``base`` until the steps are forced."""
    branch = [base]
    while not forced(branch[-1]):
        cands = step_candidates(coeffs, branch[-1])
        branch.append(cands[0] if pick_largest else rng.choice(cands))
        if len(branch) > 400:
            raise RuntimeError("branch did not reach the forced regime")
    for _ in range(rng.randint(0, 2)):
        (nxt,) = step_candidates(coeffs, branch[-1])
        branch.append(nxt)
    return branch


def random_profile(rng, q: int, size: int, lo: int = 1, hi: int = 5) -> dict[int, int]:
    idx = rng.sample(range(1, q), min(size, q - 1))
    coeffs = {i: rng.randint(lo, hi) for i in idx}
    coeffs[q] = 0
    return coeffs


def random_d(rng) -> Optional[int]:
    return rng.choice([1, 2, 3, 4, 5, 6, 7, -1, -2]) if rng.random() < 0.5 else None


# --- certify-corpus --------------------------------------------------------

SMALL_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)]

# documents per block and base-valuation class; fixed counts keep the cost
# mix of a block the same for every seed
CORPUS_CLASSES = {"positive": 12, "fractional": 8, "negative": 6, "zero": 6}
# one long-record document per field in every block: they set the tail, and a
# fixed field mix keeps their cost the same from seed to seed
LONG_FIELDS = [(2, 3), (2, 4), (3, 3), (7, 2)]
CORPUS_MALFORMED = 4
CORPUS_EXTRA = 9  # documents per block that also run `branch` and `limit-data`


def _small_doc(rng, name, kind) -> Doc:
    p, r = rng.choice(SMALL_FIELDS)
    q = p**r
    v_p = rng.randint(1, 3)
    e_ke = rng.choice([1, 2])
    coeffs = random_profile(rng, q, rng.randint(1, 6))
    d = random_d(rng)
    if kind == "positive":
        base = Fraction(rng.randint(1, 8))
    elif kind == "fractional":
        den = rng.choice([2, 3, 5])
        base = Fraction(rng.randint(den + 1, 8 * den), den)
        if base.denominator == 1:
            base += Fraction(1, den)
    elif kind == "negative":
        base = -Fraction(rng.randint(1, 6), rng.choice([1, 2, 3]))
    else:  # zero-based: leading zero base points, then the departure from zero
        zeros = rng.randint(1, 2)
        depart = rng.choice(step_candidates(coeffs, None))
        branch = [INF] * zeros + record_branch(rng, coeffs, depart)
        lz = zeros if rng.random() < 0.5 else None
        return make_doc(name, p, r, v_p, e_ke, coeffs, branch, d=d, leading_zeros=lz)
    branch = record_branch(rng, coeffs, base)
    return make_doc(name, p, r, v_p, e_ke, coeffs, branch, d=d)


def _long_doc(rng, name, p, r) -> Doc:
    """A base valuation near 80 and v(P_1) = 2: following the largest root
    valuation, it decreases by 2 per level, so the record reaches ~40 levels."""
    q = p**r
    coeffs = {i: rng.randint(1, 5) for i in rng.sample(range(2, q), 3)}
    coeffs.update({1: 2, q: 0})
    branch = record_branch(rng, coeffs, Fraction(rng.randint(76, 80)), pick_largest=True)
    return make_doc(name, p, r, rng.randint(1, 3), rng.choice([1, 2]), coeffs, branch, d=random_d(rng))


def _break_one_field(rng, doc: Doc) -> Doc:
    """Corrupt exactly one field of a valid document and record which."""
    obj = dict(doc.obj)
    obj["coeff_valuations"] = dict(doc.obj["coeff_valuations"])
    obj["branch_valuations"] = list(doc.obj["branch_valuations"])
    q = doc.q
    options = ["p", "r", "v_p", "e_ke", "coeff_index", "coeff_value", "base_valuation",
               "branch_entry", "branch_head", "d", "unknown"]
    if len(doc.branch) >= 2 and doc.branch[0] is not None:
        options.append("branch_step")
    if doc.branch[0] is None:
        options.append("leading_zeros")
    choice = rng.choice(options)
    if choice == "p":
        obj["p"], broken = rng.choice([4, 6, 9, 15]), "p"
    elif choice == "r":
        obj["r"], broken = 0, "r"
    elif choice == "v_p":
        obj["v_p"], broken = 0, "v_p"
    elif choice == "e_ke":
        obj["e_ke"], broken = 0, "e_ke"
    elif choice == "coeff_index":
        obj["coeff_valuations"][str(q + 1)] = "1"
        broken = f"coeff_valuations[{q + 1}]"
    elif choice == "coeff_value":
        i = min(i for i in doc.coeffs if i < q)
        obj["coeff_valuations"][str(i)] = rng.choice(["-1", "1/2"])
        broken = f"coeff_valuations[{i}]"
    elif choice == "base_valuation":
        obj["base_valuation"], broken = "1/0", "base_valuation"
    elif choice == "branch_entry":
        n = rng.randrange(len(doc.branch))
        obj["branch_valuations"][n] = "x"
        broken = f"branch_valuations[{n}]"
    elif choice == "branch_head":
        obj["base_valuation"] = fmt((doc.branch[0] or Fraction(1)) + 1)
        broken = "branch_valuations[0]"
    elif choice == "d":
        obj["d"], broken = 0, "d"
    elif choice == "unknown":
        obj["depth"], broken = 3, "depth"
    elif choice == "branch_step":
        # a same-sign value that is no root valuation at step 0
        cands = step_candidates(doc.coeffs, doc.branch[0])
        bad = abs(cands[0]) * Fraction(7, 5) + Fraction(1, 97)
        obj["branch_valuations"][1] = fmt(bad if doc.branch[0] > 0 else -bad)
        broken = "branch_valuations"
    else:
        obj["leading_zeros"], broken = doc.branch.count(None) + 1, "leading_zeros"
    return Doc(doc.name, obj, doc.p, doc.r, doc.v_p, doc.e_ke, doc.coeffs, doc.branch, broken_field=broken)


def certify_corpus(seed: int, block: int) -> list[Doc]:
    rng = random.Random(f"certify-corpus:{seed}:{block}")
    docs = []
    for kind, count in CORPUS_CLASSES.items():
        for k in range(count):
            docs.append(_small_doc(rng, f"b{block}-{kind}{k}", kind))
    long_docs = [_long_doc(rng, f"b{block}-long{p**r}", p, r) for p, r in LONG_FIELDS]
    # a quarter of the documents, always one long one among them
    for doc in rng.sample(docs, CORPUS_EXTRA - 1) + [rng.choice(long_docs)]:
        doc.extra_commands = True
    docs += long_docs
    for k in range(CORPUS_MALFORMED):
        base = _small_doc(rng, f"b{block}-malformed{k}", rng.choice(list(CORPUS_CLASSES)))
        docs.append(_break_one_field(rng, base))
    rng.shuffle(docs)
    return docs


# --- wide-degree -----------------------------------------------------------

WIDE_FIELDS = [(2, 7), (2, 8), (2, 9), (2, 10), (3, 5), (3, 6), (3, 7), (5, 3), (5, 4), (7, 3)]
WIDE_PRIME_BANDS = [(1500, 2000), (9000, 10000)]


def _wide_doc(rng, name, p, r) -> Doc:
    q = p**r
    v_p = rng.randint(1, 3)
    coeffs = random_profile(rng, q, rng.randint(4, 7), lo=1, hi=12)
    kind = rng.choice(["negative", "small", "positive"])
    if kind == "negative":
        base = -Fraction(rng.randint(1, 4), rng.choice([1, 2]))
    elif kind == "small":
        base = Fraction(1, rng.choice([1, 2, p]))
    else:
        base = Fraction(rng.randint(2, 6))
    branch = record_branch(rng, coeffs, base)
    # d = 1 is prime to p, so no certify stops at the tameness check and
    # every document pays for the full index loops
    return make_doc(name, p, r, v_p, 1, coeffs, branch, d=1)


def wide_degree(seed: int, block: int) -> list[Doc]:
    rng = random.Random(f"wide-degree:{seed}:{block}")
    docs = [_wide_doc(rng, f"b{block}-q{p**r}", p, r) for p, r in WIDE_FIELDS]
    for lo, hi in WIDE_PRIME_BANDS:
        p = rng.choice([n for n in range(lo, hi) if is_prime(n)])
        docs.append(_wide_doc(rng, f"b{block}-prime{p}", p, 1))
    return docs


# --- tower-depth -----------------------------------------------------------

TOWER_PRIMES = (2, 3)


def tower_docs(seed: int) -> list[Doc]:
    """One document per prime in TOWER_PRIMES, each built from (seed, prime).

    r = 1, uniformizer base, d = 1: V = 2 and TRS by construction.  With
    r = 1 the limiting polygon has only the vertices over 1 and q, and a
    base of valuation 1 passes the stability screen at level 0.
    """
    docs = []
    for p in TOWER_PRIMES:
        rng = random.Random(f"tower-depth:{seed}:{p}")
        coeffs = random_profile(rng, p, rng.randint(1, p - 1), lo=1, hi=4)
        docs.append(make_doc(f"tower{p}", p, 1, rng.randint(1, 3), 1, coeffs, [Fraction(1)], d=1))
    return docs
