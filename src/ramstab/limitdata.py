"""Limiting ramification data (V, R, M, E) and the error coefficient C.

For every sufficiently deep level n the Newton polygon of the shifted
iterate has the same V vertices, located at (p^{r_i}, m_i + e_i*C/q^n).
The main terms and error factors are integer minima over the coefficient
valuations, for every p^k in one pass over the base-p digits of the
support; which index achieves a tied minimum is decided by the sign of the
base valuation (first index when positive, last when negative).

The surrogate hull used to select the vertices places each point at the
integer height M*q^2 + sign*E, that is M + sign*E/q^2 scaled by q^2; any
larger power of q would select the same vertices, and the test suite
cross-checks the surrogate against exact level polygons.

``complete_record`` extends a branch record past its halving level N in
closed form and returns C = q^N v(a_N) with it, read where v(a_N) is
known; a branch with no forced level raises ``BranchDataError``, the input
error on ``branch_valuations``.  ``limiting_data_for_branch`` builds the
data once, with C.  A working base at level m has C / q^m, which the tower
commands keep as an integer pair.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .branches import (
    BranchValuationRecord,
    PolynomialValuationProfile,
    halving_level,
    minimal_d_estimate,
    zero_departure_candidates,
)
from .polygons import lower_hull
from .valuations import format_rational, logger

__all__ = [
    "LimitingRamificationData",
    "main_and_error",
    "limiting_data",
    "complete_record",
    "limiting_data_for_branch",
]

_FIELDS = [("V", int), ("R", Tuple[int, ...]), ("M", Tuple[int, ...]), ("E", Tuple[int, ...]),
           ("sign", int), ("C", Optional[Fraction])]


class LimitingRamificationData(NamedTuple("LimitingRamificationData", _FIELDS)):
    """Vertex data shared by all stable-regime polygons of one branch.

    V vertices sit over p^{r_1} < ... < p^{r_V} with heights
    m_i + e_i*C/q^n; always r_1 = 0, r_V = r and m_V = e_V = 0.
    C is branch-dependent and may be absent.
    """

    __slots__ = ()

    def __new__(cls, V, R, M, E, sign, C=None):
        self = super().__new__(cls, V, R, M, E, sign, C)
        if self.V != len(self.R) or self.V != len(self.M) or self.V != len(self.E):
            raise ValueError("R, M, E must each have V entries")
        if self.V < 2:
            raise ValueError("limiting data has at least the vertices over 1 and q")
        if self.R[0] != 0:
            raise ValueError("the first vertex exponent must be 0")
        if any(b <= a for a, b in zip(self.R, self.R[1:])):
            raise ValueError("vertex exponents must be strictly increasing")
        if self.M[-1] != 0 or self.E[-1] != 0:
            raise ValueError("the last vertex is (q, 0): m_V = e_V = 0")
        if any(m < 0 for m in self.M) or any(e < 0 for e in self.E):
            raise ValueError("main terms and error factors are nonnegative")
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        return self

    def to_json(self) -> dict:
        return {
            "V": self.V,
            "R": list(self.R),
            "M": list(self.M),
            "E": list(self.E),
            "C": None if self.C is None else format_rational(self.C),
            "sign": self.sign,
        }


def main_and_error(
    profile: PolynomialValuationProfile, sign: int
) -> Tuple[Tuple[int, int], ...]:
    """Main terms and error factors ((M_0, E_0), ..., (M_r, E_r)) over p^0..p^r.

    M_k is the minimum over p^k <= j <= q of v(C(j, p^k)) + v(P_j); E_k is
    j* - p^k for the first (sign +1) or last (sign -1) index j* achieving
    that minimum.  These tie rules are exactly the ones that minimize the
    exact heights once the vanishing error terms are restored.  By Kummer's
    theorem v(C(j, p^k)) is v(p) times the borrows in j - p^k: the run of
    zero base-p digits of j from digit k up.  Only the support is visited.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p, v_p = profile.p, profile.v_p
    best, best_j = [None] * (profile.r + 1), [0] * (profile.r + 1)
    for j in sorted(profile.coeff_valuations):
        coefficient, digits, rest = profile.coeff_valuations[j], [], j
        while rest:
            rest, digit = divmod(rest, p)
            digits.append(digit)
        run = 0  # the top digit is nonzero
        for k in reversed(range(len(digits))):
            run = run + 1 if digits[k] == 0 else 0
            term = run * v_p + coefficient
            if best[k] is None or term < best[k] or (sign < 0 and term == best[k]):
                best[k], best_j[k] = term, j
    # j = q is in the support and has a term over every p^k
    return tuple((m, j - p**k) for k, (m, j) in enumerate(zip(best, best_j)))


def limiting_data(
    profile: PolynomialValuationProfile, sign: int, C: Optional[Fraction] = None
) -> LimitingRamificationData:
    """Select the stable vertex set from the surrogate hull of (p^k, M*q^2 + sign*E),
    with the error coefficient ``C`` when it is known.

    The surrogate error term carries the sign of the base valuation: the
    exact level-n heights are M + E*C/q^n and C shares that sign, so when
    main terms are collinear the error must push the candidate vertex the
    same way it does in the exact polygons.
    """
    q2 = profile.q_squared
    table = main_and_error(profile, sign)
    exponents = {profile.p**k: k for k in range(profile.r + 1)}
    hull = lower_hull((x, table[k][0] * q2 + sign * table[k][1]) for x, k in exponents.items())
    R = tuple(exponents[x] for x, _ in hull)
    M = tuple(table[k][0] for k in R)
    E = tuple(table[k][1] for k in R)
    assert all(e <= profile.q - 1 for e in E)
    return LimitingRamificationData(V=len(R), R=R, M=M, E=E, sign=sign, C=C)


def complete_record(
    profile: PolynomialValuationProfile, record: BranchValuationRecord
) -> Tuple[BranchValuationRecord, int, Fraction]:
    """Extend the record past the halving level N (entry N + k is
    v(a_N)/q^k) through the first level with |v| <= 1/q^2 whose d-estimate
    has settled (equals the next level's, so every later one), and one
    more; return it with N and the error coefficient C = q^N v(a_N), which
    q^n v(a_n) equals at every level n >= N."""
    N = halving_level(profile, record)
    vals, q, e = record.valuations, profile.q, profile.e_ke
    v_N = vals[N] if N < len(vals) else zero_departure_candidates(profile)[0]
    # levels N, N + 1, ... and their estimates; the estimate changes at
    # every step until it settles, then never again
    walk = [v_N, v_N / q]
    estimates = [minimal_d_estimate(v, e) for v in walk]
    within = profile.within_threshold
    while not within(*walk[-2].as_integer_ratio()) or estimates[-2] != estimates[-1]:
        walk.append(walk[-1] / q)
        estimates.append(minimal_d_estimate(walk[-1], e))
    start = len(vals) - N
    if start < len(walk):
        log = logger(__name__, "INFO")
        if log:
            log.info(
                "extended branch record by %d forced steps to length %d",
                len(walk) - start, N + len(walk),
            )
        record = BranchValuationRecord(
            valuations=vals + tuple(walk[start:]),
            d_estimates=record.d_estimates + tuple(estimates[start:]),
        )
    return record, N, q**N * v_N


def limiting_data_for_branch(
    profile: PolynomialValuationProfile, record: BranchValuationRecord
) -> Tuple[LimitingRamificationData, BranchValuationRecord, int]:
    """Full pipeline: complete the record, then compute (V, R, M, E) and C.

    Returns the data with C attached, the completed record and the level N
    used to read off C.
    """
    record, N, C = complete_record(profile, record)
    return limiting_data(profile, record.sign, C), record, N

