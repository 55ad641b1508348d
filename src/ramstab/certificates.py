"""Stability predicates and machine-checkable certificates.

A branch is tamely ramification-stable (TRS) over its ground field when p
does not divide d, the stable polygon description holds from level 0, and
the transition functions compose without overlap (each identity segment
covers all earlier vertices).  Certification here is sound but not
minimal: it scans recorded levels for effectively checkable sufficient
conditions, so the reindex level it reports may be larger than the true
minimum.  Every inequality that was checked is embedded in the certificate
with its exact values, so a certificate can be re-validated without
recomputing anything.
``certify`` decides each level on integers and builds the rows only when
asked: a tower command prints them only for a branch that does not certify.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, NamedTuple, Optional, Tuple

from .branches import (
    BranchValuationRecord,
    PolynomialValuationProfile,
    _screen_passes,
    estimate_d,
    stability_screen,
)
from .limitdata import LimitingRamificationData
from .valuations import denominator_field, format_ratio, print_bound, print_error

__all__ = [
    "CertificateCheck",
    "StabilityCertificate",
    "pcb_normal_form",
    "composition_criterion",
    "pcb_sufficient",
    "certify",
    "evaluate_check",
    "revalidate",
]

INTERPRETATION_NOTES = (
    "d-divisibility is checked on the numerator of the minimal-ramification "
    "estimate v(a_n) * lcm(denominator, e_ke)",
    "certificates are sound but not minimal: the reindex level comes from "
    "effectively checkable sufficient conditions and may exceed the true one",
)

_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "not-divides": lambda a, b: b % a != 0,
}


class CertificateCheck(NamedTuple):
    """One recorded comparison: exact left/right values, operator, outcome."""

    name: str
    level: Optional[int]
    lhs: str
    op: str
    rhs: str
    passed: bool

    @property
    def rendered(self) -> str:
        where = "" if self.level is None else f" at level {self.level}"
        verdict = "holds" if self.passed else "fails"
        return f"{self.name}{where}: {self.lhs} {self.op} {self.rhs} {verdict}"


def evaluate_check(lhs: str, op: str, rhs: str) -> bool:
    """Re-evaluate a recorded comparison from its exact serialized values."""
    if op not in _OPS:
        raise ValueError(f"unknown comparison operator {op!r}")
    a, b = Fraction(lhs), Fraction(rhs)
    return _OPS[op](a, b)


def revalidate(certificate: "StabilityCertificate") -> bool:
    """True iff every embedded check reproduces its recorded pass/fail bit."""
    return all(
        evaluate_check(c.lhs, c.op, c.rhs) == c.passed for c in certificate.checks
    )


_FIELDS = [("kind", str), ("reindex", int), ("d_used", int), ("d_trusted", bool),
           ("conditional_on_d", bool), ("checks", Tuple[CertificateCheck, ...]),
           ("interpretation_notes", Tuple[str, ...]), ("reason", Optional[str])]


class StabilityCertificate(NamedTuple("StabilityCertificate", _FIELDS)):
    """Outcome of certification with every checked inequality embedded.

    kind is "TRS", "PotentiallyTRS" or "NotCertified"; reindex is the level
    N at which the branch was certified (0 for TRS).  When d was estimated
    rather than supplied, conditional_on_d is set and the certificate only
    holds if the estimate is correct.  ``checks`` is empty for a verdict
    without rows.
    """

    __slots__ = ()

    def __new__(
        cls, kind, reindex, d_used, d_trusted, conditional_on_d, checks,
        interpretation_notes=INTERPRETATION_NOTES, reason=None,
    ):
        self = super().__new__(
            cls, kind, reindex, d_used, d_trusted, conditional_on_d, checks,
            interpretation_notes, reason,
        )
        if self.kind not in ("TRS", "PotentiallyTRS", "NotCertified"):
            raise ValueError(f"unknown certificate kind {self.kind!r}")
        if self.kind == "TRS":
            if self.reindex != 0:
                raise ValueError("a TRS certificate must have reindex 0")
            if not all(c.passed for c in self.checks):
                raise ValueError("a TRS certificate cannot contain failed checks")
        if self.kind == "PotentiallyTRS":
            if self.reindex < 0:
                raise ValueError("reindex must be nonnegative")
            bad = [
                c
                for c in self.checks
                if (c.level is None or c.level == self.reindex) and not c.passed
            ]
            if bad:
                raise ValueError(f"certified level has failed checks: {bad[0].rendered}")
        return self

    @property
    def certified(self) -> bool:
        return self.kind != "NotCertified"

    def to_json(self) -> dict:
        """The report payload, with ``checks`` the rows themselves.  Only
        ``cli._render`` prints it: it writes each row as an object with its
        fields and ``rendered``, where ``json.dumps`` would write an array."""
        out = {
            "kind": self.kind,
            "reindex": self.reindex,
            "d_used": self.d_used,
            "d_trusted": self.d_trusted,
            "conditional_on_d": self.conditional_on_d,
            "checks": self.checks,
            "interpretation_notes": list(self.interpretation_notes),
        }
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def pcb_normal_form(profile: PolynomialValuationProfile) -> Tuple[bool, Optional[int]]:
    """Whether v(P_i) + v(i) >= r*v(p) holds for every index 1 <= i <= q.

    Polynomials in this normal form have all critical orbits bounded.  On
    failure the first violating index is returned as a witness.  Zero
    coefficients have infinite valuation, so only the support is visited.
    """
    target = profile.r * profile.v_p
    for i in sorted(profile.coeff_valuations):
        vi = 0
        m = i
        while m % profile.p == 0:
            vi += 1
            m //= profile.p
        total = profile.coeff_valuations[i] + vi * profile.v_p
        if total < target:
            return False, i
    return True, None


def composition_criterion(
    data: LimitingRamificationData, p: int, q: int
) -> Callable[[int, int, int, Optional[list]], bool]:
    """Sufficient condition for identity segments to cover all earlier vertices,
    as the check of one level n with base valuation v(a_0) = a/b, b > 0:
    ``check(n, a, b, checks=None)`` returns its pass bit and, when
    ``checks`` is a list, appends its row to it.

    Automatic when the limiting polygon has a single slope (V = 2);
    otherwise the steepest limiting slope must beat the shallowest by a
    factor q with margin 2|v(a_0)|/(p-1):

        -q (m_V - m_{V-1}) / (p^{r_V} - p^{r_{V-1}})
            >  -(m_2 - m_1) / (p^{r_2} - p^{r_1})  +  2 |v(a_0)| / (p - 1)

    Every term but the margin's |v(a_0)| is built once, here, on integers.
    With the shallowest slope s/t, the right side is (s (p-1) b + 2 t |a|)
    / (t (p-1) b), compared by cross-multiplying; it is reduced for a row,
    printed as ``str(Fraction)`` would, or when it reaches ``print_bound``.
    A reduced right side that does not print raises ``InputError`` on
    ``base_valuation``: the base's magnitude sets how deep the scan goes.
    """
    if data.V == 2:
        def single(n: int, a: int, b: int, checks: Optional[list] = None) -> bool:
            if checks is not None:
                checks.append(CertificateCheck("single-limiting-slope", n, "2", "==", "2", True))
            return True
        return single
    M, R = data.M, data.R
    lhs_num, lhs_den = q * (M[-2] - M[-1]), p ** R[-1] - p ** R[-2]
    lhs_text = format_ratio(lhs_num, lhs_den)
    s, t = M[0] - M[1], p ** R[1] - 1  # the shallowest slope, R[0] = 0
    s_p, t_p, twice_t = s * (p - 1), t * (p - 1), 2 * t
    bound = print_bound()

    def check(n: int, a: int, b: int, checks: Optional[list] = None) -> bool:
        top, bottom = s_p * b + twice_t * abs(a), t_p * b
        if checks is not None or (bound and max(top, bottom) >= bound):
            g = gcd(top, bottom)
            top, bottom = top // g, bottom // g
            if bound and max(top, bottom) >= bound:
                why = "certify cannot print the composition criterion"
                raise print_error(f"level {n}'s criterion bound", why, "base_valuation")
        passed = lhs_num * bottom > top * lhs_den
        if checks is not None:
            rhs = f"{top}/{bottom}" if bottom != 1 else str(top)
            checks.append(CertificateCheck("composition-criterion", n, lhs_text, ">", rhs, passed))
        return passed

    return check


def pcb_sufficient(p: int, v_p, v_base) -> bool:
    """Small-base-valuation test: |v(a_0)| < (p - 1) v(p) / 2.

    Together with the bounded-critical-orbit normal form this guarantees
    the composition criterion without evaluating it.
    """
    return abs(v_base) < Fraction(p - 1) * v_p / 2


def certify(
    profile: PolynomialValuationProfile,
    record: BranchValuationRecord,
    data: LimitingRamificationData,
    d: Optional[int] = None,
    rows: bool = True,
) -> StabilityCertificate:
    """Scan recorded levels for the first where every stability check passes.

    ``data`` is the branch's limiting data (``limiting_data_for_branch``).
    d comes from the caller (trusted), from the uniformizer-base rule
    (trusted), or from the minimal-ramification estimate (the certificate
    is then marked conditional on d).  A level passes when the composition
    criterion holds at its base valuation and the stable-regime screen
    holds there: the d-estimate has settled and the comparisons of
    ``stability_screen`` pass.  A uniformizer base (v(a_0) * e_ke = 1)
    passes the screen at level 0 outright, since every level is then
    Eisenstein.  A scanned level whose denominator does not print,
    compared with ``print_bound``, raises ``InputError`` on the field that
    ``denominator_field`` names; the estimated d, a d-estimate or a
    criterion bound that does not, on ``base_valuation``.  Without
    ``rows`` the same comparisons and guards run, and ``checks`` is empty.
    """
    p, bound = profile.p, print_bound()
    why = "certify cannot print it"
    est, est_trusted = estimate_d(profile, record)
    d_used, d_trusted = (d, True) if d is not None else (est, est_trusted)
    if bound and abs(d_used) >= bound:
        raise print_error("the estimated d", why, "base_valuation")
    tame = abs(d_used) % p != 0
    checks = None
    if rows:
        d_text = str(abs(d_used))
        checks = [CertificateCheck("d-prime-to-p", None, str(p), "not-divides", d_text, tame)]

    def verdict(kind, reindex, conditional_on_d, reason=None):
        return StabilityCertificate(
            kind, reindex, d_used, d_trusted, conditional_on_d, tuple(checks or ()), reason=reason
        )

    if not tame:
        return verdict("NotCertified", 0, False, f"p = {p} divides d = {d_used}; tameness fails")

    # settled run: from level ``settled`` on, every d-estimate to the end is equal
    d_estimates = record.d_estimates
    settled = len(d_estimates)
    while settled and d_estimates[settled - 1] == d_estimates[-1]:
        settled -= 1
    criterion = composition_criterion(data, p, profile.q)
    for n, v in enumerate(record.valuations):
        if v is None:
            continue
        a, b, d_n = v.numerator, v.denominator, d_estimates[n]
        if bound and b >= bound:
            raise print_error(f"level {n}'s denominator", why, denominator_field(profile.q))
        if bound and abs(d_n) >= bound:
            raise print_error(f"level {n}'s d-estimate", why, "base_valuation")
        comp_ok = criterion(n, a, b, checks)

        if n == 0 and est_trusted:
            if rows:
                checks.append(CertificateCheck("uniformizer-base", 0, "1", "==", "1", True))
            screen_ok = True
        else:
            run = len(d_estimates) - n if n >= settled else 0
            run_ok = run >= 2
            if rows:
                (t_name, t_lhs, t_op, t_rhs, t_ok), (p_name, p_lhs, p_op, p_rhs, p_ok), (
                    b_name, b_lhs, b_op, b_rhs, b_ok
                ) = stability_screen(profile, v, d_n)
                checks += (
                    CertificateCheck(t_name, n, t_lhs, t_op, t_rhs, t_ok),
                    CertificateCheck("d-estimate-settled", n, str(run), ">=", "2", run_ok),
                    CertificateCheck(p_name, n, p_lhs, p_op, p_rhs, p_ok),
                    CertificateCheck(b_name, n, b_lhs, b_op, b_rhs, b_ok),
                )
            else:
                t_ok, p_ok, b_ok = _screen_passes(profile, a, b, d_n)
            screen_ok = t_ok and run_ok and p_ok and b_ok

        if comp_ok and screen_ok:
            return verdict("TRS" if n == 0 else "PotentiallyTRS", n, not d_trusted)

    return verdict(
        "NotCertified", 0, not d_trusted,
        "no recorded level passes both the composition criterion and the stability screen",
    )
