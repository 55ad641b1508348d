"""Output checks that do not use the code under test.

Certificate checks are re-evaluated with this module's own Fraction
comparisons, main terms are recomputed by Kummer's theorem over the
support only, branch extensions come from the generator's own hull, and the
fixture outputs are compared with the committed golden reports.  Each
check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

import gen

OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "not-divides": lambda a, b: b % a != 0,
}


def parse_rational(text: str) -> Optional[Fraction]:
    return None if text == "inf" else Fraction(text)


def carries(a: int, b: int, p: int) -> int:
    """Carries when adding a and b in base p; v_p(C(a+b, a)) by Kummer."""
    count = carry = 0
    while a or b or carry:
        carry = 1 if a % p + b % p + carry >= p else 0
        count += carry
        a //= p
        b //= p
    return count


def main_and_error(doc: gen.Doc, k: int, sign: int) -> tuple[int, int]:
    """min over the support j >= p^k of v(C(j, p^k)) + v(P_j), and j* - p^k."""
    pk = doc.p**k
    best = best_j = None
    for j in sorted(i for i in doc.coeffs if i >= pk):
        term = carries(pk, j - pk, doc.p) * doc.v_p + doc.coeffs[j]
        if best is None or term < best or (sign < 0 and term == best):
            best, best_j = term, j
    return best, best_j - pk


def branch_sign(doc: gen.Doc) -> int:
    first = next((v for v in doc.branch if v is not None), None)
    return -1 if first is not None and first < 0 else 1


def error_field(stderr: str) -> Optional[str]:
    lines = stderr.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1]).get("field")
    except (json.JSONDecodeError, AttributeError):
        return None


def check_malformed(doc: gen.Doc, code, stderr: str) -> Optional[str]:
    if code != 2:
        return f"malformed {doc.broken_field}: exit {code}, expected 2"
    field = error_field(stderr)
    if field != doc.broken_field:
        return f"malformed {doc.broken_field}: error names field {field!r}"
    return None


def check_certificate(payload: dict, code) -> Optional[str]:
    kind = payload.get("kind")
    if kind not in ("TRS", "PotentiallyTRS", "NotCertified"):
        return f"unknown certificate kind {kind!r}"
    if (code == 0) != (kind != "NotCertified") or code not in (0, 1):
        return f"exit {code} with kind {kind}"
    for c in payload["checks"]:
        if OPS[c["op"]](Fraction(c["lhs"]), Fraction(c["rhs"])) != c["passed"]:
            return f"embedded check does not reproduce: {c['rendered']}"
    if kind != "NotCertified":
        reindex = payload["reindex"]
        if kind == "TRS" and reindex != 0:
            return "TRS certificate with nonzero reindex"
        for c in payload["checks"]:
            if c["level"] in (None, reindex) and not c["passed"]:
                return f"certified level has a failed check: {c['rendered']}"
    return None


def check_limit_data(doc: gen.Doc, payload: dict) -> Optional[str]:
    V, R, M, E = payload["V"], payload["R"], payload["M"], payload["E"]
    if not (len(R) == len(M) == len(E) == V):
        return "R, M, E do not have V entries"
    if R[0] != 0 or R[-1] != doc.r or M[-1] != 0 or E[-1] != 0:
        return f"shape invariants fail: R={R} M={M} E={E}"
    sign = branch_sign(doc)
    if payload["sign"] != sign:
        return f"sign {payload['sign']} but the branch has sign {sign}"
    for k, m, e in zip(R, M, E):
        if (m, e) != main_and_error(doc, k, sign):
            return f"(M, E) over p^{k} is {(m, e)}, Kummer gives {main_and_error(doc, k, sign)}"
    return check_C(doc, payload["C"], payload["N"])


def check_C(doc: gen.Doc, C: str, N: int) -> Optional[str]:
    """C = q^N v(a_N), and the halving regime has set in: the same at N + 1."""
    ext = gen.extend_forced(doc.coeffs, doc.branch, N + 2)
    if ext[N] is None or Fraction(C) != doc.q**N * ext[N] or Fraction(C) != doc.q ** (N + 1) * ext[N + 1]:
        return f"C = {C} at N = {N} disagrees with the branch {[gen.fmt(v) for v in ext[N:N + 2]]}"
    return None


def check_branch(doc: gen.Doc, payload: dict) -> Optional[str]:
    vals = [parse_rational(v) for v in payload["valuations"]]
    if vals[: len(doc.branch)] != doc.branch:
        return "branch output does not start with the recorded valuations"
    if vals != gen.extend_forced(doc.coeffs, doc.branch, len(vals)):
        return "branch extension is not the forced continuation"
    return check_C(doc, payload["C"], payload["N"])


def parse_breaks(payload: dict) -> list[Fraction]:
    return [Fraction(b) for b in payload["breaks"]]


def check_breaks(breaks: list[Fraction], k: int) -> Optional[str]:
    if len(breaks) != k:
        return f"{len(breaks)} breaks, expected {k}"
    if any(b <= a for a, b in zip(breaks, breaks[1:])):
        return "breaks are not strictly increasing"
    return None


def v2_breaks(doc: gen.Doc, depth: int) -> list[Fraction]:
    """Closed form for r = 1, base valuation 1, d = 1, e_ke = 1.

    The level-n polygon runs from (1, m + e/q^n) to (q, 0) since C = 1, so
    phi_n breaks at x_n = (q^n m + e)/(q - 1); phi_n is the identity up to
    x_n, beyond every earlier break, so the tower breaks are x_1, ..., x_n.
    """
    m, e = main_and_error(doc, 0, 1)
    q = doc.q
    return [Fraction(q**n * m + e, q - 1) for n in range(1, depth + 1)]


def check_hh(payload: dict, depth: int, breaks: list[Fraction]) -> Optional[str]:
    if len(payload["phi"]) != depth or len(payload["Phi"]) != depth:
        return "hh does not report one phi and one Phi per level"
    prev: list = []
    for level in payload["Phi"]:
        cur = [Fraction(b) for b in level["breaks"]]
        if cur[: len(prev)] != prev or len(cur) <= len(prev):
            return f"Phi level {level['level']} does not extend the previous level"
        prev = cur
    if prev != breaks:
        return "hh breaks differ from the breaks command at the same depth"
    return None


def max_denominator_bits(payload: dict) -> int:
    values = list(payload["breaks"])
    for level in payload.get("Phi", []):
        values.extend(v for pair in level["vertices"] for v in pair)
    return max((Fraction(v).denominator.bit_length() for v in values), default=0)


def check_svg(text: str) -> Optional[str]:
    if not text.startswith("<svg") or not text.rstrip().endswith("</svg>"):
        return "plot output is not an SVG document"
    return None
