"""Input documents: parsing, validation and round-trip serialization.

An input document bundles a coefficient-valuation profile with recorded
branch data.  All rationals travel as strings ("a/b", "a", or "inf");
every parse failure names the offending field.  The JSON schema shipped
at schema/input.schema.json mirrors these rules for external tooling.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .branches import (
    BranchDataError,
    BranchValuationRecord,
    PolynomialValuationProfile,
    _leading_zeros,
    build_record,
)
from .valuations import _check_prime, digit_limit, format_rational, parse_rational, power_of_ten

__all__ = [
    "InputDocument", "InputError", "parse_document", "load_document", "check_r_digits",
    "check_printable",
]

INDEX_PATTERN = re.compile(r"[1-9][0-9]*")


class InputError(ValueError):
    """Invalid input document; carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class InputDocument(NamedTuple):
    """Validated input: the coefficient-valuation profile, the validated
    branch record and the caller's d, if given."""

    profile: PolynomialValuationProfile
    record: BranchValuationRecord
    d: Optional[int] = None

    def to_json(self) -> dict:
        profile, record = self.profile, self.record
        out = {
            "p": profile.p,
            "r": profile.r,
            "v_p": profile.v_p,
            "e_ke": profile.e_ke,
            "coeff_valuations": {
                str(i): str(v) for i, v in sorted(profile.coeff_valuations.items())
            },
            "base_valuation": format_rational(record.valuations[0]),
            "branch_valuations": [format_rational(v) for v in record.valuations],
        }
        if self.d is not None:
            out["d"] = self.d
        if record.leading_zeros:
            out["leading_zeros"] = record.leading_zeros
        return out


def _require_int(obj, field, minimum=None):
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(field, f"must be >= {minimum}, got {value}")
    return value


def check_r_digits(p: int, e: int, name: str, why: str) -> None:
    """Reject an ``r`` whose power ``name`` = p^e has more digits than the
    limit; ``why`` says what would have to print it.

    This is decided before p^e is computed: since 2^(b-1) <= p < 2^b for the
    bit length b of p, and 2^(3L) < 10^L < 2^(4L) for the limit L, bit
    lengths settle every case but a narrow band, where p^e has fewer than
    8L bits and the exact compare is cheap.
    """
    limit = digit_limit()
    if not limit:
        return
    b = p.bit_length()
    if e * (b - 1) >= 4 * limit or (e * b > 3 * limit and p**e >= power_of_ten(limit)):
        raise InputError("r", f"{name} = {p}^{e} has more than {limit} digits, so {why}")


def check_printable(n: int, name: str, why: str, field: str = "r") -> None:
    """Reject a ``field``, by default ``r``, that gives the integer
    ``name`` = n more digits than the limit; ``why`` says what would have
    to print it.  Bit lengths settle every case but the band of
    ``check_r_digits``."""
    limit = digit_limit()
    b = abs(n).bit_length()
    if limit and b > 3 * limit and (b - 1 >= 4 * limit or abs(n) >= power_of_ten(limit)):
        raise InputError(field, f"{name} has more than {limit} digits, so {why}")


def denominator_field(q: int) -> str:
    """The field at fault when a denominator of a completed record has more
    digits than the limit: ``r`` when q^3, the last denominator for a base
    of magnitude 1, has, else ``base_valuation``."""
    return "r" if q**3 >= power_of_ten(digit_limit()) else "base_valuation"


def _index(key, q: int) -> int:
    """A coefficient index written as in the schema (ASCII, no sign, no
    leading zero); -1 for any other key.  A key too long for ``int`` reads
    as q + 1: a valid document writes its index q, so q is shorter."""
    text = str(key)
    if not INDEX_PATTERN.fullmatch(text):
        return -1
    limit = digit_limit()
    return q + 1 if limit and len(text) > limit else int(text)


def _parse_valuation_string(field, raw) -> Optional[Fraction]:
    if not isinstance(raw, str):
        raise InputError(field, f"expected a rational string, got {raw!r}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise InputError(field, str(exc)) from exc


def parse_document(obj) -> InputDocument:
    """Validate a decoded JSON object into an InputDocument.

    Every constraint violation is reported against the field that breaks
    it, including the cross-field ones (branch head versus base valuation,
    declared leading zeros versus infinite entries, coefficient bounds).
    """
    if not isinstance(obj, dict):
        raise InputError("$", f"expected a JSON object, got {type(obj).__name__}")
    known = {
        "p", "r", "v_p", "e_ke", "coeff_valuations",
        "base_valuation", "branch_valuations", "d", "leading_zeros",
    }
    for key in obj:
        if key not in known:
            raise InputError(key, "unknown field")
    p = _require_int(obj, "p", minimum=2)
    try:
        prime = _check_prime(p)
    except ValueError as exc:  # p too large to decide
        raise InputError("p", str(exc)) from exc
    if not prime:
        raise InputError("p", f"{p} is not prime")
    r = _require_int(obj, "r", minimum=1)
    check_r_digits(p, r, "q", "no document can write its index q")
    v_p = _require_int(obj, "v_p", minimum=1)
    e_ke = _require_int(obj, "e_ke", minimum=1) if "e_ke" in obj else 1
    q = p**r

    raw_coeffs = obj.get("coeff_valuations")
    if not isinstance(raw_coeffs, dict):
        raise InputError("coeff_valuations", "expected an object of index -> valuation")
    coeffs = {}
    for key, raw in sorted(raw_coeffs.items(), key=lambda kv: _index(kv[0], q)):
        field = f"coeff_valuations[{key}]"
        i = _index(key, q)
        if i < 0:
            raise InputError(field, "index must be a positive integer string without leading zeros")
        if i > q:
            raise InputError(field, f"index outside 1..{q}")
        value = _parse_valuation_string(field, raw)
        if value is None:
            continue  # explicit zero coefficient
        if value.denominator != 1 or value < 0:
            raise InputError(field, f"valuations of coefficients are nonnegative integers, got {raw!r}")
        coeffs[i] = int(value)

    base = _parse_valuation_string("base_valuation", obj.get("base_valuation"))

    raw_branch = obj.get("branch_valuations")
    if not isinstance(raw_branch, list) or not raw_branch:
        raise InputError("branch_valuations", "expected a nonempty array of rational strings")
    branch = tuple(
        _parse_valuation_string(f"branch_valuations[{n}]", raw)
        for n, raw in enumerate(raw_branch)
    )
    if branch[0] != base:
        raise InputError(
            "branch_valuations[0]",
            f"head {format_rational(branch[0])} disagrees with base_valuation "
            f"{format_rational(base)}",
        )

    d = None
    if "d" in obj:
        d = _require_int(obj, "d")
        if d == 0:
            raise InputError("d", "d is a nonzero integer")

    infinite_prefix = _leading_zeros(branch)
    if "leading_zeros" in obj:
        leading_zeros = _require_int(obj, "leading_zeros", minimum=0)
        if leading_zeros != infinite_prefix:
            raise InputError(
                "leading_zeros",
                f"declared {leading_zeros} but branch_valuations starts with "
                f"{infinite_prefix} infinite entries",
            )

    # surface profile/record invariant violations with their field names
    try:
        profile = PolynomialValuationProfile(
            p=p, r=r, v_p=v_p, coeff_valuations=coeffs, e_ke=e_ke
        )
    except ValueError as exc:
        raise InputError("coeff_valuations", str(exc)) from exc
    try:
        record = build_record(profile, branch)
    except BranchDataError as exc:
        raise InputError("branch_valuations", str(exc)) from exc
    return InputDocument(profile=profile, record=record, d=d)


def load_document(path) -> InputDocument:
    """Read and validate an input document from a JSON file.

    A missing, unreadable or undecodable file is reported against the
    document root "$".
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("$", f"cannot read the document: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError("$", f"not valid JSON: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # an over-long integer, too deep nesting
        raise InputError("$", f"cannot decode the document: {exc}") from exc
    return parse_document(obj)
