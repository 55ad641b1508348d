"""Input documents: parsing and validation.

An input document bundles a coefficient-valuation profile with recorded
branch data.  All rationals travel as strings ("a/b", "a", or "inf");
every parse failure raises ``InputError`` (defined in ``valuations`` and
re-exported here) naming the offending field; a branch that fails
validation raises ``BranchDataError``, the ``InputError`` on
``branch_valuations``.  The JSON schema at schema/input.schema.json in the
source tree, not installed with the package, mirrors these rules for
external tooling.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import NamedTuple, Optional

from .branches import (
    BranchValuationRecord,
    PolynomialValuationProfile,
    _leading_zeros,
    build_record,
)
from .valuations import (
    InputError,
    _check_prime,
    check_r_digits,
    format_rational,
    parse_rational,
)

__all__ = ["InputDocument", "InputError", "parse_document", "load_document"]

INDEX_PATTERN = re.compile(r"[1-9][0-9]*")
KNOWN_FIELDS = frozenset(
    "p r v_p e_ke coeff_valuations base_valuation branch_valuations d leading_zeros".split()
)


class InputDocument(NamedTuple):
    """Validated input: the coefficient-valuation profile, the validated
    branch record and the caller's d, if given."""

    profile: PolynomialValuationProfile
    record: BranchValuationRecord
    d: Optional[int] = None


def _require_int(obj, field, minimum=None):
    value = obj.get(field)
    if not isinstance(value, int) or isinstance(value, bool):
        raise InputError(field, f"expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise InputError(field, f"must be >= {minimum}, got {value}")
    return value


def _index(key, q: int) -> int:
    """A coefficient index written as in the schema (ASCII, no sign, no
    leading zero); -1 for any other key.  A key too long for ``int`` reads
    as q + 1: a valid document writes its index q, so q is shorter."""
    text = str(key)
    if not INDEX_PATTERN.fullmatch(text):
        return -1
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter's limit
        return q + 1


def _rational(raw, field: str, *key) -> Optional[Fraction]:
    """``parse_rational(raw)``, failing with an ``InputError`` on ``field % key``."""
    if not isinstance(raw, str):
        raise InputError(field % key, f"expected a rational string, got {raw!r}")
    try:
        return parse_rational(raw)
    except ValueError as exc:
        raise InputError(field % key, str(exc)) from exc


def parse_document(obj) -> InputDocument:
    """Validate a decoded JSON object into an InputDocument.

    Every constraint violation is reported against the field that breaks
    it, including the cross-field ones (branch head versus base valuation,
    declared leading zeros versus infinite entries, coefficient bounds).
    Each field is parsed once, the coefficient keys in index order (ties in
    the document's order), and a field's name is formatted only on error.
    """
    if not isinstance(obj, dict):
        raise InputError("$", f"expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in KNOWN_FIELDS:
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
    # the position n breaks ties, so equal indices keep the document's order
    indexed = [(_index(key, q), n, key, raw) for n, (key, raw) in enumerate(raw_coeffs.items())]
    for i, _n, key, raw in sorted(indexed):
        if not 0 < i <= q:
            why = "index must be a positive integer string without leading zeros"
            raise InputError(f"coeff_valuations[{key}]", why if i < 0 else f"index outside 1..{q}")
        value = _rational(raw, "coeff_valuations[%s]", key)
        if value is None:
            continue  # explicit zero coefficient
        if value.denominator != 1 or value.numerator < 0:
            why = f"valuations of coefficients are nonnegative integers, got {raw!r}"
            raise InputError(f"coeff_valuations[{key}]", why)
        coeffs[i] = value.numerator

    base = _rational(obj.get("base_valuation"), "base_valuation")

    raw_branch = obj.get("branch_valuations")
    if not isinstance(raw_branch, list) or not raw_branch:
        raise InputError("branch_valuations", "expected a nonempty array of rational strings")
    branch = [_rational(raw, "branch_valuations[%d]", n) for n, raw in enumerate(raw_branch)]
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

    # a profile invariant violation is reported on coeff_valuations; a bad
    # branch raises BranchDataError, already the InputError on branch_valuations
    try:
        profile = PolynomialValuationProfile(p=p, r=r, v_p=v_p, coeff_valuations=coeffs, e_ke=e_ke)
    except ValueError as exc:
        raise InputError("coeff_valuations", str(exc)) from exc
    return InputDocument(profile=profile, record=build_record(profile, branch), d=d)


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
