"""Exact valuations: finite rationals, and the prime test.

Every valuation computed by this package is a finite ``fractions.Fraction``.
No floating point is used anywhere; geometric decisions downstream hinge
on comparisons between rationals whose differences can be as small as
1/q^n.  The valuation of zero exists only in documents, spelled "inf":
``parse_rational`` reads it as None and ``format_rational`` prints None as
it.  Inside the pipeline a zero coefficient is an index absent from a
profile's coefficient valuations, and a zero base point is a None entry of
a branch record.

Also provides ``format_ratio``, which prints the tower's integer pairs,
the exact prime test below ``PRIME_BOUND``, ``digit_limit``, the
interpreter's limit on the digits of an int, with ``power_of_ten`` to
test against it, and ``TowerInvariantError``, kept here so that ``cli``
imports no tower module for the commands that build no tower.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from typing import Optional

__all__ = [
    "parse_rational",
    "format_rational",
    "format_ratio",
]

RATIONAL_PATTERN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Optional[Fraction]:
    """Parse ``"a/b"``, ``"a"`` or ``"inf"``; ``"inf"`` (a zero value) is None.

    Digits are ASCII and no surrounding whitespace is allowed, as in the
    input schema.  The denominator, when present, must be positive.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {type(text).__name__}")
    if text == "inf":
        return None
    if not RATIONAL_PATTERN.fullmatch(text):
        raise ValueError(f"malformed rational {text!r} (expected 'a', 'a/b' or 'inf')")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


def logger(name: str, level: str):
    """The logger ``name`` if ``logging`` is loaded and it is enabled for
    ``level``, else None.

    The package emits only info and debug records, and ``cli.main`` loads
    ``logging`` only when RAMSTAB_LOG asks for them; before that nothing is
    configured, so those records would be dropped anyway.
    """
    logging = sys.modules.get("logging")
    if logging is None:
        return None
    log = logging.getLogger(name)
    return log if log.isEnabledFor(getattr(logging, level)) else None


def digit_limit() -> int:
    """The interpreter's limit on the digits of an int read from or written
    to a string; 0 when there is none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


@lru_cache(maxsize=None)
def power_of_ten(limit: int) -> int:
    """10**limit, the least integer with more than ``limit`` digits, built
    once per limit for the exact print-limit tests."""
    return 10**limit


def format_rational(value: Optional[Fraction]) -> str:
    """Serialize a rational as ``"a/b"`` or ``"a"``, and None as ``"inf"``."""
    if value is None:
        return "inf"
    # a Fraction or an int already prints in lowest terms
    return str(value) if type(value) in (Fraction, int) else str(Fraction(value))


def format_ratio(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for integers ``n`` and ``d > 0``, reduced by one gcd."""
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


# Miller-Rabin to the prime bases up to 41 decides primality exactly below
# PRIME_BOUND (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017)
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


@lru_cache(maxsize=None)
def _check_prime(p: int) -> bool:
    """Whether ``p`` is prime, for ``p`` below PRIME_BOUND."""
    if p >= PRIME_BOUND:
        raise ValueError(f"{p} is not below {PRIME_BOUND}, the bound of the exact prime test")
    if p < 2 or p in PRIME_BASES:
        return p >= 2
    if any(p % a == 0 for a in PRIME_BASES):
        return False
    odd, twos = p - 1, 0
    while odd % 2 == 0:
        odd, twos = odd // 2, twos + 1
    # p is a strong probable prime to base a when a^odd is 1, or when
    # squaring it fewer than ``twos`` times reaches -1
    for a in PRIME_BASES:
        x = pow(a, odd, p)
        if x != 1 and all(pow(x, 1 << i, p) != p - 1 for i in range(twos)):
            return False
    return True


class TowerInvariantError(ValueError):
    """A structural property of the tower failed; names the violated property
    (``level-convexity``, ``vertex-positivity`` or ``composition-gap``)."""

    def __init__(self, prop: str, detail: str):
        self.prop = prop
        super().__init__(f"tower invariant '{prop}' violated: {detail}")

