"""Rational strings at the document edge and base-p carry counting."""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from helpers import int_digit_limit, kummer_carries

from ramstab.valuations import (
    PRIME_BOUND,
    InputError,
    _check_prime,
    check_printable,
    check_r_digits,
    format_rational,
    parse_rational,
    power_prints,
)

SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "input.schema.json"


class TestPrimeCheck:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))

        assert all(_check_prime(n) == trial(n) for n in range(20_000))

    def test_strong_pseudoprimes_are_composite(self):
        # 3215031751 passes the bases 2..7, the next one the bases 2..37
        assert not _check_prime(3215031751)
        assert not _check_prime(318665857834031151167461)
        assert _check_prime(10**18 + 3)

    def test_bound_is_refused(self):
        assert not _check_prime(PRIME_BOUND - 1)
        with pytest.raises(ValueError, match="not below"):
            _check_prime(PRIME_BOUND)


def str_fails(n):
    try:
        str(n)
    except ValueError:
        return True
    return False


def raises_input_error(check, *args):
    try:
        check(*args)
    except InputError as exc:
        assert exc.field == "r" and "has more than" in str(exc)
        return True
    return False


L = 640  # the smallest limit the interpreter allows


class TestPrintRule:
    """Each test of the print rule agrees with whether ``str()`` succeeds."""

    NUMBERS = [10**L - 1, -(10**L - 1), 10**L, -(10**L), 2 ** (3 * L), 2 ** (4 * L)]
    # p^e, and factor * p^e for the tower's test, at the numbers above
    POWERS = [(3, 2, (10**L - 1) // 9), (2, L, 5**L), (2, 3 * L, 1), (2, 4 * L, 1)]
    # at e (bitlen(p) - 1) = 4L - 1 where it can be, and at 4L: the last
    # power left to the exact test and the first decided by bit lengths
    EDGES = [(p, e) for p in (2, 3, 7) for e in ((4 * L - 1) // (p.bit_length() - 1),
                                                 -(-4 * L // (p.bit_length() - 1)))]

    def test_numbers(self):
        with int_digit_limit(L):
            for n in self.NUMBERS:
                assert raises_input_error(check_printable, n, "n", "why") == str_fails(n), n

    def test_powers(self):
        with int_digit_limit(L):
            for p, e, factor in self.POWERS + [(p, e, 1) for p, e in self.EDGES]:
                assert power_prints(p, e, factor) != str_fails(factor * p**e), (p, e)
                if factor == 1:
                    assert raises_input_error(check_r_digits, p, e, "q", "why") == str_fails(p**e)

    def test_no_limit_prints_everything(self):
        with int_digit_limit(0):
            for n in self.NUMBERS:
                check_printable(n, "n", "why")
            for p, e in self.EDGES:
                assert power_prints(p, e)
                check_r_digits(p, e, "q", "why")


class TestRationalStrings:
    def test_str_and_parse_round_trip(self):
        for text in ["0", "5", "-7", "2/3", "-29/9", "inf"]:
            assert format_rational(parse_rational(text)) == text
        assert parse_rational("inf") is None
        assert parse_rational("-29/9") == Fraction(-29, 9)

    def test_parse_rejects_malformed(self):
        schema_invalid = [
            "", "1.5", "a/b", "1/ 2", "+inf", "Infinity",
            "\u0664", " 4", "4\n",  # ARABIC-INDIC DIGIT FOUR, whitespace
        ]
        for bad in schema_invalid + ["2/0"]:
            with pytest.raises(ValueError):
                parse_rational(bad)
        # the schema pattern cannot rule out a zero denominator; it rejects the rest
        jsonschema = pytest.importorskip("jsonschema")
        rational = json.loads(SCHEMA.read_text())["$defs"]["rational"]
        for bad in schema_invalid:
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(bad, rational)

    def test_format_rational(self):
        assert format_rational(Fraction(6, 3)) == "2"
        assert format_rational(Fraction(-4, 6)) == "-2/3"
        assert format_rational(-7) == "-7"
        assert format_rational("4/6") == "2/3"  # other types go through Fraction
        assert format_rational(None) == "inf"


class TestKummerCarries:
    def test_examples(self):
        # 84 = C(9,3) has 3-adic valuation 1; C(9,1) = 9 = 3^2; C(9,9) = 1
        assert kummer_carries(9, 3, 3) == 1
        assert kummer_carries(9, 9, 3) == 0
        assert kummer_carries(9, 1, 3) == 2

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kummer_carries(3, 5, 3)
        with pytest.raises(ValueError):
            kummer_carries(9, 3, 4)
        with pytest.raises(ValueError):
            kummer_carries(9, 3, 1)
        with pytest.raises(ValueError):
            kummer_carries(9, -1, 3)

    def test_small_factorial_oracle(self):
        # exhaustive small sweep; the full sweep is an acceptance criterion
        from helpers import legendre_factorial_table

        for p in (2, 3, 5):
            table = legendre_factorial_table(p**3, p)
            for j in range(p**3 + 1):
                for i in range(j + 1):
                    assert kummer_carries(j, i, p) == table[j] - table[i] - table[j - i]

    def test_large_prime_spot_checks(self):
        # exhaustive sweeps stop at p = 7; sample the larger primes
        from helpers import legendre_factorial_table

        rng = random.Random(13)
        for p in (11, 13):
            table = legendre_factorial_table(p**4, p)
            for _ in range(20_000):
                j = rng.randint(0, p**4)
                i = rng.randint(0, j)
                assert kummer_carries(j, i, p) == table[j] - table[i] - table[j - i]

    def test_carry_drop_structure_small(self):
        # dropping to the next prime power loses at most one carry, exactly
        # one when any carry is present
        for p in (2, 3):
            for j in range(1, p**3 + 1):
                k = 0
                while p ** (k + 1) <= j:
                    a = kummer_carries(j, p**k, p)
                    b = kummer_carries(j, p ** (k + 1), p)
                    assert b >= a - 1
                    assert (b == a - 1) == (a != 0)
                    k += 1
