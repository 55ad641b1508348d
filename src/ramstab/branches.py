"""Valuation dynamics along a branch of backward iterates.

A branch is a compatible sequence (a_0, a_1, ...) with P(a_n) = a_{n-1};
only the valuations of its members matter here.  From the polygon of
P(x) - a_{n-1} the possible valuations of a_n are exactly the negated
segment slopes, so a recorded branch can be validated step by step.  Once
a step is forced (single-slope) every later one is, and each divides the
valuation by q, so a record is extended in closed form.

The quantity d (the eventual valuation of a_n measured against a
uniformizer of its own level) is NOT computable from valuations alone.
The estimator here assumes minimal ramification at each level and always
reports its trust level; trusted values come only from the caller or from
a uniformizer base point, where every level is Eisenstein and d = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, NamedTuple, Optional, Sequence, Tuple

from .polygons import lower_hull
from .valuations import InputError, _check_prime

__all__ = [
    "PolynomialValuationProfile",
    "BranchValuationRecord",
    "BranchDataError",
    "branch_step_candidates",
    "zero_departure_candidates",
    "build_record",
    "is_forced_step",
    "halving_level",
    "minimal_d_estimate",
    "estimate_d",
    "stability_screen",
    "find_stable_index",
]


class BranchDataError(InputError):
    """Branch data that violates the valuation-dynamics invariants: an
    input error on the document's ``branch_valuations``."""

    def __init__(self, message: str):
        super().__init__("branch_valuations", message)


def _leading_zeros(valuations: Sequence[Optional[Fraction]]) -> int:
    """Number of leading None (zero base point) entries."""
    return next((n for n, v in enumerate(valuations) if v is not None), len(valuations))


class _constant:
    """``functools.cached_property`` as of Python 3.12, without 3.11's lock
    on each first access: the value is stored in the instance's ``__dict__``."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


class PolynomialValuationProfile:
    """Valuation data of a monic degree-q polynomial congruent to x^q mod pi.

    ``coeff_valuations`` maps indices 1..q to integer valuations in the
    value group; absent indices are zero coefficients.
    The normalization is v(E) = Z for a subfield E over which the ground
    field K has ramification index ``e_ke``, and ``v_p`` = v(p).  Profiles
    compare by these five fields, and are not changed once built: what
    depends on them is cached.
    """

    def __init__(
        self, p: int, r: int, v_p: int, coeff_valuations: Mapping[int, int], e_ke: int = 1
    ):
        if not isinstance(p, int) or p < 2:
            raise ValueError(f"p must be an integer >= 2, got {p!r}")
        if not _check_prime(p):
            raise ValueError(f"p={p} is not prime")
        if not isinstance(r, int) or r < 1:
            raise ValueError(f"r must be a positive integer, got {r!r}")
        if not isinstance(v_p, int) or v_p < 1:
            raise ValueError(f"v_p must be a positive integer, got {v_p!r}")
        if not isinstance(e_ke, int) or e_ke < 1:
            raise ValueError(f"e_ke must be a positive integer, got {e_ke!r}")
        self.p, self.r, self.v_p, self.e_ke = p, r, v_p, e_ke
        q = self.q
        self.coeff_valuations = coeffs = dict(coeff_valuations)
        for i, v in coeffs.items():
            if not isinstance(i, int) or not 1 <= i <= q:
                raise ValueError(f"coefficient index {i!r} outside 1..{q}")
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"coeff_valuations[{i}] must be a nonnegative integer, got {v!r}")
            if i < q and v < 1:
                raise ValueError(
                    f"coeff_valuations[{i}] must be >= 1 for non-leading coefficients "
                    "(the polynomial is congruent to x^q modulo the maximal ideal)"
                )
        if coeffs.get(q) != 0:
            raise ValueError(f"coeff_valuations[{q}] must be present and 0 (monic)")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self):
        return "PolynomialValuationProfile(p=%r, r=%r, v_p=%r, coeff_valuations=%r, e_ke=%r)" % (
            self._key()
        )

    def _key(self):
        return self.p, self.r, self.v_p, self.coeff_valuations, self.e_ke

    # q, the hull and the constants of the level scan depend on the
    # polynomial alone, so each is computed once per profile
    @_constant
    def q(self) -> int:
        return self.p**self.r

    @_constant
    def coefficient_floor(self) -> Optional[int]:
        """Smallest valuation among nonzero coefficients of index < q; None if none."""
        q = self.q
        return min((v for i, v in self.coeff_valuations.items() if i < q), default=None)

    @_constant
    def q_squared(self) -> int:
        return self.q * self.q

    @_constant
    def screen_threshold(self) -> str:
        """The text of the stability screen's threshold 1/q^2."""
        return f"1/{self.q_squared}"

    @_constant
    def screen_texts(self) -> Tuple[str, Optional[str]]:
        """The stability screen's texts of p and of the floor (None without one)."""
        return str(self.p), None if self.coefficient_floor is None else str(self.coefficient_floor)

    def within_threshold(self, a: int, b: int) -> bool:
        """|v| <= 1/q^2 for v = a/b with b > 0, tested as |a| q^2 <= b."""
        return abs(a) * self.q_squared <= b

    @_constant
    def forced_step_bound(self) -> Optional[Tuple[int, int]]:
        """q times the smallest root valuation as an integer pair; None for x^q."""
        roots = self.coefficient_hull[1]
        return (self.q * roots[-1]).as_integer_ratio() if roots else None

    @_constant
    def coefficient_hull(self) -> Tuple[Tuple[Tuple[int, int], ...], Tuple[Fraction, ...]]:
        """Vertices of the lower hull of the coefficient points (i, v(P_i)) and
        its root valuations (negated segment slopes, decreasing).

        The hull is a constant of the polynomial, so it is built once per
        profile; every branch step is a query against it.  The monomial x^q
        has the single vertex (q, 0) and no segments.
        """
        points = list(self.coeff_valuations.items())
        if len(points) < 2:
            return tuple(points), ()
        hull = lower_hull(points)
        return hull, tuple(
            Fraction(y0 - y1, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])
        )


class BranchValuationRecord(NamedTuple):
    """Recorded (and possibly extended) valuations along one branch.

    Leading None entries are base points equal to zero; after the first
    rational entry all valuations are nonzero and share one sign.
    ``d_estimates`` aligns with ``valuations`` (None on the zero entries).
    """

    valuations: Tuple[Optional[Fraction], ...]
    d_estimates: Tuple[Optional[int], ...]

    @property
    def leading_zeros(self) -> int:
        return _leading_zeros(self.valuations)

    @property
    def sign(self) -> int:
        """Sign of the first nonzero base valuation (+1 for branches that start at zero)."""
        first = self.first_finite()
        return -1 if first is not None and first < 0 else 1

    def first_finite(self) -> Optional[Fraction]:
        return next((v for v in self.valuations if v is not None), None)


def _tangent_step(profile: PolynomialValuationProfile, v: Fraction) -> Tuple[int, int, int]:
    """The step from a finite v as (j, a, b): the candidates are a/b (b > 0,
    not always in lowest terms), the negated slope of the tangent from
    (0, v) to the coefficient hull's vertex j, and the root valuations
    from ``coefficient_hull[1][j]`` on.

    The slope from (0, v) to vertex j + 1 is a weighted mean of the slope
    to vertex j and the slope of hull segment j, so it does not rise while
    that segment's root valuation (y_j - y_{j+1}) / (x_{j+1} - x_j) is at
    least a/b, compared on integers.  Ties advance: collinear points are
    never vertices, so the tangent vertex is the last of least slope.
    """
    vertices = profile.coefficient_hull[0]
    n, d = v.numerator, v.denominator
    x, y = vertices[0]
    a, b = n - y * d, x * d
    j = 0
    for x1, y1 in vertices[1:]:
        if (y - y1) * b < a * (x1 - x):
            break
        j, x, y = j + 1, x1, y1
        a, b = n - y * d, x * d
    return j, a, b


def branch_step_candidates(profile: PolynomialValuationProfile, v_prev) -> list[Fraction]:
    """Possible valuations of a_n given v(a_{n-1}) = v_prev, in decreasing order.

    These are the negated slopes of the lower hull of (0, v_prev) together
    with the coefficient points (i, v(P_i)), as ``_tangent_step`` finds
    them; the constant coefficient of P(x) - a_{n-1} is -a_{n-1} exactly, so
    no cancellation can occur and the candidate list is exact.
    """
    if v_prev is None:
        raise BranchDataError(
            "previous valuation is infinite (zero base point); "
            "use zero_departure_candidates for the step leaving zero"
        )
    v = v_prev if type(v_prev) is Fraction else Fraction(v_prev)
    j, a, b = _tangent_step(profile, v)
    return [Fraction(a, b), *profile.coefficient_hull[1][j:]]


def zero_departure_candidates(profile: PolynomialValuationProfile) -> list[Fraction]:
    """Valuations of the nonzero preimages of zero, in decreasing order."""
    _vertices, roots = profile.coefficient_hull
    if not roots:
        raise BranchDataError(
            "every preimage of zero is zero for this profile; the branch never leaves zero"
        )
    return list(roots)


def _step_candidates(profile, v_prev: Optional[Fraction]):
    if v_prev is None:
        return zero_departure_candidates(profile)
    return branch_step_candidates(profile, v_prev)


def minimal_d_estimate(v, e_ke: int) -> int:
    """d under the minimal-ramification heuristic.

    With v(E) = Z, a level of valuation v = a/b forces the level's
    ramification index over E to be a multiple of both b and e_ke; assuming
    it equals lcm(b, e_ke) gives d = v * lcm(b, e_ke), an integer.
    """
    b = v.denominator
    return v.numerator * (math.lcm(b, e_ke) // b)


def build_record(
    profile: PolynomialValuationProfile, valuations: Sequence
) -> BranchValuationRecord:
    """Validate raw branch valuations and assemble a BranchValuationRecord.

    ``valuations`` are rationals (anything ``Fraction`` accepts), with None
    for a base point equal to zero.  Rejects: empty input, a None entry
    after a rational one, zero or mixed-sign entries, and consecutive pairs
    where the later value is not a root valuation of P(x) minus the
    earlier level.
    """
    vals = tuple(v if v is None or type(v) is Fraction else Fraction(v) for v in valuations)
    if not vals:
        raise BranchDataError("branch valuations must be nonempty")
    seen_finite = False
    sign = 0
    for n, v in enumerate(vals):
        if v is None:
            if seen_finite:
                raise BranchDataError(
                    f"valuations[{n}] is infinite after a finite entry "
                    "(a branch cannot return to zero)"
                )
            continue
        if not v.numerator:
            raise BranchDataError(f"valuations[{n}] is zero; base points of valuation 0 are not supported")
        if not seen_finite:
            sign = 1 if v.numerator > 0 else -1
            seen_finite = True
        elif (1 if v.numerator > 0 else -1) != sign:
            raise BranchDataError(
                f"valuations[{n}] = {v} has the opposite sign of the first nonzero valuation"
            )
    for n in range(len(vals) - 1):
        prev, nxt = vals[n], vals[n + 1]
        if nxt is None:
            continue
        if prev is None:
            accepted = nxt in zero_departure_candidates(profile)
        else:
            j, a, b = _tangent_step(profile, prev)
            accepted = (
                nxt.numerator * b == a * nxt.denominator or nxt in profile.coefficient_hull[1][j:]
            )
        if not accepted:
            candidates = _step_candidates(profile, prev)
            raise BranchDataError(
                f"valuations[{n + 1}] = {nxt} is not a root valuation at step {n}; "
                f"the polygon allows {[str(c) for c in candidates]}"
            )
    d_estimates = tuple(
        None if v is None else minimal_d_estimate(v, profile.e_ke) for v in vals
    )
    return BranchValuationRecord(valuations=vals, d_estimates=d_estimates)


def is_forced_step(profile: PolynomialValuationProfile, v: Fraction) -> bool:
    """Whether the step from a finite valuation v is forced, with the single
    candidate v/q: the hull of (0, v) and the coefficient points is then one
    segment to (q, 0).  That holds iff v < 0, or P = x^q, or v <= q times
    the smallest root valuation, and it stays true as |v| shrinks."""
    n, bound = v.numerator, profile.forced_step_bound
    return n < 0 or bound is None or n * bound[1] <= bound[0] * v.denominator


def halving_level(profile: PolynomialValuationProfile, record: BranchValuationRecord) -> int:
    """The level N from which every step is forced, v(a_{N+k}) = v(a_N)/q^k:
    the first finite recorded level passing ``is_forced_step``, or the
    record's length for a record that ends at zero with a forced step
    leaving zero.  Otherwise the last recorded step is ambiguous, which
    reflects arithmetic beyond valuation data, and this raises."""
    vals = record.valuations
    for n, v in enumerate(vals):
        if v is not None and is_forced_step(profile, v):
            return n
    candidates = _step_candidates(profile, vals[-1])
    if len(candidates) == 1:
        return len(vals)
    raise BranchDataError(
        f"cannot extend: step {len(vals) - 1} has {len(candidates)} candidate "
        f"valuations {[str(c) for c in candidates]}; supply more branch data"
    )


def estimate_d(
    profile: PolynomialValuationProfile, record: BranchValuationRecord
) -> Tuple[int, bool]:
    """Heuristic limiting d: the last minimal-ramification estimate.

    Trusted only when the base point is a uniformizer of the ground field
    (v(a_0) * e_ke = 1), where every level is Eisenstein and d = 1;
    otherwise the value is advisory and certificates that depend on it are
    marked conditional.
    """
    last = record.d_estimates[-1]  # only leading entries are None
    if last is None:
        raise BranchDataError("record has no finite valuations to estimate d from")
    first = record.valuations[0]
    if first is not None and first.numerator * profile.e_ke == first.denominator:
        return 1, True
    return last, False


def _screen_passes(profile: PolynomialValuationProfile, a: int, b: int, d_n: int) -> tuple:
    """The pass bits of ``stability_screen``'s comparisons at a level of valuation a/b, b > 0."""
    floor = profile.coefficient_floor
    return profile.within_threshold(a, b), d_n % profile.p != 0, floor is None or a < floor * b


def stability_screen(
    profile: PolynomialValuationProfile, v: Fraction, d_n: int
) -> Tuple[Tuple[str, str, str, str, bool], ...]:
    """The stability screen of one level as (name, lhs, op, rhs, passed) comparisons.

    Screens for: |v| <= 1/q^2, the minimal-ramification d-estimate prime to
    p, and v below every finite non-leading coefficient valuation (vacuous
    when there is none).  "Prime to p" is interpreted on the numerator of
    the d-estimate; the interpretation is recorded in every emitted
    certificate.  The constant texts are the profile's.
    """
    a, b = v.numerator, v.denominator
    threshold_ok, tame_ok, below_ok = _screen_passes(profile, a, b, d_n)
    text = f"{a}/{b}" if b != 1 else str(a)
    p_text, floor_text = profile.screen_texts
    op, rhs = ("<", floor_text) if floor_text is not None else ("==", text)
    return (
        ("valuation-threshold", text.lstrip("-"), "<=", profile.screen_threshold, threshold_ok),
        ("d-estimate-prime-to-p", p_text, "not-divides", str(abs(d_n)), tame_ok),
        ("valuation-below-coefficients", text, op, rhs, below_ok),
    )


def find_stable_index(
    profile: PolynomialValuationProfile, record: BranchValuationRecord
) -> Optional[int]:
    """First recorded level passing every comparison of the stability screen (no text is built)."""
    for n, (v, d_n) in enumerate(zip(record.valuations, record.d_estimates)):
        if v is not None and all(_screen_passes(profile, v.numerator, v.denominator, d_n)):
            return n
    return None
