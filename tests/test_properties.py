"""Generated branches: documents, certificates and towers.

Profiles, base valuations and slope choices are drawn by Hypothesis; the
branch comes from ``predict_branch``.  Documents round-trip through the
document edge and the schema, every certificate re-validates, and the
closed-form tower of a certified branch matches the general composition
of its transition functions, and its ``hh`` entries match the per-level
oracle.  The integer tower builder agrees with the ``Fraction`` fold of
the level model, in its result or in the exception it raises.  Runs are derandomized, so the suite sees the same examples every
time.  Branch steps, which query the profile's cached coefficient hull,
agree with a fresh ``lower_hull`` of the step's points, and record
completion in closed form agrees with a walk of such hulls, which, walked
further, changes no d-estimate or certificate verdict.  The one-pass
limiting-data table agrees with a per-k scan of Kummer carries, and its
integer surrogate hull with the ``Fraction`` one.  ``certify``, which
builds the level scan's constants once, agrees with the oracle that
builds every level's checks afresh, on long records too, and
``find_stable_index`` names the first level the oracle's screen passes.
``build_record`` accepts a step exactly when a fresh hull lists it.  The
report writer prints generated JSON values, lists of flat dicts included,
exactly as ``json.dumps(indent=2)``, a certificate's check rows as
``json.dumps`` prints their dicts, and ``hh``'s tower text as
``json.dumps`` prints the per-level oracle.  An integer pair prints as
its ``Fraction`` does, and their quotient is that ``Fraction``'s float.
On a uniformizer base, Hilbert's different read off ``hh`` equals the
running sum of the Eisenstein layers' ``v(P'(a_n))``.  Documents with
one to three fields of a fixture or a ``bench/gen.py`` document changed
parse, or fail on the same field with the same message, as under
``parse_document_oracle``.  ``certify`` without rows, as the tower
commands run it, gives ``certify``'s verdict, and at a lowered digit limit
raises what it raises.  The integer level model has the rows of the
``Fraction`` one.  Every command keeps the error contract of the ``cli``
docstring on documents with one field changed.  A completed record's last
two levels agree on every check but the settled run, so that row decides
no verdict.  The plain command-line reader acts as ``parse_args`` on
generated command lines.
"""

import argparse
import contextlib
import copy
import enum
import json
import os
import sys
import tempfile
import unittest.mock
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import assume, example, given, settings, strategies as st

from ramstab import cli
from ramstab.branches import (
    BranchDataError,
    BranchValuationRecord,
    PolynomialValuationProfile,
    branch_step_candidates,
    build_record,
    estimate_d,
    find_stable_index,
    is_forced_step,
    minimal_d_estimate,
    stability_screen,
    zero_departure_candidates,
    _screen_passes,
)
from ramstab.certificates import (
    CertificateCheck,
    StabilityCertificate,
    certify,
    composition_criterion,
    revalidate,
)
from ramstab.cli import _Text, _json_chunks, _render, _table, _tower_text
from ramstab.hasseherbrand import (
    Tower,
    TowerInvariantError,
    build_tower,
    first_failure,
    level_model,
)
from ramstab.inputdoc import InputDocument, parse_document
from ramstab.limitdata import (
    LimitingRamificationData,
    complete_record,
    limiting_data,
    limiting_data_for_branch,
    main_and_error,
)
from ramstab.polygons import lower_hull
from ramstab.valuations import (
    InputError, digit_limit, format_ratio, format_rational, parse_rational,
)

import ramification_oracle
from digests import _load_gen, _run

from helpers import (
    argv_outcome,
    breaks_and_subfields,
    ceiling_halving_level,
    certificate_json,
    certify_oracle,
    check_json,
    compose,
    document_json,
    dual_plf,
    fraction_level_model,
    hull_step_candidates,
    hull_stepped_extension,
    int_digit_limit,
    kummer_carries,
    level_model_oracle,
    level_polygon,
    level_vertices,
    main_and_error_oracle,
    ordered_first_failure,
    parse_document_oracle,
    phi_oracle,
    predict_branch,
    root_valuations,
    stability_screen_oracle,
    tower_json_oracle,
    tower_levels,
    tower_oracle,
    working_tower,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schema" / "input.schema.json").read_text()
)


@st.composite
def profiles(draw):
    """p in {2, 3, 5}, r <= 2, a random support with valuations 1..5, and q -> 0."""
    p = draw(st.sampled_from((2, 3, 5)))
    r = draw(st.integers(1, 2))
    q = p**r
    support = draw(st.sets(st.integers(1, q - 1), max_size=q - 1))
    coeffs = {i: draw(st.integers(1, 5)) for i in sorted(support)}
    coeffs[q] = 0
    return PolynomialValuationProfile(
        p=p, r=r, v_p=draw(st.integers(1, 3)), coeff_valuations=coeffs,
        e_ke=draw(st.integers(1, 2)),
    )


# None is a base point equal to zero
base_valuations = st.none() | st.builds(
    Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 30)
)


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(
    profile=profiles(),
    base=base_valuations,
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    d=st.none() | st.integers(-9, 9).filter(bool),
)
def test_documents_round_trip(profile, base, choices, depth, d):
    try:
        record = predict_branch(profile, base, choices, depth)
    except BranchDataError:
        assume(False)
    doc = InputDocument(profile=profile, record=record, d=d)
    obj = document_json(doc)
    jsonschema.validate(obj, SCHEMA)
    assert parse_document(obj) == doc
    strings = [obj["base_valuation"], *obj["branch_valuations"], *obj["coeff_valuations"].values()]
    for text in strings:
        assert format_rational(parse_rational(text)) == text


def reference_candidates(profile, v):
    """Root valuations of a fresh lower hull of (0, v) and the coefficient points."""
    return root_valuations(lower_hull([(0, v), *profile.coeff_valuations.items()]))


def hull_intercepts(profile):
    """Heights at x = 0 of the lines through the coefficient hull's segments:
    from there, (0, v) is collinear with a segment."""
    points = list(profile.coeff_valuations.items())
    if len(points) < 2:
        return []
    vertices = lower_hull(points)
    return [
        y0 - Fraction(y1 - y0, x1 - x0) * x0
        for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])
    ]


step_valuations = st.one_of(
    st.builds(Fraction, st.integers(-30, 30).filter(bool), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-(10**6), -1), st.integers(1, 10**6)),  # negative
    st.integers(6, 10**6).map(Fraction),  # above every coefficient valuation
    st.builds(Fraction, st.just(1), st.integers(10**3, 10**12)),  # tiny positive
)


def monomial(p, r):
    return PolynomialValuationProfile(p=p, r=r, v_p=1, coeff_valuations={p**r: 0})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(profile=profiles(), v=step_valuations)
# collinear coefficient points, and (0, 3) on the line through them
@example(
    profile=PolynomialValuationProfile(
        p=3, r=2, v_p=1, coeff_valuations={3: 2, 6: 1, 9: 0}
    ),
    v=Fraction(3),
)
@example(profile=PolynomialValuationProfile(
    p=2, r=2, v_p=1, coeff_valuations={1: 3, 2: 2, 3: 1, 4: 0}), v=Fraction(4))
@example(profile=monomial(3, 2), v=Fraction(5))
@example(profile=monomial(2, 1), v=Fraction(-7, 3))
def test_step_candidates_match_a_fresh_hull(profile, v):
    for w in (v, *hull_intercepts(profile)):
        assert branch_step_candidates(profile, w) == reference_candidates(profile, w)
    points = list(profile.coeff_valuations.items())
    if len(points) < 2:
        with pytest.raises(BranchDataError):
            zero_departure_candidates(profile)
    else:
        assert zero_departure_candidates(profile) == root_valuations(lower_hull(points))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(profile=profiles(), prev=st.none() | step_valuations, data=st.data())
@example(
    profile=PolynomialValuationProfile(p=3, r=2, v_p=1, coeff_valuations={3: 2, 6: 1, 9: 0}),
    prev=Fraction(3),
    data=None,
)
@example(profile=monomial(2, 1), prev=None, data=None)
@example(profile=monomial(2, 1), prev=Fraction(-7, 3), data=None)
def test_build_record_accepts_exactly_the_hull_candidates(profile, prev, data):
    # prev from the draw, or on the line through a hull segment (a tie);
    # next: every candidate, each one off by 1/(q den) either way, and every
    # root valuation, those past the tangent included
    intercepts = hull_intercepts(profile)
    if data is not None and intercepts and data.draw(st.booleans()):
        prev = data.draw(st.sampled_from(intercepts))
    candidates = hull_step_candidates(profile, prev)
    probes = {Fraction(1), *candidates, *profile.coefficient_hull[1]}
    for c in candidates:
        step = Fraction(1, profile.q * c.denominator)
        probes.update((c - step, c + step))
    for nxt in probes:
        try:
            build_record(profile, [prev, nxt])
        except BranchDataError:
            assert nxt not in candidates
        else:
            assert nxt in candidates


@st.composite
def tied_profiles(draw):
    """p in {2, 3, 5, 7}, r <= 4, a sparse support rich in zero base-p
    digits with small valuations and, often, two indices whose terms over
    one p^k are made equal on purpose."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    r = draw(st.integers(1, 4))
    q, v_p = p**r, draw(st.integers(1, 3))
    index = st.integers(1, q - 1) | st.builds(
        lambda k, a: a * p**k, st.integers(0, r - 1), st.integers(1, p - 1)
    )
    support = sorted(draw(st.sets(index, max_size=10)))
    coeffs = {j: draw(st.integers(1, 4)) for j in support}
    if len(support) >= 2 and draw(st.booleans()):
        j0, j1 = draw(st.permutations(support))[:2]
        k = draw(st.integers(0, r))
        assume(p**k <= min(j0, j1))
        tied = coeffs[j0] + (kummer_carries(j0, p**k, p) - kummer_carries(j1, p**k, p)) * v_p
        assume(tied >= 1)
        coeffs[j1] = tied
    coeffs[q] = 0
    return PolynomialValuationProfile(p=p, r=r, v_p=v_p, coeff_valuations=coeffs)


def support_ends(p, r):
    return PolynomialValuationProfile(p=p, r=r, v_p=1, coeff_valuations={1: 1, p**r: 0})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(profile=tied_profiles())
@example(profile=support_ends(2, 64))
@example(profile=support_ends(3, 40))
# main terms 3, 2, 0 over 1, 2, 4 are collinear: the error term decides
@example(profile=PolynomialValuationProfile(p=2, r=2, v_p=2, coeff_valuations={3: 3, 4: 0}))
def test_main_and_error_matches_the_per_k_carry_scan(profile):
    q, exponents = profile.q, {profile.p**k: k for k in range(profile.r + 1)}
    for sign in (1, -1):
        table = main_and_error_oracle(profile, sign)
        assert main_and_error(profile, sign) == table
        # the integer surrogate hull selects the Fraction one's vertices
        hull = lower_hull(
            (x, table[k][0] + sign * Fraction(table[k][1], q * q)) for x, k in exponents.items()
        )
        assert limiting_data(profile, sign).R == tuple(exponents[x] for x, _ in hull)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    profile=profiles(),
    base=base_valuations,
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    power=st.integers(0, 12),
)
# base 1000 on x^2: the ceiling rule walked 1000 steps, past the old 512-step cap
@example(
    profile=PolynomialValuationProfile(p=2, r=1, v_p=1, coeff_valuations={2: 0}),
    base=Fraction(1000),
    choices=[],
    depth=1,
    power=0,
)
# 1024/17 crosses 1/4 at level 8; its d-estimate settles at level 10
@example(
    profile=PolynomialValuationProfile(p=2, r=1, v_p=1, coeff_valuations={2: 0}),
    base=Fraction(1024, 17),
    choices=[],
    depth=1,
    power=0,
)
# based at zero: the step leaving zero is forced, and so is every later one
@example(
    profile=PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={1: 2, 2: 1, 3: 0}),
    base=None,
    choices=[],
    depth=1,
    power=0,
)
def test_closed_form_completion_matches_the_hull_stepped_walk(profile, base, choices, depth, power):
    # a base times p^power has a numerator rich in p, so its d-estimate settles late
    if base is not None:
        base *= profile.p**power
    try:
        record = predict_branch(profile, base, choices, depth)
    except BranchDataError:
        assume(False)
    _vertices, roots = profile.coefficient_hull
    bound = [profile.q * roots[-1]] if roots else []
    probes = [v for v in record.valuations if v is not None] + bound
    for v in probes + [w + Fraction(1, 10**6) for w in bound]:
        assert is_forced_step(profile, v) == (len(hull_step_candidates(profile, v)) == 1)
    try:
        completed, N, C = complete_record(profile, record)
    except BranchDataError:
        # no recorded level is forced, so the walk cannot take its next step
        with pytest.raises(BranchDataError):
            hull_stepped_extension(profile, record.valuations, len(record.valuations) + 1)
        return
    walked = hull_stepped_extension(profile, record.valuations, len(completed.valuations))
    assert list(completed.valuations) == walked
    assert completed.d_estimates == tuple(
        None if v is None else minimal_d_estimate(v, profile.e_ke) for v in walked
    )
    # walking further changes neither the d-estimate nor the certificate
    longer = build_record(
        profile, hull_stepped_extension(profile, completed.valuations, len(walked) + 3)
    )
    assert estimate_d(profile, longer) == estimate_d(profile, completed)
    data, _, _ = limiting_data_for_branch(profile, record)
    cert, further = certify(profile, completed, data), certify(profile, longer, data)
    assert (cert.kind, cert.reindex, cert.d_used) == (further.kind, further.reindex, further.d_used)
    # q^n v(a_n) is C at every completed level from the halving level on
    for n in range(N, len(completed.valuations)):
        assert profile.q**n * completed.valuations[n] == C
    old_N = ceiling_halving_level(profile, record)
    # ceil(v(a_0)) steps: walked up to the base-1000 example's length
    if old_N <= 1000:
        old_walk = hull_stepped_extension(profile, record.valuations, old_N + 1)
        if len(hull_step_candidates(profile, old_walk[old_N])) == 1:
            assert profile.q**old_N * old_walk[old_N] == C
    # a tail's C, from its own completion, is C / q^n
    for n in range(len(completed.valuations)):
        tail = BranchValuationRecord(completed.valuations[n:], completed.d_estimates[n:])
        assert complete_record(profile, tail)[2] == C / profile.q**n


# the certify generator's examples
CERTIFY_EXAMPLES = [
    # a long record: v(P_1) = 2 and base 80, following the largest root, falls
    # by 2 per level for ~40 levels
    dict(
        profile=PolynomialValuationProfile(
            p=2, r=3, v_p=1, coeff_valuations={1: 2, 3: 4, 5: 1, 6: 3, 8: 0}
        ),
        base=Fraction(80), choices=[0] * 40, depth=45, d=3,
    ),
    # long records as bench/gen.py's certify-corpus builds them: v(P_1) = 2,
    # bases 76-80 and the largest root followed, ~40 levels for q = 8 and 49
    dict(
        profile=PolynomialValuationProfile(
            p=2, r=3, v_p=2, coeff_valuations={1: 2, 3: 4, 4: 1, 7: 3, 8: 0}, e_ke=2
        ),
        base=Fraction(79), choices=[0] * 39, depth=39, d=None,
    ),
    dict(
        profile=PolynomialValuationProfile(
            p=2, r=3, v_p=2, coeff_valuations={1: 2, 2: 1, 4: 2, 6: 3, 8: 0}, e_ke=2
        ),
        base=Fraction(78), choices=[0] * 39, depth=39, d=-1,
    ),
    dict(
        profile=PolynomialValuationProfile(
            p=7, r=2, v_p=1, coeff_valuations={1: 2, 19: 2, 27: 4, 33: 3, 49: 0}, e_ke=2
        ),
        base=Fraction(76), choices=[0] * 39, depth=39, d=4,
    ),
    dict(
        profile=PolynomialValuationProfile(
            p=7, r=2, v_p=2, coeff_valuations={1: 2, 19: 5, 28: 4, 36: 5, 49: 0}, e_ke=2
        ),
        base=Fraction(78), choices=[0] * 41, depth=41, d=None,
    ),
    # a long record on a negative base: every step is forced
    dict(
        profile=PolynomialValuationProfile(
            p=2, r=3, v_p=1, coeff_valuations={1: 2, 3: 4, 5: 1, 6: 3, 8: 0}
        ),
        base=Fraction(-78), choices=[], depth=40, d=None,
    ),
    # x^q: no coefficient floor, the == row of valuation-below-coefficients,
    # short and on a 40-level record
    dict(profile=monomial(3, 2), base=Fraction(5), choices=[], depth=2, d=None),
    dict(profile=monomial(2, 1), base=Fraction(80), choices=[], depth=40, d=None),
    # the sample fixture, V = 3
    dict(
        profile=PolynomialValuationProfile(
            p=3, r=2, v_p=2, coeff_valuations={1: 4, 3: 2, 4: 3, 6: 4, 7: 3, 9: 0}
        ),
        base=Fraction(4), choices=[0], depth=2, d=2,
    ),
    # a uniformizer base, and the uniformizer fixture
    dict(
        profile=PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={1: 2, 2: 1, 3: 0}),
        base=Fraction(1), choices=[], depth=2, d=None,
    ),
    dict(
        profile=PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={1: 2, 2: 1, 3: 0}),
        base=Fraction(1), choices=[], depth=3, d=1,
    ),
    # a negative base
    dict(profile=monomial(2, 1), base=Fraction(-11), choices=[], depth=1, d=None),
]


def certify_cases(max_examples):
    """The certify generator: a branch predicted from a drawn profile, base
    and slope choices, and d given or not, with ``CERTIFY_EXAMPLES``."""

    def cases(test):
        for case in CERTIFY_EXAMPLES:
            test = example(**case)(test)
        return settings(derandomize=True, database=None, max_examples=max_examples, deadline=None)(
            given(
                profile=profiles(),
                base=base_valuations,
                choices=st.lists(st.integers(0, 1), max_size=4),
                depth=st.integers(1, 4),
                d=st.none() | st.integers(-9, 9).filter(bool),
            )(test)
        )

    return cases


@certify_cases(max_examples=200)
def test_certify_matches_the_per_level_oracle(profile, base, choices, depth, d):
    # the level scan reads the profile's cached constants and builds the
    # composition terms once; the oracle builds every level's checks afresh
    try:
        record = predict_branch(profile, base, choices, depth)
        data, record, _ = limiting_data_for_branch(profile, record)
    except BranchDataError:
        assume(False)
    cert = certify(profile, record, data, d)
    assert cert == certify_oracle(profile, record, data, d)
    # the scan without rows, as the tower commands run it, gives the same
    # verdict: kind, reindex, d_used, d_trusted, conditional_on_d and reason
    verdict = certify(profile, record, data, d, rows=False)
    assert verdict.checks == ()
    assert verdict._replace(checks=cert.checks) == cert
    stable = None
    for n, (v, d_n) in enumerate(zip(record.valuations, record.d_estimates)):
        if v is not None:
            screen = stability_screen_oracle(profile, v, d_n)
            assert stability_screen(profile, v, d_n) == screen
            if stable is None and all(passed for *_, passed in screen):
                stable = n
    # the stable index is decided on the screen's pass bits, without text
    assert find_stable_index(profile, record) == stable


@certify_cases(max_examples=300)
def test_the_settled_run_decides_no_verdict(profile, base, choices, depth, d):
    """The settled run (``run >= 2``) fails only at levels that fail
    another check or that a level before them passes.  Before the run, a
    level within 1/q^2 has a d-estimate divisible by p.  In the run, only
    the last level L fails it, and L - 1 agrees with L on every other
    check: it is within 1/q^2, their d-estimates are equal, and so are
    the composition criterion and the screen's three pass bits."""
    try:
        record = predict_branch(profile, base, choices, depth)
        data, record, _ = limiting_data_for_branch(profile, record)
    except BranchDataError:
        assume(False)
    last, criterion = len(record.valuations) - 1, composition_criterion(data, profile.p, profile.q)
    estimates = record.d_estimates

    def passes(n):
        a, b = record.valuations[n].as_integer_ratio()
        return criterion(n, a, b), _screen_passes(profile, a, b, estimates[n])

    settled = min(n for n in range(last + 1) if set(estimates[n:]) == {estimates[-1]})
    for n in range(settled):
        if record.valuations[n] is not None and passes(n)[1][0]:
            assert estimates[n] % profile.p == 0
    assert settled < last and passes(last - 1)[1][0]
    assert passes(last - 1) == passes(last)


def _outcome(run):
    """What ``run()`` returns, or the type, field and message of the
    ``ValueError`` it raises."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), getattr(exc, "field", None), str(exc)


# profiles whose records from a large base are forced from level 0: the
# sample on a negative base (V = 3), x^3 on any (V = 2), and p = 11 with a
# shallowest limiting slope of 1 on a small positive one (V = 3)
GUARDED_PROFILES = {
    "sample": PolynomialValuationProfile(
        p=3, r=2, v_p=2, coeff_valuations={1: 4, 3: 2, 4: 3, 6: 4, 7: 3, 9: 0}
    ),
    "cube": PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={3: 0}),
    "p11": PolynomialValuationProfile(p=11, r=2, v_p=10, coeff_valuations={11: 1, 121: 0}),
}


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(GUARDED_PROFILES)),
    digits=st.integers(600, 650),
    offset=st.integers(-2, 2),
    den=st.sampled_from(("1", "7", "tens", "fives")),
    e_ke=st.sampled_from((1, 10, 10**10)),
    d=st.sampled_from((None, 1, 2)),
)
# TestErrorContract's documents at a 640-digit limit: the sample on
# -(10^645 + 1) without d (a criterion bound), on -(10^646 + 1)/7 with
# e_ke = 10 (the estimated d, or with d = 1 level 0's d-estimate), p = 11
# on 5/(10^640 - 1) (a criterion bound of exactly 10^640), and the
# sample's scanned denominator past the limit, from -(10^638 + 1)
@example(name="sample", digits=645, offset=1, den="1", e_ke=1, d=None)
@example(name="sample", digits=646, offset=1, den="7", e_ke=10, d=None)
@example(name="sample", digits=646, offset=1, den="7", e_ke=10, d=1)
@example(name="p11", digits=0, offset=4, den="tens", e_ke=1, d=None)
@example(name="sample", digits=638, offset=1, den="1", e_ke=1, d=None)
def test_the_verdict_without_rows_fails_as_certify_does(name, digits, offset, den, e_ke, d):
    """At a 640-digit limit, on bases whose records reach the print guards:
    where ``certify`` raises, ``certify`` without rows raises the same
    ``InputError``, with the same field and message, and otherwise it gives
    the same verdict."""
    profile = GUARDED_PROFILES[name]
    profile = PolynomialValuationProfile(
        profile.p, profile.r, profile.v_p, profile.coeff_valuations, e_ke
    )
    numerator = 10**digits + offset
    denominator = {"1": 1, "7": 7, "tens": 10**640 - 1, "fives": 5**640}[den]
    if name == "p11":
        numerator = 5 if den == "tens" else 1
    elif name == "sample":
        numerator = -numerator
    with int_digit_limit(640):
        try:
            record = build_record(profile, [Fraction(numerator, denominator)])
            data, record, _ = limiting_data_for_branch(profile, record)
        except BranchDataError:
            assume(False)
        cert = _outcome(lambda: certify(profile, record, data, d))
        verdict = _outcome(lambda: certify(profile, record, data, d, rows=False))
    if isinstance(cert, StabilityCertificate):
        assert verdict.checks == () and verdict._replace(checks=cert.checks) == cert
    else:
        assert cert[0] is InputError and verdict == cert


TOWER_DEPTH = 6


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    profile=profiles(),
    base=base_valuations,
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    d=st.none() | st.integers(-9, 9).filter(bool),
)
# certified with the estimate d = -11, whose phi_1 leaves the supported regime
@example(
    profile=PolynomialValuationProfile(p=2, r=1, v_p=1, coeff_valuations={2: 0}),
    base=Fraction(-11),
    choices=[],
    depth=1,
    d=None,
)
def test_certificates_revalidate_and_towers_match_compose(profile, base, choices, depth, d):
    try:
        record = predict_branch(profile, base, choices, depth)
        data, record, _ = limiting_data_for_branch(profile, record)
    except BranchDataError:
        assume(False)
    cert = certify(profile, record, data, d)
    assert revalidate(cert)
    if not cert.certified:
        return
    _working_data, _v_base, model = working_tower(profile, record, data, cert)
    try:
        tower = build_tower(model, TOWER_DEPTH)
    except ValueError as exc:
        # phi_n places its vertices at -e_ke*q^n*s + (d - 1)*|v_base| for the
        # negative polygon slopes s, so only a negative d can make one nonpositive
        assert cert.d_used < 0 and "outside the supported regime" in str(exc)
        return
    folded = None
    for n, level in enumerate(tower_levels(tower), start=1):
        phi = phi_oracle(model, n)
        folded = phi if folded is None else compose(folded, phi)
        assert level == (phi, folded)
    assert_tower_text_matches_oracle(tower)


def assert_tower_text_matches_oracle(tower):
    """``hh``'s ``phi`` and ``Phi`` print byte for byte as ``json.dumps``
    prints the per-level oracle's entries."""
    phi, Phi = _tower_text(tower, _table(tower, 0)[0])
    expected = json.dumps(tower_json_oracle(tower), indent=2) + "\n"
    assert _render({"phi": phi, "Phi": Phi}) == expected


def _ord(i, p):
    """The exponent of p in i >= 1."""
    return next(k for k in range(i) if i % p ** (k + 1))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    profile=profiles(),
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    d=st.sampled_from((None, 1)),
)
def test_uniformizer_base_different_is_the_eisenstein_one(profile, choices, depth, d):
    # A base of valuation 1/e_ke is a uniformizer of K, so every a_n is a
    # uniformizer of K_n, a root of P(x) - a_(n-1): each level is Eisenstein
    # and the different of K_N/K_(N-1) has valuation v_(K_N)(P'(a_N)).  With
    # v_(K_N) = e_ke q^N v, the term i c_i x^(i-1) of P' has valuation
    # t_i = e_ke q^N (v(c_i) + v_p ord_p(i)) + i - 1, and the terms never tie,
    # since 0 <= i - 1 < q^N; so v(P'(a_N)) is their minimum d_N.  Over hh's
    # working base K_m, D_n = d_(m+n) + q D_(n-1) by transitivity, and
    # Hilbert's formula reads it off level n as q^m (q^n altitude_n - X_n).
    try:
        record = predict_branch(profile, Fraction(1, profile.e_ke), choices, depth)
    except BranchDataError:
        assume(False)
    doc = parse_document(document_json(InputDocument(profile=profile, record=record, d=d)))
    try:
        payload, code = cli.COMMANDS["hh"][0](doc, argparse.Namespace(depth=3))
    except TowerInvariantError:
        assume(False)  # a loud abort: hh prints no tower
    assume(code == 0)
    hh = json.loads(_render(payload))
    q, m, different = profile.q, hh["reindex"], 0
    for n, level in enumerate(hh["Phi"], start=1):
        terms = sorted(
            profile.e_ke * q ** (m + n) * (v + profile.v_p * _ord(i, profile.p)) + i - 1
            for i, v in profile.coeff_valuations.items()
        )
        assert terms[1:2] != terms[:1]
        different = terms[0] + q * different
        X, A = Fraction(level["breaks"][-1]), Fraction(level["altitude"])
        assert q**m * (q**n * A - X) == different
    # and every level's Phi is the one the ramification polygons give
    expected = ramification_oracle.tower(
        profile.p, profile.v_p, profile.e_ke, q, dict(profile.coeff_valuations), 3, m
    )
    printed = [[(Fraction(x), Fraction(y)) for x, y in level["vertices"]] for level in hh["Phi"]]
    assert printed == expected


def dual_phi(profile, data, n, d, v_base):
    """The vertices of phi_n read off the dual of the exact level-n polygon,
    not off the level model; None where that polygon is not strictly convex
    or the first vertex is not positive.

    The dual's vertex x-coordinates are the negated polygon slopes and its
    slopes the polygon's vertex x-coordinates p^{r_i}, so scaling x by
    e_ke*q^n and y by e_ke*q^(n-1), then shifting both, gives phi_n.
    """
    try:
        dual = dual_plf(level_polygon(profile, data, n))
    except ValueError:
        return None
    q, shift = profile.q, (d - 1) * abs(v_base)
    vertices = [
        (profile.e_ke * q**n * x + shift, profile.e_ke * q ** (n - 1) * y + shift)
        for x, y in dual.vertices
    ]
    return vertices if vertices[0][0] > 0 else None


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    profile=profiles(),
    base=base_valuations,
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    d=st.none() | st.integers(-9, 9).filter(bool),
)
# certified TRS on a uniformizer base whose level-1 polygon is not strictly convex
@example(
    profile=PolynomialValuationProfile(p=5, r=2, v_p=1, coeff_valuations={1: 2, 25: 0}),
    base=Fraction(1),
    choices=[],
    depth=1,
    d=None,
)
# certified with the estimate d = -11, which puts phi_1's first vertex at x < 0
@example(
    profile=PolynomialValuationProfile(p=2, r=1, v_p=1, coeff_valuations={2: 0}),
    base=Fraction(-11),
    choices=[],
    depth=1,
    d=None,
)
def test_phi_is_the_scaled_dual_of_the_level_polygon(profile, base, choices, depth, d):
    try:
        record = predict_branch(profile, base, choices, depth)
        data, record, _ = limiting_data_for_branch(profile, record)
    except BranchDataError:
        assume(False)
    cert = certify(profile, record, data, d)
    if not cert.certified:
        return
    working_data, v_base, model = working_tower(profile, record, data, cert)
    expected = [
        dual_phi(profile, working_data, n, cert.d_used, v_base)
        for n in range(1, TOWER_DEPTH + 1)
    ]
    for n, vertices in enumerate(expected, start=1):
        if vertices is None:
            with pytest.raises(ValueError):
                level_vertices(model, n)
            with pytest.raises(ValueError):
                build_tower(model, n)
        else:
            assert level_vertices(model, n) == vertices
    if None in expected:
        with pytest.raises(ValueError):
            build_tower(model, TOWER_DEPTH)
    else:
        tower = build_tower(model, TOWER_DEPTH)
        assert [list(phi.vertices) for phi, _ in tower_levels(tower)] == expected


def assert_tower_matches_oracle(model, depth):
    """``build_tower`` returns what the ``Fraction`` fold returns, level by
    level, or raises the same exception with the same message.  Returns
    the tower, or None when both raise."""
    try:
        expected = tower_oracle(model, depth)
    except (ValueError, TowerInvariantError) as exc:
        with pytest.raises((ValueError, TowerInvariantError)) as err:
            build_tower(model, depth)
        assert type(err.value) is type(exc) and str(err.value) == str(exc)
        return None
    tower = build_tower(model, depth)
    assert tower_levels(tower) == expected
    return tower


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(
    profile=profiles(),
    base=base_valuations,
    choices=st.lists(st.integers(0, 1), max_size=4),
    depth=st.integers(1, 4),
    d=st.none() | st.integers(-9, 9).filter(bool),
)
# certified TRS on a uniformizer base whose level-1 polygon is not strictly convex
@example(
    profile=PolynomialValuationProfile(p=5, r=2, v_p=1, coeff_valuations={1: 2, 25: 0}),
    base=Fraction(1),
    choices=[],
    depth=1,
    d=None,
)
# certified with the estimate d = -11, which puts phi_1's first vertex at x < 0
@example(
    profile=PolynomialValuationProfile(p=2, r=1, v_p=1, coeff_valuations={2: 0}),
    base=Fraction(-11),
    choices=[],
    depth=1,
    d=None,
)
def test_integer_tower_matches_the_fraction_fold(profile, base, choices, depth, d):
    try:
        record = predict_branch(profile, base, choices, depth)
        data, record, _ = limiting_data_for_branch(profile, record)
    except BranchDataError:
        assume(False)
    cert = certify(profile, record, data, d)
    if not cert.certified:
        return
    _working_data, _v_base, model = working_tower(profile, record, data, cert)
    for tower_depth in range(1, 13):
        assert_tower_matches_oracle(model, tower_depth)


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def free_level_models(draw):
    """``fraction_level_model`` arguments beyond what ``level_model`` passes:
    increasing positive ax, any bx, and slopes that strictly decrease
    inside (1/q, 1), or one of the slope lists the constructor rejects: a
    slope of 1 or of 1/q, slopes out of order, one slope too many or too
    few, or slopes of any sign in any order."""
    q = draw(st.sampled_from((2, 3, 4, 5, 9)))
    size = draw(st.integers(1, 3))
    ax = sorted(draw(st.sets(st.builds(Fraction, st.integers(1, 12), st.integers(1, 4)),
                             min_size=size, max_size=size)))
    xs = tuple((a, draw(small_fractions)) for a in ax)
    inside = st.builds(Fraction, st.integers(1, 9), st.integers(1, 9))
    inside = inside.filter(lambda s: Fraction(1, q) < s < 1)
    slopes = sorted(draw(st.sets(inside, min_size=size - 1, max_size=size - 1)), reverse=True)
    fault = draw(st.sampled_from((None, None, None, "1", "1/q", "unsorted", "count", "any")))
    if fault in ("1", "1/q") and slopes:
        slopes[draw(st.integers(0, len(slopes) - 1))] = 1 if fault == "1" else Fraction(1, q)
    elif fault == "unsorted":
        slopes.reverse()
    elif fault == "count":
        slopes = slopes[1:] if slopes and draw(st.booleans()) else [*slopes, Fraction(1, 2)]
    elif fault == "any":
        slopes = [draw(st.builds(Fraction, st.integers(-2, 9), st.integers(1, 9)))
                  for _ in range(size - 1)]
    return q, draw(small_fractions), xs, tuple(slopes)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(args=free_level_models(), depth=st.integers(1, 12))
# the first vertex of phi_2 lands exactly on the last vertex 9 of phi_1
@example(args=(3, Fraction(0), ((1, 0), (2, 3)), (Fraction(1, 2),)), depth=2)
# the first failing level and property of each model, as the fold names them
# x = 5 - 3^n: positive at level 1, not at level 2, where the gap fails too
@example(args=(3, Fraction(0), ((Fraction(-1), Fraction(5)),), ()), depth=6)
# x = 3^n + 5, 4 * 3^n: convex and positive at every level, but 32 <= 36 at level 3
@example(
    args=(3, Fraction(0), ((Fraction(1), Fraction(5)), (Fraction(4), Fraction(0))), (Fraction(1, 2),)),
    depth=6,
)
# x = 100 * 3^n, 99 * 3^n + 50: convex while 3^n < 50, so up to level 3
@example(
    args=(3, Fraction(0), ((Fraction(100), Fraction(0)), (Fraction(99), Fraction(50))), (Fraction(1, 2),)),
    depth=6,
)
# x = 1, 6 - 3^n: level 2 is neither convex nor beyond level 1; convexity is named
@example(
    args=(3, Fraction(0), ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(6))), (Fraction(1, 2),)),
    depth=6,
)
def test_integer_tower_matches_the_fraction_fold_on_free_models(args, depth):
    """Every accepted model builds the tower the ``Fraction`` fold builds;
    the constructor rejects exactly the slope lists that are not one per
    later vertex, strictly decreasing from 1 to above 1/q."""
    q, _shift, xs, slopes = args
    if len(slopes) != len(xs) - 1:
        with pytest.raises(ValueError, match="one slope per vertex after its first"):
            fraction_level_model(*args)
    elif list(slopes) != sorted(set(slopes), reverse=True) or not all(
        Fraction(1, q) < s < 1 for s in slopes
    ):
        with pytest.raises(ValueError) as err:
            fraction_level_model(*args)
        assert str(err.value) == "segment slopes must be strictly decreasing (strict concavity)"
    else:
        tower = assert_tower_matches_oracle(fraction_level_model(*args), depth)
        if tower is not None:
            assert_tower_text_matches_oracle(tower)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(args=free_level_models())
# the first vertex of phi_2 lands exactly on the last vertex 9 of phi_1
@example(args=(3, Fraction(0), ((1, 0), (2, 3)), (Fraction(1, 2),)))
# x = 5 - 3^n: positive at level 1, not at level 2, where the gap fails too
@example(args=(3, Fraction(0), ((Fraction(-1), Fraction(5)),), ()))
# x = 3^n + 5, 4 * 3^n: convex and positive at every level, but 32 <= 36 at level 3
@example(args=(3, Fraction(0), ((Fraction(1), Fraction(5)), (Fraction(4), Fraction(0))), (Fraction(1, 2),)))
# x = 100 * 3^n, 99 * 3^n + 50: convex while 3^n < 50, so up to level 3
@example(
    args=(3, Fraction(0), ((Fraction(100), Fraction(0)), (Fraction(99), Fraction(50))), (Fraction(1, 2),))
)
# x = 1, 6 - 3^n: level 2 is neither convex nor beyond level 1; convexity is named
@example(
    args=(3, Fraction(0), ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(6))), (Fraction(1, 2),))
)
# x = 2^30 * 2^n, (2^30 - 1) * 2^n + 2^30 + 1: the gap between them, 2^30 + 1 - 2^n,
# closes at level 31, while the gap from the level before only grows
@example(args=(2, Fraction(0), ((2**30, 0), (2**30 - 1, 2**30 + 1)), (Fraction(3, 4),)))
def test_first_failure_is_the_ordered_test_at_every_depth(args):
    """``first_failure`` names the level and property that the ordered test
    over the evaluated tower names, at every depth from 1 to 12 and on each
    side of the failing level; ``build_tower`` raises exactly when that
    level is within its depth."""
    q, _shift, xs, slopes = args
    assume(len(slopes) == len(xs) - 1)
    assume(list(slopes) == sorted(set(slopes), reverse=True))
    assume(all(Fraction(1, q) < s < 1 for s in slopes))
    model = fraction_level_model(*args)
    failure = first_failure(model)
    level = failure[0] if failure else 0
    for depth in sorted({*range(1, 13), level - 1, level} - {0, -1}):
        expected = failure if failure and level <= depth else None
        assert ordered_first_failure(model, depth) == expected
        if expected is None:
            assert len(build_tower(model, depth, heights=False).xs) == len(xs) * depth
        else:
            with pytest.raises(TowerInvariantError) as err:
                build_tower(model, depth, heights=False)
            assert err.value.prop == failure[1]
            assert f"level {level} " in str(err.value) or f"phi_{level} " in str(err.value)


@st.composite
def level_model_cases(draw):
    """``level_model`` arguments on free limiting data: V = 2 to 6 vertices
    over p^0 < ... < p^r, any main terms and error factors, C of either
    sign, e_ke in {1, 2, 3}, d of either sign prime to p, and a working base
    at reindex m = 0 to 3."""
    p, V = draw(st.sampled_from((2, 3, 5))), draw(st.integers(2, 6))
    r = draw(st.integers(V - 1, 5))
    inner = draw(st.sets(st.integers(1, r - 1), min_size=V - 2, max_size=V - 2)) if V > 2 else ()
    R = (0, *sorted(inner), r)
    M = (*draw(st.lists(st.integers(0, 12), min_size=V - 1, max_size=V - 1)), 0)
    E = (*draw(st.lists(st.integers(0, p**r - 1), min_size=V - 1, max_size=V - 1)), 0)
    sign = draw(st.sampled_from((1, -1)))
    C = sign * Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 10**4)))
    profile = PolynomialValuationProfile(
        p=p, r=r, v_p=1, coeff_valuations={p**r: 0}, e_ke=draw(st.sampled_from((1, 2, 3)))
    )
    d = draw(st.integers(-40, 40).filter(lambda d: d % p))
    v_base = Fraction(draw(st.integers(-60, 60).filter(bool)), draw(st.integers(1, 60)))
    data = LimitingRamificationData(V=V, R=R, M=M, E=E, sign=sign, C=C)
    return profile, data, d, v_base, draw(st.integers(0, 3))


def model_rows(model):
    return model.D, model.AX, model.BX, model.AY, model.BY, model.shift


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(case=level_model_cases())
# the sample fixture's working base at its reindex 3
@example(case=(
    GUARDED_PROFILES["sample"], LimitingRamificationData(3, (0, 1, 2), (3, 2, 0), (3, 0, 0), 1, Fraction(6)),
    2, Fraction(2, 243), 3,
))
def test_integer_level_model_is_the_fraction_one(case):
    """The integer ``level_model`` has the (D, AX, BX, AY, BY, shift) of the
    ``Fraction`` construction, with C / q^m an integer pair, or from the
    data's own C at m = 0."""
    profile, data, d, v_base, m = case
    C = data.C.numerator, data.C.denominator * profile.q**m
    oracle = level_model_oracle(profile, data, d, v_base, data.C / profile.q**m)
    assert model_rows(level_model(profile, data, d, v_base, C)) == model_rows(oracle)
    if m == 0:
        assert model_rows(level_model(profile, data, d, v_base)) == model_rows(oracle)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(
    size=st.integers(1, 3),
    depth=st.integers(1, 8),
    reindex=st.integers(0, 3),
    D=st.integers(1, 60),
    data=st.data(),
)
def test_subfield_table_text_is_json_dumps_of_the_oracle(size, depth, reindex, D, data):
    """The ``breaks`` and ``subfields`` text of ``breaks`` and ``hh``, ground
    rows and the row past the depth included, prints as ``json.dumps``
    prints the dict oracle, and its break list is each break quoted."""
    count = size * depth
    xs = data.draw(st.lists(st.integers(-(10**30), 10**30), min_size=count, max_size=count))
    tower = Tower(2, D, size, tuple(xs), (), ())
    breaks, table = _table(tower, reindex)
    oracle = breaks_and_subfields(tower, reindex)
    assert _render(table) == json.dumps(oracle, indent=2) + "\n"
    assert breaks == [json.dumps(x) for x in oracle["breaks"]]


# quotes, backslashes, control and non-ASCII characters, and a lone surrogate
json_text = st.text(
    st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\n\t\u00e9\u2028\ud800\U0001f600')
)
json_leaves = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(2**64, 2**200).flatmap(lambda n: st.sampled_from((n, -n)))
    | json_text
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.lists(children)
    | st.lists(children).map(tuple)
    | st.dictionaries(json_text, children),
    max_leaves=20,
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(value=json_values)
def test_report_writer_matches_json_dumps(value):
    assert _render(value) == json.dumps(value, indent=2) + "\n"


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(value=json_values, after=json_values)
def test_report_writer_extends_text_chunks_as_they_are(value, after):
    # a value's chunks at the indent of a top-level key print as the value
    chunks = []
    _json_chunks(value, chunks, "\n  ")
    payload = {"text": _Text(chunks), "after": after}
    assert _render(payload) == json.dumps({"text": value, "after": after}, indent=2) + "\n"


def test_report_writer_reads_each_list_item_once(monkeypatch):
    # each check row is read once, for its rendered text, and the writer is
    # not called per check: no check becomes a dict of its own
    rendered, reads, calls = CertificateCheck.rendered, [], []
    writer = cli._json_chunks

    def reading(check):
        reads.append(check)
        return rendered.fget(check)

    def counting(*args):
        calls.append(args[0])
        return writer(*args)

    monkeypatch.setattr(CertificateCheck, "rendered", property(reading))
    monkeypatch.setattr(cli, "_json_chunks", counting)
    writer_calls = set()
    for size in (1, 7):
        checks = tuple(
            CertificateCheck(f"check {i}", i or None, "1", "<", str(i), i % 2 == 0)
            for i in range(size)
        )
        payload = {"checks": checks, "nested": {"certificate": {"checks": checks[:2]}}}
        oracle = {
            "checks": [check_json(c) for c in checks],
            "nested": {"certificate": certificate_json({"checks": checks[:2]})},
        }
        expected = json.dumps(oracle, indent=2) + "\n"
        reads.clear()
        calls.clear()
        assert _render(payload) == expected
        assert [id(c) for c in reads] == [id(c) for c in checks + checks[:2]]
        assert not any(type(value) is CertificateCheck for value in calls)
        writer_calls.add(len(calls))
    assert len(writer_calls) == 1


# check text with quotes, backslashes, % and non-ASCII characters
check_text = json_text | st.sampled_from(("%", "%s", "%%", "%(name)s", "100% \u00e9"))
check_rows = st.lists(
    st.builds(
        CertificateCheck,
        check_text,
        st.none() | st.integers(),
        check_text,
        check_text,
        check_text,
        st.booleans(),
    ),
    min_size=1,
    max_size=6,
).map(tuple)


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(checks=check_rows, notes=st.lists(json_text, max_size=2), after=json_values)
def test_certificate_checks_print_as_json_dumps_of_the_oracle(checks, notes, after):
    """A certificate's check rows print as ``json.dumps`` prints their dicts,
    at every indent where a certificate is printed: the top level of
    ``certify``, a file of a batch ``certify`` and the ``certificate`` of a
    ``NotCertified`` tower command."""
    payload = {"kind": "NotCertified", "checks": checks, "interpretation_notes": notes}
    oracle = certificate_json(payload)
    batch = {"a.json": payload, "b.json": {"error": "x", "field": "$"}, "c.json": after}
    for report, expected in (
        (payload, oracle),
        (batch, {**batch, "a.json": oracle}),
        ({"certificate": payload}, {"certificate": oracle}),
    ):
        assert _render(report) == json.dumps(expected, indent=2) + "\n"


class Level(enum.IntEnum):
    ONE = 1


class Text(str):
    pass


@pytest.mark.parametrize(
    "items",
    [
        [{"a": 1, "b": "x"}, {"b": "x", "a": 1}, {"a": 2, "b": "y"}],  # key order changes
        [{"a": 1, "b": "x"}, {"a": [1, {"c": None}], "b": "x"}],  # gains a nested value
        [{"a": 1, "b": "x"}, {"a": Level.ONE, "b": Text("x")}],  # int and str subclasses
        [{"a": Level.ONE}, {"a": 1}, {"a": Text("1")}],  # a subclass in the first item
        [{"%s": "%d", "\u00e9%": "\u00fc"}, {"%s": "%%", "\u00e9%": "%(x)s"}],  # % and non-ASCII
        [{"a": True}, {"a": 1}, {"a": False}, {"a": 0}, {"a": None}],  # True against 1
        [{"a": 1}, {"a": 1, "b": 2}, {}, {"b": 1}, [{"a": 1}], "a", None],  # other shapes
        [{}, {"a": 1}],  # an empty first item
        [[{"a": 1}], {"a": 1}],  # the first item is not a dict
    ],
)
def test_report_writer_fills_templates_as_json_dumps(items):
    payload = {"items": items, "deeper": {"lists": [items, tuple(items)]}}
    assert _render(payload) == json.dumps(payload, indent=2) + "\n"


flat_leaves = st.none() | st.booleans() | st.integers() | json_text


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(first=st.dictionaries(json_text, flat_leaves, min_size=1, max_size=4), data=st.data())
def test_report_writer_prints_lists_of_flat_dicts_as_json_dumps(first, data):
    # later items share the first item's key shape, reorder or drop its
    # keys, nest a value, or hold a subclass of int or str
    keys = list(first)
    shapes = st.sampled_from(keys).flatmap(
        lambda key: st.sampled_from(
            [{**first, key: [first[key]]}, {**first, key: Level.ONE}, {**first, key: Text("t")},
             {k: v for k, v in first.items() if k != key}]
        )
    )
    later = st.one_of(
        st.tuples(*(flat_leaves for _ in keys)).map(lambda values: dict(zip(keys, values))),
        st.permutations(keys).map(lambda order: {k: first[k] for k in order}),
        shapes,
        json_values,
    )
    items = [first, *data.draw(st.lists(later, max_size=5))]
    payload = {"items": items, "nested": [{"items": items}]}
    assert _render(payload) == json.dumps(payload, indent=2) + "\n"


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    value=json_values,
    bad=st.floats() | st.dictionaries(st.integers() | st.none() | st.booleans(), json_leaves, min_size=1),
)
def test_report_writer_rejects_floats_and_non_str_keys(value, bad):
    for wrapped in (bad, [value, bad], {"key": bad}, (bad,)):
        with pytest.raises(TypeError):
            _render(wrapped)


# the largest float is 2^1024 - 2^971; from 2^1024 - 2^970 on, a value
# rounds past it
FLOAT_EDGE = 2**1024 - 2**970


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    n=st.integers(-(2**4000), 2**4000),
    d=st.integers(1, 2**4000),
    common=st.integers(1, 2**64),
)
@example(n=0, d=1, common=1)
@example(n=0, d=7, common=3)
@example(n=-(2**4000), d=1, common=1)
@example(n=FLOAT_EDGE - 1, d=1, common=1)
@example(n=FLOAT_EDGE, d=1, common=1)
@example(n=3 * FLOAT_EDGE - 1, d=3, common=5)
@example(n=-3 * FLOAT_EDGE, d=3, common=5)
@example(n=1, d=2**1100, common=1)
def test_integer_pairs_print_and_plot_as_their_fraction(n, d, common):
    n, d = n * common, d * common
    assert format_ratio(n, d) == str(Fraction(n, d))
    try:
        expected = float(Fraction(n, d))
    except OverflowError:
        with pytest.raises(OverflowError):
            n / d
    else:
        assert n / d == expected


DATA = Path(__file__).resolve().parent.parent / "src" / "ramstab" / "data"


def _base_documents():
    """Both fixtures and ``bench/gen.py`` documents of each workload, some
    of them malformed on one field."""
    gen = _load_gen()
    docs = [json.loads((DATA / f"{name}.json").read_text()) for name in ("sample", "uniformizer")]
    generated = [*gen.certify_corpus(1, 0), *gen.wide_degree(1, 0), *gen.tower_docs(1)]
    return docs + [doc.obj for doc in generated]


BASE_DOCUMENTS = _base_documents()
LONG = "a key or numerator one digit past the interpreter's int digit limit"
# rationals and indices the schema rejects or reads in one way only
ODD_TEXTS = (
    "inf", "+3", "-0", "03", "2/4", "0/5", "1/0", " 1", "1 ", "", "1/", "/2", "1/-3",
    "1.5", "Infinity", "\u0664", "\u00b2", "\uff11/2", "1/\u0663", "\u0661\u0662", LONG,
)
odd_texts = (
    st.sampled_from(ODD_TEXTS)
    | st.from_regex(r"[+-]?[0-9]{1,3}(/[0-9]{1,3})?", fullmatch=True)
    | st.text(max_size=3)
)
non_texts = (
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats(allow_nan=False)
    | st.just(["1"]) | st.just({"1": "1"})
)
odd_keys = st.sampled_from(("+1", "-1", "01", "0", "00", "\u0661", "1 ", "x", "", LONG)) | (
    st.integers(1, 3000).map(str)
)
FIELDS = (
    "p", "r", "v_p", "e_ke", "coeff_valuations", "base_valuation",
    "branch_valuations", "d", "leading_zeros", "colour",
)
mutations = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(FIELDS), odd_texts | non_texts),
    st.tuples(st.just("delete"), st.sampled_from(FIELDS), st.none()),
    st.tuples(st.just("coefficient"), odd_keys, odd_texts | non_texts),
    st.tuples(st.just("branch"), st.integers(0, 4), odd_texts | non_texts),
)


def _long_text():
    return "1" * ((digit_limit() or 640) + 1)


def _mutated(obj, mutation):
    """``obj`` with one field changed as ``mutation`` says."""
    kind, where, value = mutation
    value = _long_text() if value == LONG else value
    if kind == "set":
        obj[where] = value
    elif kind == "delete":
        obj.pop(where, None)
    elif kind == "coefficient" and isinstance(obj.get("coeff_valuations"), dict):
        obj["coeff_valuations"][_long_text() if where == LONG else where] = value
    elif kind == "branch" and isinstance(obj.get("branch_valuations"), list):
        branch = obj["branch_valuations"]
        branch[where % (len(branch) + 1) :] = [value]
    elif kind == "base":  # a new base, its branch given from it
        obj["base_valuation"], obj["branch_valuations"] = value, [value]
    return obj


@st.composite
def mutated_documents(draw):
    """A base document with one to three fields changed."""
    obj = copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS)))
    for mutation in draw(st.lists(mutations, min_size=1, max_size=3)):
        obj = _mutated(obj, mutation)
    return obj


def parse_outcome(parse, obj):
    """The document ``parse`` reads from ``obj``, or the type, field and
    message of what it raises."""
    try:
        return parse(obj)
    except Exception as exc:  # any exception: both parsers must raise alike
        return type(exc), getattr(exc, "field", None), str(exc)


def _sample_with(**fields):
    return {**json.loads((DATA / "sample.json").read_text()), **fields}


TOO_LONG = "7" * 641  # past a 640-digit limit
TOO_LONG_NUMERATORS = {
    "coeff_valuations[1]": _sample_with(coeff_valuations={"1": TOO_LONG, "3": "2", "9": "0"}),
    "base_valuation": _sample_with(base_valuation=TOO_LONG + "/3"),
    "branch_valuations[2]": _sample_with(branch_valuations=["4", "2/3", TOO_LONG + "/27"]),
}


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(obj=mutated_documents(), limit=st.none())
@example(obj=TOO_LONG_NUMERATORS["coeff_valuations[1]"], limit=640)
@example(obj=TOO_LONG_NUMERATORS["base_valuation"], limit=640)
@example(obj=TOO_LONG_NUMERATORS["branch_valuations[2]"], limit=640)
# the denominator is read first: its zero, or its own digit count, is the error
@example(obj=_sample_with(base_valuation=TOO_LONG + "/0"), limit=640)
@example(obj=_sample_with(base_valuation=TOO_LONG + "7/" + TOO_LONG), limit=640)
def test_parse_document_matches_the_oracle(obj, limit):
    # each field parsed once gives the document, or the error on its field,
    # that the parse which formatted every field name up front gave
    lowered = limit and hasattr(sys, "set_int_max_str_digits")
    with int_digit_limit(limit) if lowered else contextlib.nullcontext():
        assert parse_outcome(parse_document, obj) == parse_outcome(parse_document_oracle, obj)


# every per-document command, each tower command to depth 3
CONTRACT_COMMANDS = (
    ["limit-data"], ["branch"], ["certify"], ["hh", "--depth", "3"], ["breaks", "--depth", "3"],
    ["plot", "--depth", "3", "--out", os.devnull],
)
extremes = st.sampled_from((0, -1, 1, 2, 3, 5, 10**30, -(10**30), 2**61 - 1, 10**200))
# rationals of up to 40 digits over up to 40: the work a base sets stays small
capped_rationals = st.builds(
    lambda n, d: format_ratio(n, d), st.integers(-(10**40), 10**40).filter(bool),
    st.integers(1, 10**40),
)
contract_mutations = st.one_of(
    mutations,
    st.tuples(st.just("set"), st.sampled_from(("p", "r", "v_p", "e_ke", "d", "leading_zeros")),
              extremes),
    st.tuples(st.just("base"), st.none(), capped_rationals | st.sampled_from(("inf", "1", "-1"))),
)


@st.composite
def contract_documents(draw):
    """A fixture or ``bench/gen.py`` document with one field changed: to a
    text the schema rejects, to an extreme integer, or to a new base."""
    return _mutated(copy.deepcopy(draw(st.sampled_from(BASE_DOCUMENTS))), draw(contract_mutations))


def _edge_document(r):
    """p = 2 and degree q = 2^r, base -1 and d = 1: at a 640-digit limit q^2
    prints for r <= 1063 and q^3 for r <= 708."""
    return {
        "p": 2, "r": r, "v_p": 1, "coeff_valuations": {"1": "1", str(2**r): "0"},
        "base_valuation": "-1", "branch_valuations": ["-1"], "d": 1,
    }


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(obj=contract_documents(), limit=st.none())
@example(obj=_edge_document(708), limit=640)
@example(obj=_edge_document(709), limit=640)
@example(obj=_edge_document(1063), limit=640)
@example(obj=_edge_document(1064), limit=640)
@example(obj={**BASE_DOCUMENTS[0], "d": 3}, limit=None)  # NotCertified: 3 divides d
@example(obj=TOO_LONG_NUMERATORS["base_valuation"], limit=640)
def test_every_command_keeps_the_error_contract(obj, limit):
    """The error contract of the ``cli`` docstring on generated documents,
    through all six commands in process: exit 0, 1 or 2 and no traceback;
    nothing on stderr on exit 0, else one JSON object with ``error``; exit
    2 names a non-null ``field``; exit 1 prints a ``NotCertified``
    certificate or names an ``invariant``.  Where ``certify`` exits 2, the
    tower commands exit 2 with the same error record."""
    lowered = limit and hasattr(sys, "set_int_max_str_digits")
    with tempfile.TemporaryDirectory() as tmp, (
        int_digit_limit(limit) if lowered else contextlib.nullcontext()
    ):
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        outcomes = {argv[0]: _run(cli, [*argv, path]) for argv in CONTRACT_COMMANDS}
    for command, (code, out, err) in outcomes.items():
        assert code in (0, 1, 2), (command, code)
        assert "Traceback" not in err
        if code == 0:
            assert err == ""
            continue
        record = json.loads(err) if err else {}
        assert err == "" or (isinstance(record, dict) and "error" in record)
        if code == 2:
            assert record.get("field") is not None and out == ""
        elif "invariant" not in record:
            report = json.loads(out)
            certificate = report if command == "certify" else report["certificate"]
            assert certificate["kind"] == "NotCertified"
    if outcomes["certify"][0] == 2:
        for command in ("hh", "breaks", "plot"):
            assert outcomes[command] == outcomes["certify"]


# command-line words: every command, inputs, options spelled in full, cut
# short and with "=", help and the end of options, and counts good and bad
# (Arabic-Indic two, and past the interpreter's int digit limit)
ARGV_WORDS = (
    *cli.COMMANDS, "selftest", "a.json", "b.json", "", "--depth", "--out", "--jobs", "--dep",
    "--depth=3", "-h", "--", "-", "-5", "0", "2", "\u0662", "1" * 5000, "x y",
)


@st.composite
def command_lines(draw):
    """Words of ``ARGV_WORDS`` alone, or one of them put anywhere in a
    command's line of some of its parts in any order: two inputs and its
    options with good values.  About one line in seven drawn is plain."""
    command, argv = draw(st.sampled_from((*cli.COMMANDS, None))), []
    if command:
        _input, options = cli._SPECS[command]
        values = {flag: "o.svg" if flag == "--out" else "2" for flag in options}
        parts = [["a.json"], ["b.json"], *([flag, value] for flag, value in values.items())]
        drawn = draw(st.lists(st.sampled_from(parts), unique_by=tuple))
        argv = [command, *(word for part in drawn for word in part)]
    for word in draw(st.lists(st.sampled_from(ARGV_WORDS), max_size=1 if command else 6)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(derandomize=True, database=None, max_examples=1000, deadline=None)
@given(argv=command_lines())
def test_plain_reader_is_parse_args(argv):
    # whatever the plain reader accepts reads to parse_args's fields, and
    # anything else is parse_args's own: the same fields, output and exit
    with unittest.mock.patch.dict(os.environ, {"COLUMNS": "200"}):
        expected = argv_outcome(cli.build_parser().parse_args, argv)
        assert argv_outcome(cli._parse_args, argv) == expected
