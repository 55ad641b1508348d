"""Generated documents: schema validity and round trips through the document edge.

Profiles, base valuations and slope choices are drawn by Hypothesis; the
branch comes from ``predict_branch``.  Runs are derandomized, so the suite
sees the same examples every time.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")

from hypothesis import assume, given, settings, strategies as st

from ramstab.branches import BranchDataError, PolynomialValuationProfile, predict_branch
from ramstab.inputdoc import InputDocument, parse_document
from ramstab.valuations import format_rational, parse_rational

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
    obj = doc.to_json()
    jsonschema.validate(obj, SCHEMA)
    assert parse_document(obj) == doc
    strings = [obj["base_valuation"], *obj["branch_valuations"], *obj["coeff_valuations"].values()]
    for text in strings:
        assert format_rational(parse_rational(text)) == text
