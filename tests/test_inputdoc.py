"""Input-document parsing, diagnostics, round-trips, and the JSON schema."""

import json
import sys
import time
from pathlib import Path

import pytest

from ramstab.inputdoc import InputError, load_document, parse_document
from ramstab.valuations import PRIME_BOUND

REPO = Path(__file__).resolve().parent.parent
SAMPLE = REPO / "src" / "ramstab" / "data" / "sample.json"
UNIFORMIZER = REPO / "src" / "ramstab" / "data" / "uniformizer.json"
SCHEMA = REPO / "schema" / "input.schema.json"


def sample_obj():
    return json.loads(SAMPLE.read_text())


class TestParsing:
    def test_fixture_documents_parse(self):
        doc = load_document(SAMPLE)
        profile = doc.profile
        assert profile.p == 3 and profile.r == 2 and profile.v_p == 2
        assert doc.d == 2
        assert profile.q == 9
        assert len(doc.record.valuations) == 3

    def test_round_trip_is_identity(self):
        for path in (SAMPLE, UNIFORMIZER):
            doc = load_document(path)
            again = parse_document(doc.to_json())
            assert again == doc
            assert parse_document(again.to_json()) == again

    def test_unknown_field_rejected(self):
        obj = sample_obj()
        obj["colour"] = 1
        with pytest.raises(InputError, match="colour"):
            parse_document(obj)

    def test_field_precise_diagnostics(self):
        cases = [
            ({"p": "three"}, "p"),
            ({"p": 4}, "p"),
            ({"r": 0}, "r"),
            ({"v_p": 0}, "v_p"),
            ({"base_valuation": "1.5"}, "base_valuation"),
            ({"branch_valuations": []}, "branch_valuations"),
            ({"branch_valuations": ["4", "x"]}, r"branch_valuations\[1\]"),
            ({"d": 0}, "d"),
            ({"leading_zeros": 2}, "leading_zeros"),
        ]
        for patch, field in cases:
            obj = sample_obj()
            obj.update(patch)
            with pytest.raises(InputError, match=field):
                parse_document(obj)

    def test_coefficient_diagnostics(self):
        obj = sample_obj()
        obj["coeff_valuations"] = {"1": "4", "10": "1", "9": "0"}
        with pytest.raises(InputError, match=r"coeff_valuations\[10\]"):
            parse_document(obj)
        obj = sample_obj()
        obj["coeff_valuations"] = {"1": "1/2", "9": "0"}
        with pytest.raises(InputError, match=r"coeff_valuations\[1\]"):
            parse_document(obj)
        # indices and values are ASCII digits without whitespace, as in the schema
        cases = [
            ("\u00b2", "1"),  # SUPERSCRIPT TWO
            ("\u0664", "1"),  # ARABIC-INDIC DIGIT FOUR
            (" 4", "1"),
            ("4\n", "1"),
            ("01", "1"),
            ("4", "\u0664"),
            ("4", " 4"),
            ("4", "4\n"),
            ("1", 4),  # values are rational strings, not JSON numbers
        ]
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        for key, value in cases:
            obj = sample_obj()
            obj["coeff_valuations"][key] = value
            with pytest.raises(InputError) as exc:
                parse_document(obj)
            assert exc.value.field == f"coeff_valuations[{key}]"
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(obj, schema)

    def test_null_optional_fields_rejected(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        for field in ("d", "leading_zeros"):
            obj = sample_obj()
            obj[field] = None
            with pytest.raises(InputError) as exc:
                parse_document(obj)
            assert exc.value.field == field
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(obj, schema)

    def test_large_prime_accepted(self):
        p = 1000000007
        doc = parse_document(
            {
                "p": p, "r": 1, "v_p": 1,
                "coeff_valuations": {"1": "1", str(p): "0"},
                "base_valuation": "1",
                "branch_valuations": ["1"],
            }
        )
        assert doc.profile.q == p

    def test_large_composite_rejected(self):
        obj = sample_obj()
        obj.update({"p": 1000000008, "r": 1})
        with pytest.raises(InputError) as exc:
            parse_document(obj)
        assert exc.value.field == "p"

    def test_eighteen_digit_prime_accepted_at_once(self):
        # trial division would take minutes here
        p = 10**18 + 3
        start = time.perf_counter()
        doc = parse_document(
            {
                "p": p, "r": 1, "v_p": 1,
                "coeff_valuations": {"1": "1", str(p): "0"},
                "base_valuation": "1",
                "branch_valuations": ["1"],
            }
        )
        assert time.perf_counter() - start < 0.1
        assert doc.profile.q == p

    def test_strong_pseudoprimes_rejected(self):
        # strong pseudoprimes to the bases 2..7 and 2..37
        for p in (3215031751, 318665857834031151167461):
            obj = sample_obj()
            obj.update({"p": p, "r": 1})
            with pytest.raises(InputError, match="not prime") as exc:
                parse_document(obj)
            assert exc.value.field == "p"

    def test_p_at_the_prime_test_bound_rejected(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        obj = sample_obj()
        obj.update({"p": PRIME_BOUND, "r": 1})
        with pytest.raises(InputError, match="not below") as exc:
            parse_document(obj)
        assert exc.value.field == "p"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema)
        obj["p"] = PRIME_BOUND - 1
        jsonschema.validate(obj, schema)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    @pytest.mark.parametrize(
        "r, keys",
        [
            (15000, ["1" * 4400]),  # q = 2^15000 has 4516 digits
            (15000, []),
            (10**8, []),
            (14285, []),  # 2^14285 has 4301 digits, the fewest past the limit
        ],
    )
    def test_oversize_r_rejected_before_q(self, r, keys):
        obj = {
            "p": 2, "r": r, "v_p": 1,
            "coeff_valuations": {"1": "1", **{key: "0" for key in keys}},
            "base_valuation": "1", "branch_valuations": ["1"],
        }
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            start = time.perf_counter()
            with pytest.raises(InputError) as exc:
                parse_document(obj)
            elapsed = time.perf_counter() - start
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.field == "r" and "4300 digits" in str(exc.value)
        assert elapsed < 0.1  # p**r for r = 10**8 alone takes over a second

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    def test_largest_printable_q_passes_the_r_check(self):
        # 2^14284 has 4300 digits: r is fine, and the missing index q is reported
        obj = {
            "p": 2, "r": 14284, "v_p": 1, "coeff_valuations": {"1": "1"},
            "base_valuation": "1", "branch_valuations": ["1"],
        }
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            with pytest.raises(InputError) as exc:
                parse_document(obj)
        finally:
            sys.set_int_max_str_digits(saved)
        assert exc.value.field == "coeff_valuations" and "monic" in str(exc.value)

    def test_missing_file_names_the_root(self, tmp_path):
        with pytest.raises(InputError) as exc:
            load_document(tmp_path / "missing.json")
        assert exc.value.field == "$"

    def test_head_must_match_base(self):
        obj = sample_obj()
        obj["base_valuation"] = "5"
        with pytest.raises(InputError, match=r"branch_valuations\[0\]"):
            parse_document(obj)

    def test_inconsistent_branch_rejected(self):
        obj = sample_obj()
        obj["branch_valuations"] = ["4", "1/2"]
        with pytest.raises(InputError, match="branch_valuations"):
            parse_document(obj)

    def test_zero_coefficient_spelled_inf(self):
        obj = sample_obj()
        obj["coeff_valuations"]["2"] = "inf"
        doc = parse_document(obj)
        assert 2 not in doc.profile.coeff_valuations
        assert parse_document(doc.to_json()) == doc

    def test_leading_zero_branch(self):
        obj = json.loads(UNIFORMIZER.read_text())
        obj["base_valuation"] = "inf"
        obj["branch_valuations"] = ["inf", "1", "1/3"]
        obj.pop("d")
        doc = parse_document(obj)
        assert doc.record.leading_zeros == 1
        assert doc.to_json()["leading_zeros"] == 1


class TestSchema:
    def test_fixtures_validate_against_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        for path in (SAMPLE, UNIFORMIZER):
            jsonschema.validate(json.loads(path.read_text()), schema)

    def test_schema_rejects_malformed_rational(self):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads(SCHEMA.read_text())
        obj = sample_obj()
        obj["base_valuation"] = "1.5"
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(obj, schema)
