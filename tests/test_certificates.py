"""Stability predicates, certification outcomes, and self-validation."""

import random
from fractions import Fraction

import pytest

from helpers import UNIFORMIZER_PROFILE, SAMPLE_PROFILE, random_profile

from ramstab.branches import PolynomialValuationProfile, build_record
from ramstab.certificates import (
    StabilityCertificate,
    CertificateCheck,
    certify,
    composition_criterion,
    evaluate_check,
    pcb_normal_form,
    pcb_sufficient,
    revalidate,
)
from ramstab.limitdata import level_polygon, limiting_data, limiting_data_for_branch


class TestPCBNormalForm:
    def test_sample_fails_at_four(self):
        ok, witness = pcb_normal_form(SAMPLE_PROFILE)
        assert not ok and witness == 4

    def test_uniformizer_passes(self):
        assert pcb_normal_form(UNIFORMIZER_PROFILE) == (True, None)

    def test_pure_power_passes(self):
        profile = PolynomialValuationProfile(p=3, r=2, v_p=1, coeff_valuations={9: 0})
        assert pcb_normal_form(profile) == (True, None)


class TestCompositionCriterion:
    def test_sample_passes_at_small_base(self):
        data = limiting_data(SAMPLE_PROFILE, 1)
        ok, checks = composition_criterion(data, Fraction(2, 3), 3, 9)
        assert ok
        assert checks[0].lhs == "3" and checks[0].rhs == "7/6"

    def test_sample_fails_at_large_base(self):
        data = limiting_data(SAMPLE_PROFILE, 1)
        ok, checks = composition_criterion(data, 4, 3, 9)
        assert not ok
        assert checks[0].lhs == "3" and checks[0].rhs == "9/2"

    def test_single_slope_is_automatic(self):
        data = limiting_data(UNIFORMIZER_PROFILE, 1)
        ok, checks = composition_criterion(data, 1000, 3, 3)
        assert ok and checks[0].name == "single-limiting-slope"

    def test_degree_p_always_passes(self):
        rng = random.Random(31)
        for _ in range(30):
            profile = random_profile(rng, r=1)
            data = limiting_data(profile, 1)
            ok, checks = composition_criterion(data, rng.randint(1, 50), profile.p, profile.q)
            assert ok and checks[0].name == "single-limiting-slope"


class TestPCBSufficient:
    def test_examples(self):
        assert pcb_sufficient(5, 1, 1)
        assert not pcb_sufficient(3, 1, 1)
        assert pcb_sufficient(3, 2, 1)

    def test_odd_primes_allow_uniformizers(self):
        for p in (5, 7, 11, 13):
            assert pcb_sufficient(p, 1, 1)


class TestCertify:
    def sample_branch(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        data, record, _ = limiting_data_for_branch(SAMPLE_PROFILE, record)
        return record, data

    def test_sample_potentially_stable(self):
        record, data = self.sample_branch()
        cert = certify(SAMPLE_PROFILE, record, data, d=2)
        assert cert.kind == "PotentiallyTRS"
        assert cert.reindex >= 1
        assert cert.d_used == 2 and cert.d_trusted and not cert.conditional_on_d
        comp = {
            c.level: (c.lhs, c.rhs, c.passed)
            for c in cert.checks
            if c.name == "composition-criterion"
        }
        assert comp[0] == ("3", "9/2", False)
        assert comp[1] == ("3", "7/6", True)

    def test_sample_without_d_is_conditional(self):
        record, data = self.sample_branch()
        cert = certify(SAMPLE_PROFILE, record, data)
        assert cert.kind == "PotentiallyTRS"
        assert cert.d_used == 2 and not cert.d_trusted and cert.conditional_on_d

    def test_uniformizer_is_stable_at_base(self):
        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
        data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
        cert = certify(UNIFORMIZER_PROFILE, record, data, d=1)
        assert cert.kind == "TRS" and cert.reindex == 0
        assert cert.d_trusted
        assert all(c.passed for c in cert.checks)
        names = {c.name for c in cert.checks}
        assert "uniformizer-base" in names

    def test_divisible_d_not_certified(self):
        record, data = self.sample_branch()
        cert = certify(SAMPLE_PROFILE, record, data, d=3)
        assert cert.kind == "NotCertified"
        assert "divides" in cert.reason
        failed = [c for c in cert.checks if not c.passed]
        assert failed and failed[0].name == "d-prime-to-p"

    def test_short_record_not_certified(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3"])
        cert = certify(SAMPLE_PROFILE, record, limiting_data(SAMPLE_PROFILE, record.sign), d=2)
        assert cert.kind == "NotCertified"
        assert cert.reason is not None

    def test_monotone_in_reindex(self):
        # once certified at N, every deeper recorded level also passes
        from ramstab.certificates import composition_criterion as crit
        from ramstab.branches import find_stable_index

        record, data = self.sample_branch()
        cert = certify(SAMPLE_PROFILE, record, data, d=2)
        for n in range(cert.reindex, len(record.valuations)):
            v = record.valuations[n]
            ok, _ = crit(data, v, SAMPLE_PROFILE.p, SAMPLE_PROFILE.q)
            assert ok

    def test_reindex_is_at_least_the_stability_screen(self):
        from ramstab.branches import find_stable_index

        record, data = self.sample_branch()
        cert = certify(SAMPLE_PROFILE, record, data, d=2)
        screen = find_stable_index(SAMPLE_PROFILE, record)
        assert screen is not None and cert.reindex >= screen

    @pytest.mark.xfail(
        strict=True,
        raises=ValueError,
        reason="a uniformizer base passes the screen at level 0 outright, and no check "
        "asks that the level polygons be strictly convex: here level 1 is not",
    )
    def test_certified_uniformizer_base_has_stable_polygons(self):
        profile = PolynomialValuationProfile(p=5, r=2, v_p=1, coeff_valuations={1: 2, 25: 0})
        data, record, _ = limiting_data_for_branch(profile, build_record(profile, ["1"]))
        assert certify(profile, record, data).kind == "TRS"
        for n in range(1, 4):
            level_polygon(profile, data, n)


class TestSelfValidation:
    def test_all_fixture_certificates_revalidate(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        data, record, _ = limiting_data_for_branch(SAMPLE_PROFILE, record)
        for d in (2, None, 3):
            assert revalidate(certify(SAMPLE_PROFILE, record, data, d=d))
        b_record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
        b_data, b_record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, b_record)
        assert revalidate(certify(UNIFORMIZER_PROFILE, b_record, b_data, d=1))

    def test_evaluate_check_ops(self):
        assert evaluate_check("3", ">", "7/6")
        assert not evaluate_check("3", ">", "9/2")
        assert evaluate_check("3", "not-divides", "2")
        assert not evaluate_check("3", "not-divides", "6")
        with pytest.raises(ValueError):
            evaluate_check("1", "~", "2")

    def test_certificate_invariants_enforced(self):
        bad = CertificateCheck("x", 0, "1", ">", "2", passed=False)
        with pytest.raises(ValueError, match="TRS"):
            StabilityCertificate(
                kind="TRS", reindex=1, d_used=1, d_trusted=True,
                conditional_on_d=False, checks=(),
            )
        with pytest.raises(ValueError, match="failed"):
            StabilityCertificate(
                kind="TRS", reindex=0, d_used=1, d_trusted=True,
                conditional_on_d=False, checks=(bad,),
            )
        with pytest.raises(ValueError, match="certified level"):
            StabilityCertificate(
                kind="PotentiallyTRS", reindex=0, d_used=1, d_trusted=True,
                conditional_on_d=False, checks=(bad,),
            )

    def test_json_round_trip_fields(self):
        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
        data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
        cert = certify(UNIFORMIZER_PROFILE, record, data, d=1)
        payload = cert.to_json()
        assert payload["kind"] == "TRS"
        assert payload["checks"][0]["rendered"]
        assert payload["interpretation_notes"]
