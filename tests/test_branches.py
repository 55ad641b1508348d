"""Branch valuation dynamics: prediction, validation, estimates."""

import random
from fractions import Fraction

import pytest

from helpers import UNIFORMIZER_PROFILE, SAMPLE_PROFILE, predict_branch, random_profile

from ramstab.branches import (
    BranchDataError,
    PolynomialValuationProfile,
    branch_step_candidates,
    build_record,
    estimate_d,
    find_stable_index,
    halving_level,
    minimal_d_estimate,
    zero_departure_candidates,
)
from ramstab.limitdata import complete_record


class TestProfileValidation:
    def test_monic_required(self):
        with pytest.raises(ValueError, match="monic"):
            PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={1: 2})

    def test_nonleading_must_be_positive(self):
        with pytest.raises(ValueError, match="non-leading"):
            PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={1: 0, 3: 0})

    def test_prime_required(self):
        with pytest.raises(ValueError, match="not prime"):
            PolynomialValuationProfile(p=4, r=1, v_p=1, coeff_valuations={4: 0})

    def test_index_bounds(self):
        with pytest.raises(ValueError, match="outside"):
            PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={3: 0, 5: 1})

    def test_total_accessor(self):
        # a zero coefficient is an absent index
        assert SAMPLE_PROFILE.coeff_valuations.get(2) is None
        assert SAMPLE_PROFILE.coeff_valuations.get(3) == 2
        assert SAMPLE_PROFILE.min_nonleading_valuation() == 2
        monomial = PolynomialValuationProfile(p=3, r=1, v_p=1, coeff_valuations={3: 0})
        assert monomial.min_nonleading_valuation() is None


class TestStepCandidates:
    def test_single_slope_from_small_valuation(self):
        assert branch_step_candidates(SAMPLE_PROFILE, Fraction(2, 3)) == [Fraction(2, 27)]

    def test_two_slopes_from_base(self):
        cands = branch_step_candidates(SAMPLE_PROFILE, 4)
        assert Fraction(2, 3) in cands
        assert cands == [Fraction(2, 3), Fraction(1, 3)]

    def test_uniformizer_eisenstein_step(self):
        assert branch_step_candidates(UNIFORMIZER_PROFILE, 1) == [Fraction(1, 3)]

    def test_infinite_previous_rejected(self):
        with pytest.raises(BranchDataError):
            branch_step_candidates(SAMPLE_PROFILE, None)

    def test_zero_departure(self):
        # nonzero preimages of zero for the sample profile: hull of the
        # coefficient points alone, slopes -1 and -1/3
        cands = zero_departure_candidates(SAMPLE_PROFILE)
        assert cands == [Fraction(1), Fraction(1, 3)]


class TestPredictBranch:
    def test_sample_with_choice(self):
        record = predict_branch(SAMPLE_PROFILE, 4, choices=[0], depth=4)
        assert [str(v) for v in record.valuations] == ["4", "2/3", "2/27", "2/243", "2/2187"]

    def test_uniformizer_forced(self):
        record = predict_branch(UNIFORMIZER_PROFILE, 1, depth=3)
        assert [str(v) for v in record.valuations] == ["1", "1/3", "1/9", "1/27"]

    def test_negative_base_divides_by_q(self):
        record = predict_branch(SAMPLE_PROFILE, -5, depth=3)
        values = list(record.valuations)
        assert values == [-5, Fraction(-5, 9), Fraction(-5, 81), Fraction(-5, 729)]

    def test_ambiguous_step_needs_choice(self):
        with pytest.raises(BranchDataError, match="ambiguous"):
            predict_branch(SAMPLE_PROFILE, 4, depth=1)

    def test_choice_out_of_range(self):
        with pytest.raises(BranchDataError, match="out of range"):
            predict_branch(SAMPLE_PROFILE, 4, choices=[5], depth=1)


class TestRecordValidation:
    def test_inconsistent_step_rejected(self):
        with pytest.raises(BranchDataError, match="not a root valuation"):
            build_record(SAMPLE_PROFILE, ["4", "1/2"])

    def test_mixed_signs_rejected(self):
        with pytest.raises(BranchDataError, match="opposite sign"):
            build_record(SAMPLE_PROFILE, ["-1", "1/3"])

    def test_zero_valuation_rejected(self):
        with pytest.raises(BranchDataError, match="zero"):
            build_record(SAMPLE_PROFILE, ["0"])

    def test_infinite_after_finite_rejected(self):
        with pytest.raises(BranchDataError, match="infinite after"):
            build_record(SAMPLE_PROFILE, ["4", None])

    def test_leading_zeros_accepted(self):
        record = build_record(SAMPLE_PROFILE, [None, "1", "1/9"])
        assert record.leading_zeros == 1
        assert record.sign == 1
        assert record.d_estimates[0] is None

    def test_extension_is_forced_only(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3"])
        extended, N = complete_record(SAMPLE_PROFILE, record)
        assert N == 1
        assert [str(v) for v in extended.valuations] == ["4", "2/3", "2/27", "2/243", "2/2187"]
        assert extended.d_estimates == (4, 2, 2, 2, 2)
        stuck = build_record(SAMPLE_PROFILE, ["4"])
        with pytest.raises(BranchDataError, match="step 0 has 2 candidate"):
            halving_level(SAMPLE_PROFILE, stuck)


class TestBounds:
    """The halving level is the first recorded level whose step is forced."""

    def test_integer_base(self):
        # 4 has two candidates on sample; 2/3 <= q * (1/3) = 3 is forced
        assert halving_level(SAMPLE_PROFILE, build_record(SAMPLE_PROFILE, ["4", "2/3"])) == 1
        assert halving_level(UNIFORMIZER_PROFILE, build_record(UNIFORMIZER_PROFILE, ["1"])) == 0

    def test_no_forced_level_raises(self):
        # 7/2 > 3: the step from 7/2 has two candidates, and nothing is recorded past it
        with pytest.raises(BranchDataError, match="cannot extend: step 0 has 2 candidate"):
            halving_level(SAMPLE_PROFILE, build_record(SAMPLE_PROFILE, ["7/2"]))

    def test_negative_and_zero_bases(self):
        assert halving_level(SAMPLE_PROFILE, predict_branch(SAMPLE_PROFILE, -1)) == 0
        record = build_record(UNIFORMIZER_PROFILE, [None, "1"])
        assert halving_level(UNIFORMIZER_PROFILE, record) == 1
        # the step leaving zero is forced: its valuation is the one root valuation, 1
        record = build_record(UNIFORMIZER_PROFILE, [None])
        assert halving_level(UNIFORMIZER_PROFILE, record) == 1
        completed, N = complete_record(UNIFORMIZER_PROFILE, record)
        assert N == 1
        assert completed.valuations == (
            None, Fraction(1), Fraction(1, 3), Fraction(1, 9), Fraction(1, 27)
        )
        with pytest.raises(BranchDataError, match="step 0 has 2 candidate"):
            halving_level(SAMPLE_PROFILE, build_record(SAMPLE_PROFILE, [None]))


class TestEstimateD:
    def test_sample_heuristic(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        assert record.d_estimates == (4, 2, 2)
        d, trusted = estimate_d(SAMPLE_PROFILE, record)
        assert d == 2 and not trusted

    def test_uniformizer_base_is_trusted(self):
        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
        d, trusted = estimate_d(UNIFORMIZER_PROFILE, record)
        assert d == 1 and trusted
        single = build_record(UNIFORMIZER_PROFILE, ["1"])
        assert estimate_d(UNIFORMIZER_PROFILE, single) == (1, True)

    def test_minimal_d_respects_e_ke(self):
        assert minimal_d_estimate(Fraction(1, 2), 1) == 1
        assert minimal_d_estimate(Fraction(1, 2), 4) == 2
        assert minimal_d_estimate(Fraction(-2, 3), 1) == -2


class TestFindStableIndex:
    def test_sample_record(self):
        record = build_record(
            SAMPLE_PROFILE, ["4", "2/3", "2/27", "2/243"]
        )
        assert find_stable_index(SAMPLE_PROFILE, record) == 3

    def test_uniformizer_record(self):
        record = build_record(
            UNIFORMIZER_PROFILE, ["1", "1/3", "1/9", "1/27", "1/81", "1/243"]
        )
        assert find_stable_index(UNIFORMIZER_PROFILE, record) == 2

    def test_absent_when_never_small(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        assert find_stable_index(SAMPLE_PROFILE, record) is None


class TestSemistableRelation:
    def test_halving_regime_and_d_ratios(self):
        # below valuation 1 every step divides by q exactly, and the
        # minimal-ramification d-sequence moves by divisors of q
        rng = random.Random(17)
        for _ in range(60):
            profile = random_profile(rng)
            q = profile.q
            num = rng.randint(1, q - 1)
            den = rng.randint(num + 1, 3 * q)
            base = Fraction(num, den) * rng.choice((1, -1))
            record = predict_branch(profile, base, depth=5)
            values = list(record.valuations)
            for a, b in zip(values, values[1:]):
                assert b == a / q
            estimates = list(record.d_estimates)
            for a, b in zip(estimates, estimates[1:]):
                e_n = Fraction(q * b, a)
                assert e_n.denominator == 1
                assert q % int(e_n) == 0
