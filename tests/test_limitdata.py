"""Limiting vertex data, the error coefficient, and exact level polygons."""

import random
from fractions import Fraction

import pytest

from helpers import (
    UNIFORMIZER_PROFILE,
    SAMPLE_PROFILE,
    kummer_carries,
    level_polygon,
    predict_branch,
    random_profile,
)

from ramstab.branches import BranchDataError, build_record, halving_level
from ramstab.limitdata import (
    LimitingRamificationData,
    compute_C,
    limiting_data,
    limiting_data_for_branch,
    main_and_error,
    reindexed_record,
)
from ramstab.polygons import lower_hull


class TestMainAndError:
    def test_sample_k0(self):
        assert main_and_error(SAMPLE_PROFILE, 1)[0] == (3, 3)

    def test_sample_k1(self):
        assert main_and_error(SAMPLE_PROFILE, 1)[1] == (2, 0)

    def test_leading_k_is_trivial(self):
        # one entry per k = 0..r; the last is over q itself
        assert len(main_and_error(SAMPLE_PROFILE, 1)) == 3
        assert main_and_error(SAMPLE_PROFILE, 1)[-1] == (0, 0)
        assert main_and_error(UNIFORMIZER_PROFILE, 1)[-1] == (0, 0)

    def test_negative_sign_takes_last_index(self):
        # sample profile, k=0: minimum 3 achieved at j=4 and j=7
        assert main_and_error(SAMPLE_PROFILE, -1)[0] == (3, 6)


class TestLimitingData:
    def test_sample(self):
        data = limiting_data(SAMPLE_PROFILE, 1)
        assert (data.V, data.R, data.M, data.E) == (3, (0, 1, 2), (3, 2, 0), (3, 0, 0))

    def test_uniformizer(self):
        data = limiting_data(UNIFORMIZER_PROFILE, 1)
        assert (data.V, data.R, data.M, data.E) == (2, (0, 1), (1, 0), (1, 0))

    def test_degree_p_always_two_vertices(self):
        rng = random.Random(3)
        for _ in range(40):
            profile = random_profile(rng, r=1)
            for sign in (1, -1):
                assert limiting_data(profile, sign).V == 2

    def test_structural_invariants(self):
        rng = random.Random(4)
        for _ in range(120):
            profile = random_profile(rng)
            for sign in (1, -1):
                data = limiting_data(profile, sign)
                assert data.R[0] == 0 and data.R[-1] == profile.r
                assert data.M[-1] == 0 and data.E[-1] == 0
                assert all(0 <= e <= profile.q - 1 for e in data.E)

    def test_validation(self):
        with pytest.raises(ValueError):
            LimitingRamificationData(V=2, R=(1, 2), M=(1, 0), E=(0, 0), sign=1)
        with pytest.raises(ValueError):
            LimitingRamificationData(V=2, R=(0, 1), M=(1, 1), E=(0, 0), sign=1)


class TestComputeC:
    def test_sample(self):
        record = build_record(
            SAMPLE_PROFILE, ["4", "2/3", "2/27", "2/243", "2/2187"]
        )
        assert halving_level(SAMPLE_PROFILE, record) == 1
        # q^n v(a_n) is 6 at every level from the halving level on
        for n in range(1, 5):
            assert compute_C(SAMPLE_PROFILE, record, n) == 6

    def test_negative_base(self):
        record = predict_branch(SAMPLE_PROFILE, -1, depth=1)
        assert compute_C(SAMPLE_PROFILE, record, halving_level(SAMPLE_PROFILE, record)) == -1

    def test_uniformizer(self):
        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3"])
        assert compute_C(UNIFORMIZER_PROFILE, record, halving_level(UNIFORMIZER_PROFILE, record)) == 1

    def test_zero_start_reads_the_first_forced_level(self):
        # the first finite level, 1, is forced: C = q^1 * v_1 = 3 * 1, and
        # q^n * v_n gives the same value at every later level
        record = build_record(UNIFORMIZER_PROFILE, [None, "1", "1/3", "1/9", "1/27"])
        assert halving_level(UNIFORMIZER_PROFILE, record) == 1
        assert compute_C(UNIFORMIZER_PROFILE, record, 1) == 3
        assert compute_C(UNIFORMIZER_PROFILE, record, 4) == 3

    def test_record_too_short(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        with pytest.raises(BranchDataError, match="level 4"):
            compute_C(SAMPLE_PROFILE, record, 4)


class TestLevelPolygon:
    def test_sample_relative_to_first_level(self):
        # re-based at the level with valuation 2/3 the coefficient is 2/3
        record = build_record(SAMPLE_PROFILE, ["2/3", "2/27"])
        data, record, n_used = limiting_data_for_branch(SAMPLE_PROFILE, record)
        assert data.C == Fraction(2, 3)
        assert n_used == 0
        polygon = level_polygon(SAMPLE_PROFILE, data, 1)
        assert polygon == (
            (1, Fraction(29, 9)),
            (3, Fraction(2)),
            (9, Fraction(0)),
        )

    def test_uniformizer_level_one(self):
        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3"])
        data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
        polygon = level_polygon(UNIFORMIZER_PROFILE, data, 1)
        assert polygon == ((1, Fraction(4, 3)), (3, Fraction(0)))

    def test_error_terms_vanish_in_the_limit(self):
        record = build_record(SAMPLE_PROFILE, ["2/3", "2/27"])
        data, record, _ = limiting_data_for_branch(SAMPLE_PROFILE, record)
        polygon = level_polygon(SAMPLE_PROFILE, data, 60)
        for (x, y), m in zip(polygon, data.M):
            assert abs(y - m) < Fraction(1, 10**20)

    def test_requires_C(self):
        data = limiting_data(SAMPLE_PROFILE, 1)
        with pytest.raises(ValueError, match="C"):
            level_polygon(SAMPLE_PROFILE, data, 2)


def exact_height(profile, i, v_n):
    """Independent term-by-term minimum for the height over column i."""
    best = None
    arg = None
    tie = False
    for j in range(i, profile.q + 1):
        coefficient = profile.coeff_valuations.get(j)
        if coefficient is None:  # a zero coefficient contributes no term
            continue
        value = kummer_carries(j, i, profile.p) * profile.v_p + coefficient + (j - i) * v_n
        if best is None or value < best:
            best, arg, tie = value, j, False
        elif value == best:
            tie = True
    return best, arg, tie


class TestHeightOracle:
    def test_level_polygon_matches_term_minima(self):
        rng = random.Random(8)
        checked = 0
        while checked < 25:
            profile = random_profile(rng)
            sign = rng.choice((1, -1))
            base = Fraction(sign * rng.randint(1, profile.q - 1), profile.q**2 * rng.randint(1, 3))
            record = predict_branch(profile, base, depth=3)
            data, record, _ = limiting_data_for_branch(profile, record)
            for n in (2, 3):
                v_n = Fraction(data.C, profile.q**n)
                polygon = level_polygon(profile, data, n)
                full = []
                for i in range(1, profile.q + 1):
                    height, _, tie = exact_height(profile, i, v_n)
                    assert not tie, "minimizer must be unique"
                    full.append((i, height))
                hull = lower_hull(full)
                assert hull == polygon
                # vertices occur only at powers of p
                for x, _ in hull:
                    while x % profile.p == 0:
                        x //= profile.p
                    assert x == 1
            checked += 1

    def test_surrogate_selects_the_exact_vertex_set(self):
        rng = random.Random(9)
        checked = 0
        while checked < 25:
            profile = random_profile(rng)
            sign = rng.choice((1, -1))
            base = Fraction(sign * rng.randint(1, profile.q - 1), profile.q**2 * rng.randint(1, 3))
            record = predict_branch(profile, base, depth=2)
            data, record, _ = limiting_data_for_branch(profile, record)
            for n in (2, 3, 4):
                if abs(Fraction(data.C, profile.q**n)) > Fraction(1, profile.q**2):
                    continue
                polygon = level_polygon(profile, data, n)
                assert tuple(x for x, _ in polygon) == tuple(
                    profile.p**r for r in data.R
                )
            checked += 1


class TestReindex:
    def test_reindex_recomputes_C_from_tail(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        data, record, _ = limiting_data_for_branch(SAMPLE_PROFILE, record)
        tail = reindexed_record(record, 3)
        assert tail.valuations[0] == Fraction(2, 243)
        assert compute_C(SAMPLE_PROFILE, tail, halving_level(SAMPLE_PROFILE, tail)) == Fraction(2, 243)
        assert data.C / SAMPLE_PROFILE.q**3 == Fraction(2, 243)

    def test_reindex_bounds(self):
        record = build_record(SAMPLE_PROFILE, ["4", "2/3", "2/27"])
        with pytest.raises(BranchDataError):
            reindexed_record(record, 9)
