"""Transition functions, tower composition, breaks and subfield table."""

import json
import logging
import random
from fractions import Fraction

import pytest

from helpers import (
    UNIFORMIZER_PROFILE,
    SAMPLE_PROFILE,
    altitude,
    compose,
    evaluate,
    fraction_level_model,
    int_digit_limit,
    level_polygon,
    level_vertices,
    phi_oracle,
    predict_branch,
    random_profile,
    tower_levels,
    tower_vertices,
)

from ramstab.branches import build_record
from ramstab.certificates import certify
from ramstab import hasseherbrand
from ramstab.cli import _render, _table
from ramstab.hasseherbrand import (
    TowerInvariantError,
    build_tower,
    first_failure,
    level_model,
    printable_depth,
)
from ramstab.limitdata import LimitingRamificationData, limiting_data_for_branch
from ramstab.valuations import InputError, format_rational


def uniformizer_data():
    record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
    data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
    return data, record


def sample_data_rebased():
    # the sample branch re-based at its first level (valuation 2/3)
    record = build_record(SAMPLE_PROFILE, ["2/3", "2/27"])
    data, record, _ = limiting_data_for_branch(SAMPLE_PROFILE, record)
    return data, record


def printed_table(tower, reindex=0):
    """The ``breaks``, ``subfields`` and ``break_scale`` entries as the
    ``breaks`` and ``hh`` commands print them, read back as JSON."""
    return json.loads(_render(_table(tower, reindex)[1]))


def phi_at(profile, data, n, d, v_base):
    return phi_oracle(level_model(profile, data, d, v_base), n)


class TestBuildPhi:
    """phi_n of one level: its values from the level model's integer
    columns over D, its failures from ``build_tower``."""

    def test_uniformizer_level_one(self):
        data, _ = uniformizer_data()
        phi = phi_at(UNIFORMIZER_PROFILE, data, 1, 1, Fraction(1))
        assert phi.vertices == ((Fraction(2), Fraction(2)),)
        assert phi.slopes() == [1, Fraction(1, 3)]

    def test_uniformizer_level_two(self):
        data, _ = uniformizer_data()
        phi = phi_at(UNIFORMIZER_PROFILE, data, 2, 1, Fraction(1))
        assert phi.vertices == ((Fraction(5), Fraction(5)),)

    def test_unit_d_has_no_shift(self):
        # (d - 1) = 0 kills the shift term for either sign of the base
        data, _ = uniformizer_data()
        phi_pos = phi_at(UNIFORMIZER_PROFILE, data, 1, 1, Fraction(1))
        assert phi_pos.vertices[0][0] == 2
        record = predict_branch(UNIFORMIZER_PROFILE, -1, depth=2)
        neg_data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
        assert neg_data.sign == -1 and neg_data.C == -1
        # level-1 polygon (1, 1 - 2/3), (3, 0): slope -1/6, vertex at 1/2
        phi_neg = phi_at(UNIFORMIZER_PROFILE, neg_data, 1, 1, Fraction(-1))
        assert phi_neg.vertices == ((Fraction(1, 2), Fraction(1, 2)),)

    def test_shift_term_applies_for_d_greater_one(self):
        data, record = sample_data_rebased()
        phi = phi_at(SAMPLE_PROFILE, data, 1, 2, Fraction(2, 3))
        # steepest slope of the level-1 polygon: (2 - 29/9) / 2 = -11/18
        # shallowest: -1/3; shift = (2-1) * 2/3
        assert phi.vertices[0][0] == 9 * Fraction(1, 3) + Fraction(2, 3)
        assert phi.vertices[1][0] == 9 * Fraction(11, 18) + Fraction(2, 3)
        assert phi.slopes() == [1, Fraction(1, 3), Fraction(1, 9)]

    def test_divisible_d_rejected(self):
        data, _ = uniformizer_data()
        with pytest.raises(ValueError, match="divisible"):
            level_model(UNIFORMIZER_PROFILE, data, 3, Fraction(1))

    def test_vertex_count(self):
        data, _ = sample_data_rebased()
        phi = phi_at(SAMPLE_PROFILE, data, 2, 2, Fraction(2, 3))
        assert len(phi.vertices) == data.V - 1


class TestLevelModel:
    """The two per-level checks, at the boundary where each starts to fail."""

    def test_collinear_level_polygon_is_not_stable(self):
        # (1, 4), (3, 3), (9, 0) lie on one line at every level
        data = LimitingRamificationData(
            V=3, R=(0, 1, 2), M=(4, 3, 0), E=(0, 0, 0), sign=1, C=Fraction(1)
        )
        with pytest.raises(ValueError) as oracle:
            level_polygon(SAMPLE_PROFILE, data, 1)
        with pytest.raises(TowerInvariantError) as err:
            build_tower(level_model(SAMPLE_PROFILE, data, 1, Fraction(1)), 1)
        assert err.value.prop == "level-convexity"
        assert str(err.value) == f"tower invariant 'level-convexity' violated: {oracle.value}"

    def test_first_vertex_at_zero_is_not_positive(self):
        # level-n slope -2/2 puts the first vertex at 3^n * 1 + (-1 - 1) * 3/2
        data = LimitingRamificationData(V=2, R=(0, 1), M=(2, 0), E=(0, 0), sign=1, C=Fraction(1))
        model = level_model(UNIFORMIZER_PROFILE, data, -1, Fraction(3, 2))
        # level 2 is positive, so each depth fails at level 1 and only there
        assert level_vertices(model, 2)[0][0] == phi_oracle(model, 2).vertices[0][0] == 6
        for depth in (1, 2, 6):
            with pytest.raises(TowerInvariantError) as err:
                build_tower(model, depth)
            assert err.value.prop == "vertex-positivity"
            assert str(err.value) == (
                "tower invariant 'vertex-positivity' violated: "
                "level 1 vertex positions are not positive (shift -3); outside the supported regime"
            )


class TestFirstFailure:
    """Tower validity decided on the model, for every depth at once."""

    def test_fixture_towers_never_fail(self):
        # nothing compares the 2,000 levels' vertices: the closed form says
        # no level fails, and the tower builds to that depth
        for profile, data, d, v_base in fixture_cases():
            model = level_model(profile, data, d, v_base)
            assert first_failure(model) is None
            assert len(build_tower(model, 2000, heights=False).xs) == (data.V - 1) * 2000

    def test_debug_logs_the_levels_before_a_failure(self, caplog):
        # x = 3^n + 5, 4 * 3^n holds at levels 1 and 2 and fails the gap at 3
        model = fraction_level_model(3, Fraction(0), ((1, 5), (4, 0)), (Fraction(1, 2),))
        assert first_failure(model) == (3, "composition-gap")
        caplog.set_level(logging.DEBUG, logger="ramstab.hasseherbrand")
        with pytest.raises(TowerInvariantError):
            build_tower(model, 6)
        failing = [record.getMessage() for record in caplog.records]
        caplog.clear()
        build_tower(model, 2)
        assert failing == [record.getMessage() for record in caplog.records]
        assert failing[-1] == "tower level 2: 4 breaks, altitude 43/3"


class TestModelValidation:
    """A model whose slopes do not make a transition function cannot be
    built: the constructor checks them once, for every level."""

    @pytest.mark.parametrize(
        "slopes",
        [
            # phi_n would run at slope 1 from (3^n, 3^n) to (2*3^n, 2*3^n)
            (Fraction(1),),
            # phi_n would fall from (3^n, 3^n) to (2*3^n, 3^n/2)
            (Fraction(-1, 2),),
        ],
    )
    def test_rejects_slopes_that_do_not_decrease(self, slopes):
        with pytest.raises(ValueError) as err:
            fraction_level_model(3, Fraction(0), ((1, 0), (2, 0)), slopes)
        assert str(err.value) == "segment slopes must be strictly decreasing (strict concavity)"

    @pytest.mark.parametrize("slopes", [(), (Fraction(1, 2), Fraction(2, 5))])
    def test_rejects_a_slope_count_other_than_one_per_later_vertex(self, slopes):
        with pytest.raises(ValueError, match="one slope per vertex after its first"):
            fraction_level_model(3, Fraction(0), ((1, 0), (2, 0)), slopes)

    def test_heights_follow_from_the_identity_and_the_slopes(self):
        # phi_n: (3^n, 3^n) on the identity, then slope 1/2 to (2*3^n + 1, ...)
        model = fraction_level_model(3, Fraction(0), ((1, 0), (2, 1)), (Fraction(1, 2),))
        assert (model.D, model.AX, model.BX, model.AY, model.BY) == (2, (2, 4), (0, 2), (2, 3), (0, 1))
        assert phi_oracle(model, 1).vertices == ((3, 3), (7, 5))


class TestBuildTower:
    def test_uniformizer_depth_two(self):
        data, _ = uniformizer_data()
        tower = build_tower(level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1)), 2)
        _, top = tower_levels(tower)[-1]
        assert top.vertices == (
            (Fraction(2), Fraction(2)),
            (Fraction(5), Fraction(3)),
        )
        assert top.slopes() == [1, Fraction(1, 3), Fraction(1, 9)]

    def test_uniformizer_depth_three_adds_fourteen(self):
        data, _ = uniformizer_data()
        tower = build_tower(level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1)), 3)
        assert [Fraction(x, tower.D) for x in tower.xs] == [2, 5, 14]
        _, top = tower_levels(tower)[-1]
        assert top.vertices[-1] == (Fraction(14), Fraction(4))
        assert top.final_slope == Fraction(1, 27)

    def test_depth_one_is_the_transition_function(self):
        data, _ = uniformizer_data()
        model = level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1))
        [(phi, top)] = tower_levels(build_tower(model, 1))
        assert top == phi == phi_oracle(model, 1)

    def test_structural_invariants_along_the_tower(self):
        for profile, (data, record), d in (
            (UNIFORMIZER_PROFILE, uniformizer_data(), 1),
            (SAMPLE_PROFILE, sample_data_rebased(), 2),
        ):
            v_base = record.valuations[0]
            depth = 5
            model = level_model(profile, data, d, v_base)
            tower = build_tower(model, depth)
            assert tower.depth == depth
            levels = [top for _, top in tower_levels(tower)]
            phis = [phi_oracle(model, n) for n in range(1, depth + 1)]
            for n, top in enumerate(levels, start=1):
                assert len(top.vertices) == (data.V - 1) * n
                assert top.final_slope == Fraction(1, profile.q**n)
                assert top.vertices[-1][0] == phis[n - 1].vertices[-1][0]
            for prev, cur in zip(levels, levels[1:]):
                assert altitude(cur) > altitude(prev)
                k = len(prev.vertices)
                assert cur.vertices[:k] == prev.vertices
            for prev, cur in zip(phis, phis[1:]):
                assert cur.vertices[0][0] > prev.vertices[-1][0]

    def test_prefix_agreement_pointwise(self):
        rng = random.Random(55)
        data, record = sample_data_rebased()
        tower = build_tower(level_model(SAMPLE_PROFILE, data, 2, Fraction(2, 3)), 4)
        levels = [top for _, top in tower_levels(tower)]
        for prev, cur in zip(levels, levels[1:]):
            cutoff = prev.vertices[-1][0]
            for _ in range(50):
                x = Fraction(rng.randint(0, cutoff.numerator), cutoff.denominator)
                assert evaluate(cur, x) == evaluate(prev, x)

    def test_altitude_progression_constants(self):
        # last-vertex positions follow A*q^n + B; recover A, B from two
        # levels, confirm on a third, and bound the altitude gaps
        for profile, (data, record), d in (
            (UNIFORMIZER_PROFILE, uniformizer_data(), 1),
            (SAMPLE_PROFILE, sample_data_rebased(), 2),
        ):
            v_base = record.valuations[0]
            tower = build_tower(level_model(profile, data, d, v_base), 4)
            levels = [top for _, top in tower_levels(tower)]
            q = profile.q
            xs = [top.vertices[-1][0] for top in levels]
            A = Fraction(xs[1] - xs[0], q**2 - q**1)
            B = xs[0] - A * q
            assert xs[2] == A * q**3 + B
            assert xs[3] == A * q**4 + B
            gap_bound = A * (profile.p - Fraction(profile.p, q))
            for prev, cur in zip(levels, levels[1:]):
                assert altitude(cur) - altitude(prev) >= gap_bound

    def test_gap_violation_aborts_loudly(self):
        # a huge error coefficient makes the steep first segment of the
        # level-1 function reach past the identity region of the next one
        data, _ = sample_data_rebased()
        broken = data._replace(C=Fraction(100))
        with pytest.raises(TowerInvariantError) as err:
            build_tower(level_model(SAMPLE_PROFILE, broken, 2, Fraction(2, 3)), 3)
        assert err.value.prop == "composition-gap"


def v2_trs_towers(count):
    """(profile, data, d, v_base) of V = 2 branches that certify as TRS at level 0."""
    rng = random.Random(2024)
    found = []
    while len(found) < count:
        profile = random_profile(rng)
        q = profile.q
        base = Fraction(rng.choice((1, -1)) * rng.randint(1, q - 1), q**2 * rng.randint(1, 3))
        record = predict_branch(profile, base, depth=3)
        data, record, _ = limiting_data_for_branch(profile, record)
        if data.V != 2:
            continue
        cert = certify(profile, record, data)
        if cert.kind == "TRS":
            found.append((profile, data, cert.d_used, base))
    return found


def fixture_cases():
    """(profile, data, d, v_base) of the two fixtures' working bases."""
    (u_data, _), (s_data, _) = uniformizer_data(), sample_data_rebased()
    return [
        (UNIFORMIZER_PROFILE, u_data, 1, Fraction(1)),
        (SAMPLE_PROFILE, s_data, 2, Fraction(2, 3)),
    ]


class TestClosedFormTower:
    """The appended tower against the general composition of its phi_n."""

    def test_matches_compose_fold_level_by_level(self):
        for profile, data, d, v_base in fixture_cases() + v2_trs_towers(4):
            model = level_model(profile, data, d, v_base)
            folded = None
            for n, level in enumerate(tower_levels(build_tower(model, 8)), start=1):
                phi = phi_oracle(model, n)
                folded = phi if folded is None else compose(folded, phi)
                assert level == (phi, folded)

    def test_breaks_path_composes_nothing(self):
        # the package holds no general composition to call (see
        # test_layout.py): each phi_n is appended as it stands, so the x
        # and the phi_n y of level n are phi_n's own vertices
        data, _ = sample_data_rebased()
        depth = 20
        model = level_model(SAMPLE_PROFILE, data, 2, Fraction(2, 3))
        tower = build_tower(model, depth)
        table = printed_table(tower)
        _, phi_vertices = tower_vertices(tower)
        size = tower.size
        for n in range(1, depth + 1):
            assert phi_vertices[size * (n - 1) : size * n] == level_vertices(model, n)
        assert len(phi_vertices) == size * depth
        assert len(table["breaks"]) == (data.V - 1) * depth

    def test_lower_levels_are_prefixes_of_the_deepest(self):
        data, _ = sample_data_rebased()
        tower = build_tower(level_model(SAMPLE_PROFILE, data, 2, Fraction(2, 3)), 6)
        levels = [level for _, level in tower_levels(tower)]
        top = levels[-1]
        for level in levels:
            assert level.vertices == top.vertices[: len(level.vertices)]
            # the final ray of each level is the next segment of the deepest
            assert level.final_slope == top.slopes()[len(level.vertices)]


def bare_model(q, T):
    """A one-vertex model whose numerator bound is T: phi_n's vertex is (T, T)."""
    return fraction_level_model(q, Fraction(0), [(Fraction(0), Fraction(T))], [])


def edge_models():
    """Models at the edges of the depth search at a 640-digit limit: 2 T q
    = 10^640 exactly (printable depth 0), T past the limit alone, q = 2
    with T = 1 (printable depth 2,113, past 3 * 640), and q = 2^1000
    (printable depth 2, one below exponent_past_limit(q) = 3)."""
    return [bare_model(2, 25 * 10**638), bare_model(2, 10**700), bare_model(2, 1),
            bare_model(2**1000, 1)]


def scanned_depth(model, digits):
    """The largest n with 2 T n q^n < 10^digits, by a linear scan: T bounds
    the model's numerators as ``printable_depth``'s docstring says."""
    pairs = zip(model.AX + model.AY, model.BX + model.BY)
    T = max(model.D, *(abs(a) + abs(b) for a, b in pairs))
    n = 0
    while 2 * T * (n + 1) * model.q ** (n + 1) < 10**digits:
        n += 1
    return n


class TestPrintableDepth:
    """printable_depth bounds every number hh prints, and is nearly tight;
    build_tower rejects exactly the depths past it, before anything else."""

    def test_bound_holds_at_the_limit_and_is_tight(self):
        for profile, data, d, v_base in fixture_cases():
            model = level_model(profile, data, d, v_base)
            with int_digit_limit(640):
                limit = printable_depth(model)
            with int_digit_limit(0):  # build past the limit, then print at it
                vertices, phi_vertices = tower_vertices(build_tower(model, limit + 12))
            end = (data.V - 1) * limit
            printed = [c for vertex in vertices[:end] + phi_vertices[:end] for c in vertex]
            printed.extend(Fraction(1, profile.q**n) for n in range(1, limit + 1))
            with int_digit_limit(640):
                for value in printed:
                    format_rational(value)
                with pytest.raises(ValueError):
                    format_rational(vertices[-1][0])

    def test_v2_documents_print_at_their_limit(self):
        with int_digit_limit(640):
            for profile, data, d, v_base in v2_trs_towers(4):
                model = level_model(profile, data, d, v_base)
                limit = printable_depth(model)
                vertices, _ = tower_vertices(build_tower(model, limit))
                for value in (c for vertex in vertices for c in vertex):
                    format_rational(value)

    def test_search_equals_a_linear_scan(self):
        models = [level_model(*case) for case in fixture_cases() + v2_trs_towers(4)]
        with int_digit_limit(640):
            for model in models + edge_models():
                assert printable_depth(model) == scanned_depth(model, 640)
        with int_digit_limit(0):
            assert printable_depth(models[0]) is None

    @pytest.mark.parametrize("digits", [640, 4300])
    def test_depth_screen_accepts_exactly_the_printable_depths(self, monkeypatch, digits):
        # the depth test comes before first_failure, and so before any column
        class Tested(Exception):
            pass

        def reached(model):
            raise Tested

        monkeypatch.setattr(hasseherbrand, "first_failure", reached)
        models = [level_model(*case) for case in fixture_cases() + v2_trs_towers(4)]
        with int_digit_limit(digits):
            for model in models + edge_models():
                limit = printable_depth(model)
                for depth in range(max(1, limit - 3), limit + 4):
                    if depth <= limit:
                        with pytest.raises(Tested):
                            build_tower(model, depth)
                        continue
                    with pytest.raises(InputError) as error:
                        build_tower(model, depth)
                    assert error.value.field == "depth"
                    assert str(error.value) == (
                        f"depth: {depth} is past {limit}, the deepest tower of this "
                        f"document whose numbers print within {digits} digits"
                    )
            with pytest.raises(InputError):
                build_tower(models[0], 10**30)


class TestBreaksAndSubfields:
    def test_uniformizer_depth_three(self):
        data, _ = uniformizer_data()
        tower = build_tower(level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1)), 3)
        table = printed_table(tower)
        assert table["breaks"] == ["2", "5", "14"]
        rows = {row["level"]: row for row in table["subfields"]}
        assert rows[0]["elementary_index"] == 1 and rows[0]["break"] == "2"
        assert rows[1]["elementary_index"] == 2 and rows[1]["break"] == "5"
        assert rows[2]["elementary_index"] == 3 and rows[2]["break"] == "14"
        assert rows[3]["elementary_index"] == 4 and rows[3]["break"] is None

    def test_depth_one_single_break(self):
        data, _ = uniformizer_data()
        tower = build_tower(level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1)), 1)
        table = printed_table(tower)
        assert table["breaks"] == ["2"]
        rows = {row["level"]: row for row in table["subfields"]}
        # the level-1 field sits strictly above the single computed break
        assert rows[1]["elementary_index"] == 2 and rows[1]["break"] is None

    def test_reindexed_levels_map_to_ground(self):
        data, _ = sample_data_rebased()
        tower = build_tower(level_model(SAMPLE_PROFILE, data, 2, Fraction(2, 3)), 2)
        table = printed_table(tower, reindex=1)
        rows = {row["level"]: row for row in table["subfields"]}
        assert rows[0]["field"] == "ground" and rows[0]["elementary_index"] == -1
        assert rows[1]["elementary_index"] == 1
        assert rows[2]["elementary_index"] == 3
        # index 2(n-1)+1 relative to the re-based ground field
        assert rows[3]["elementary_index"] == 5

    def test_empty_tower_rejected(self):
        data, _ = uniformizer_data()
        with pytest.raises(ValueError, match="depth must be >= 1"):
            build_tower(level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1)), 0)
