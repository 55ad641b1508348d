"""Lower hulls, the below-line predicate, and the dual oracle (the copolygon)."""

import random
from fractions import Fraction

import pytest

from helpers import (
    below_line,
    brute_hull_vertex_set,
    dual_plf,
    evaluate,
    random_point_set,
    root_valuations,
)

from ramstab.branches import PolynomialValuationProfile
from ramstab.polygons import lower_hull


class TestLowerHull:
    def test_three_vertex_example(self):
        hull = lower_hull([(1, Fraction(29, 9)), (3, 2), (9, 0)])
        assert hull == ((1, Fraction(29, 9)), (3, Fraction(2)), (9, Fraction(0)))

    def test_collinear_points_collapse(self):
        hull = lower_hull([(0, 0), (1, 0), (2, 0)])
        assert hull == ((0, Fraction(0)), (2, Fraction(0)))

    def test_single_segment_example(self):
        pts = [(0, Fraction(2, 3)), (1, 4), (3, 2), (4, 3), (6, 4), (7, 3), (9, 0)]
        hull = lower_hull(pts)
        assert hull == ((0, Fraction(2, 3)), (9, Fraction(0)))
        assert root_valuations(hull) == [Fraction(2, 27)]

    def test_degenerate_inputs_rejected(self):
        with pytest.raises(ValueError, match="at least two points"):
            lower_hull([(0, 1)])
        with pytest.raises(ValueError, match="at least two points"):
            lower_hull([])
        with pytest.raises(ValueError, match="distinct"):
            lower_hull([(0, 1), (0, 2), (1, 0)])

    def test_every_point_on_or_above_hull(self):
        rng = random.Random(23)
        for _ in range(200):
            pts = random_point_set(rng)
            verts = lower_hull(pts)
            for x, y in pts:
                for (x0, y0), (x1, y1) in zip(verts, verts[1:]):
                    if x0 <= x <= x1:
                        chord = y0 + Fraction(y1 - y0, x1 - x0) * (x - x0)
                        assert y >= chord

    def test_matches_brute_force_oracle(self):
        rng = random.Random(7)
        for _ in range(300):
            pts = random_point_set(rng)
            assert list(lower_hull(pts)) == brute_hull_vertex_set(
                [(x, Fraction(y)) for x, y in pts]
            )


class TestSlopes:
    def test_two_segment_example(self):
        # the coefficient points (1, 3), (3, 2), (9, 0): segment slopes -1/2 and -1/3
        profile = PolynomialValuationProfile(p=3, r=2, v_p=1, coeff_valuations={1: 3, 3: 2, 9: 0})
        vertices, roots = profile.coefficient_hull
        assert vertices == ((1, 3), (3, 2), (9, 0))
        assert roots == (Fraction(1, 2), Fraction(1, 3))


class TestBelowLine:
    def test_example_from_hull(self):
        assert below_line((1, Fraction(29, 9)), (3, 2), (9, 0))

    def test_collinear_is_not_below(self):
        assert not below_line((0, 0), (1, 0), (2, 0))

    def test_above_is_not_below(self):
        assert not below_line((1, 3), (3, 4), (9, 0))

    def test_requires_increasing_x(self):
        with pytest.raises(ValueError):
            below_line((3, 0), (1, 1), (9, 2))

    def test_error_term_does_not_flip_the_test(self):
        # the decision is stable across the vanishing error terms e*C/q^n
        q = 9
        C = Fraction(2, 3)
        for n in range(2, 7):
            eps = C / q**n
            assert below_line((1, 3 + 3 * eps), (3, 2), (9, 0))


class TestVertexStabilityLemma:
    def test_below_line_is_level_independent(self):
        # points (p^s, m + e*C/q^n): the outcome must not depend on n >= 2
        rng = random.Random(99)
        for _ in range(500):
            p = rng.choice((2, 3, 5))
            r = rng.randint(2, 3)
            q = p**r
            s, t, u = sorted(rng.sample(range(r + 1), 3))
            m = [rng.randint(0, 12) for _ in range(3)]
            e = [rng.randint(0, q - 1) for _ in range(3)]
            den = rng.randint(1, q * q)
            C = Fraction(rng.choice((-1, 1)) * rng.randint(0, den), den)
            outcomes = set()
            for n in range(2, 7):
                eps = C / q**n
                outcomes.add(
                    below_line(
                        (p**s, m[0] + e[0] * eps),
                        (p**t, m[1] + e[1] * eps),
                        (p**u, m[2] + e[2] * eps),
                    )
                )
            assert len(outcomes) == 1


class TestCopolygon:
    def test_two_segment_dual(self):
        dual = dual_plf(lower_hull([(1, 3), (3, 2), (9, 0)]))
        assert dual.vertices == ((Fraction(1, 3), Fraction(3)), (Fraction(1, 2), Fraction(7, 2)))
        assert dual.slopes() == [Fraction(9), Fraction(3), Fraction(1)]

    def test_single_segment_dual(self):
        dual = dual_plf(lower_hull([(1, 1), (3, 0)]))
        assert dual.vertices == ((Fraction(1, 2), Fraction(3, 2)),)
        assert dual.slopes() == [Fraction(3), Fraction(1)]

    def test_vertex_count_is_one_less(self):
        rng = random.Random(5)
        built = 0
        while built < 100:
            pts = random_point_set(rng, min_x=1)
            hull = lower_hull(pts)
            if any(u <= 0 for u in root_valuations(hull)):
                continue
            dual = dual_plf(hull)
            assert len(dual.vertices) == len(hull) - 1
            built += 1

    def test_dual_is_the_lower_envelope(self):
        # the dual is min over hull vertices (w, h) of h + w*x at every x, not
        # only at its vertices, once the rightmost vertex sits at height 0
        rng = random.Random(6)
        built = 0
        while built < 60:
            pts = random_point_set(rng, min_x=1)
            floor = [y for x, y in pts if x == max(px for px, _ in pts)][0]
            pts = [(x, y - floor) for x, y in pts]
            hull = lower_hull(pts)
            if any(u <= 0 for u in root_valuations(hull)):
                continue
            assert hull[-1][1] == 0
            dual = dual_plf(hull)
            for _ in range(20):
                x = Fraction(rng.randint(0, 60), rng.randint(1, 10))
                envelope = min(h + w * x for w, h in hull)
                assert evaluate(dual, x) == envelope
            built += 1

    def test_duality_recovers_slope_data(self):
        # applying the dual twice recovers the slope multiset
        hull = lower_hull([(1, 3), (3, 2), (9, 0)])
        dual = dual_plf(hull)
        recovered = sorted(x for x, _ in dual.vertices)
        assert recovered == sorted(root_valuations(hull))
        assert sorted(dual.slopes()) == sorted(x for x, _ in hull)


class TestSerialization:
    def test_plf_json_fields(self):
        dual = dual_plf(lower_hull([(1, 1), (3, 0)]))
        assert dual.to_json() == {
            "initial_slope": "3",
            "vertices": [["1/2", "3/2"]],
            "final_slope": "1",
        }
