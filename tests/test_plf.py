"""The piecewise-linear function oracle: evaluation, composition, altitude."""

import random
from fractions import Fraction

import pytest

from helpers import (
    PLFunction,
    altitude,
    compose,
    evaluate,
    identity_plf,
    make_plf,
    random_plf,
)

UNIFORMIZER_PHI1 = PLFunction(1, ((2, 2),), Fraction(1, 3))


class TestConstruction:
    def test_rejects_nonconcave(self):
        with pytest.raises(ValueError):
            PLFunction(1, ((1, 1), (2, 3)), 3)

    def test_rejects_nonpositive_slopes(self):
        with pytest.raises(ValueError):
            PLFunction(1, ((1, 1),), 0)

    def test_rejects_unanchored_first_vertex(self):
        with pytest.raises(ValueError):
            PLFunction(2, ((1, 1),), Fraction(1, 2))

    def test_vertex_free_needs_single_slope(self):
        with pytest.raises(ValueError):
            PLFunction(2, (), 1)

    def test_make_plf_merges_collinear(self):
        f = make_plf(1, ((1, 1), (2, 2), (3, 3), (4, Fraction(7, 2))), Fraction(1, 2))
        assert f.vertices == ((Fraction(3), Fraction(3)),)


class TestEvaluate:
    def test_identity(self):
        assert evaluate(identity_plf(), Fraction(7, 3)) == Fraction(7, 3)

    def test_past_the_vertex(self):
        assert evaluate(UNIFORMIZER_PHI1, 5) == 3

    def test_at_the_vertex(self):
        assert evaluate(UNIFORMIZER_PHI1, 2) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            evaluate(UNIFORMIZER_PHI1, -1)


class TestCompose:
    def test_identity_neutral(self):
        f = UNIFORMIZER_PHI1
        assert compose(identity_plf(), f) == f
        assert compose(f, identity_plf()) == f

    def test_tower_step(self):
        phi2 = PLFunction(1, ((5, 5),), Fraction(1, 3))
        result = compose(UNIFORMIZER_PHI1, phi2)
        assert result.vertices == ((Fraction(2), Fraction(2)), (Fraction(5), Fraction(3)))
        assert result.slopes() == [1, Fraction(1, 3), Fraction(1, 9)]

    def test_pointwise_oracle(self):
        rng = random.Random(41)
        for _ in range(150):
            f, g = random_plf(rng), random_plf(rng)
            h = compose(f, g)
            for _ in range(30):
                x = Fraction(rng.randint(0, 300), rng.randint(1, 20))
                assert evaluate(h, x) == evaluate(f, evaluate(g, x))

    def test_vertex_budget(self):
        rng = random.Random(42)
        for _ in range(200):
            f, g = random_plf(rng), random_plf(rng)
            h = compose(f, g)
            assert len(h.vertices) <= len(f.vertices) + len(g.vertices)
            slopes = h.slopes()
            assert all(s > 0 for s in slopes)
            assert all(b < a for a, b in zip(slopes, slopes[1:]))

    def test_associativity(self):
        rng = random.Random(43)
        for _ in range(120):
            f, g, h = random_plf(rng), random_plf(rng), random_plf(rng)
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


class TestAltitude:
    def test_examples(self):
        assert altitude(UNIFORMIZER_PHI1) == 2
        phi2 = PLFunction(1, ((2, 2), (5, 3)), Fraction(1, 9))
        assert altitude(phi2) == 3

    def test_identity_segment_vertex(self):
        f = PLFunction(1, ((7, 7),), Fraction(1, 2))
        assert altitude(f) == 7

    def test_vertex_free_rejected(self):
        with pytest.raises(ValueError):
            altitude(identity_plf())
