"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Oracles here are independent of the code paths they check:
factorial valuations for the carry counts, exhaustive chord tests for the
hulls, pointwise sampling for composition, and term-by-term minima for the
level-polygon heights.
"""

import json
import random
import time
from fractions import Fraction

from helpers import (
    altitude,
    below_line,
    brute_hull_vertex_set,
    compose,
    evaluate,
    kummer_carries,
    legendre_factorial_table,
    level_polygon,
    predict_branch,
    random_plf,
    random_point_set,
    random_profile,
)

from ramstab.branches import build_record
from ramstab.cli import main
from ramstab.hasseherbrand import breaks_and_subfields, build_tower, level_model
from ramstab.limitdata import limiting_data_for_branch
from ramstab.polygons import lower_hull

from test_cli import UNIFORMIZER, SAMPLE


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


class TestCriterion1:
    def test_sample_limit_data_exact(self, capsys):
        start = time.monotonic()
        code = main(["limit-data", SAMPLE])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["V"] == 3
        assert payload["R"] == [0, 1, 2]
        assert payload["M"] == [3, 2, 0]
        assert payload["E"] == [3, 0, 0]
        assert payload["C"] == "6"
        assert elapsed < 1.0
        with capsys.disabled():
            _report(1, f"sample limit-data exact (V,R,M,E,C), {elapsed:.3f}s")


class TestCriterion2:
    def test_sample_certification(self, capsys):
        start = time.monotonic()
        code = main(["certify", SAMPLE])
        elapsed = time.monotonic() - start
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "PotentiallyTRS"
        assert payload["d_used"] == 2
        comp = {
            check["level"]: check
            for check in payload["checks"]
            if check["name"] == "composition-criterion"
        }
        assert comp[0]["lhs"] == "3" and comp[0]["rhs"] == "9/2" and not comp[0]["passed"]
        assert comp[1]["lhs"] == "3" and comp[1]["rhs"] == "7/6" and comp[1]["passed"]
        assert elapsed < 1.0
        with capsys.disabled():
            _report(2, f"sample certificate: 3>9/2 fails, 3>7/6 holds, {elapsed:.3f}s")


class TestCriterion3:
    def test_uniformizer_pipeline(self, capsys):
        start = time.monotonic()
        code = main(["limit-data", UNIFORMIZER])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["V"] == 2
        assert payload["R"] == [0, 1]
        assert payload["M"] == [1, 0]
        assert payload["E"] == [1, 0]
        assert payload["C"] == "1"

        code = main(["hh", "--depth", "5", UNIFORMIZER])
        out = capsys.readouterr().out
        assert code == 0
        tower_payload = json.loads(out)
        assert tower_payload["reindex"] == 0
        assert tower_payload["breaks"] == ["2", "5", "14", "41", "122"]
        assert [Fraction(b) for b in tower_payload["breaks"]] == [
            Fraction(3**n + 1, 2) for n in range(1, 6)
        ]

        # the five structural invariants at every level
        from helpers import UNIFORMIZER_PROFILE, phi_oracle, tower_levels

        record = build_record(UNIFORMIZER_PROFILE, ["1", "1/3", "1/9"])
        data, record, _ = limiting_data_for_branch(UNIFORMIZER_PROFILE, record)
        model = level_model(UNIFORMIZER_PROFILE, data, 1, Fraction(1))
        tower = build_tower(model, 5)
        levels = [level for _, level in tower_levels(tower)]
        phis = [phi_oracle(model, n) for n in range(1, 6)]
        V = data.V
        for n, level in enumerate(levels, start=1):
            assert len(level.vertices) == (V - 1) * n  # 1. vertex count
            assert level.vertices[-1][0] == phis[n - 1].vertices[-1][0]  # 2.
            assert level.final_slope == Fraction(1, 3**n)  # 3. final slope
        for prev, cur in zip(levels, levels[1:]):
            k = len(prev.vertices)
            assert cur.vertices[:k] == prev.vertices  # 4. prefix
            assert altitude(cur) > altitude(prev)  # 5. altitude growth

        table = breaks_and_subfields(tower)
        for row in table["subfields"]:
            assert row["elementary_index"] == row["level"] + 1
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        with capsys.disabled():
            _report(3, f"uniformizer fixture: breaks (3^n+1)/2 to depth 5, {elapsed:.3f}s")


class TestCriterion4:
    def test_kummer_oracle_exhaustive(self, capsys):
        start = time.monotonic()
        pairs = 0
        for p in (2, 3, 5, 7):
            limit = p**4
            table = legendre_factorial_table(limit, p)
            for j in range(limit + 1):
                t_j = table[j]
                for i in range(j + 1):
                    assert kummer_carries(j, i, p) == t_j - table[i] - table[j - i]
                    pairs += 1
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        with capsys.disabled():
            _report(4, f"kummer == factorial oracle on {pairs} pairs, {elapsed:.1f}s")


class TestCriterion5:
    def test_carry_drop_exhaustive(self, capsys):
        start = time.monotonic()
        checked_i = 0
        checked_ii = 0
        for p in (2, 3, 5, 7):
            limit = p**4
            # carries(j, p^k) for every j and admissible k
            powers = [p**k for k in range(5) if p**k <= limit]
            for j in range(1, limit + 1):
                base = [kummer_carries(j, pk, p) for pk in powers if pk <= j]
                # part (i): within a digit block the power-of-p column is minimal
                for i in range(1, j + 1):
                    k = 0
                    while k + 1 < len(powers) and powers[k + 1] <= i:
                        k += 1
                    if k + 1 < len(powers) and powers[k + 1] <= j:
                        assert kummer_carries(j, i, p) >= base[k]
                        checked_i += 1
                # part (ii): dropping to the next power loses at most one carry,
                # exactly one iff a carry was present
                for k in range(len(base) - 1):
                    assert base[k + 1] >= base[k] - 1
                    assert (base[k + 1] == base[k] - 1) == (base[k] != 0)
                    checked_ii += 1
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(
                5,
                f"carry-drop (i) on {checked_i} and (ii) on {checked_ii} cases, {elapsed:.1f}s",
            )


class TestCriterion6:
    def test_vertex_stability_randomized(self, capsys):
        start = time.monotonic()
        rng = random.Random(2024)
        failures = 0
        for _ in range(10_000):
            p = rng.choice((2, 3, 5, 7))
            r = rng.randint(2, 3)
            q = p**r
            s, t, u = sorted(rng.sample(range(r + 1), 3))
            m = [rng.randint(0, 30) for _ in range(3)]
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
            if len(outcomes) != 1:
                failures += 1
        elapsed = time.monotonic() - start
        assert failures == 0
        with capsys.disabled():
            _report(6, f"below-line n-independent on 10000 instances, {elapsed:.1f}s")


class TestCriterion7:
    def test_height_oracle_on_corpus(self, capsys):
        start = time.monotonic()
        rng = random.Random(777)
        profiles = 0
        while profiles < 50:
            profile = random_profile(rng)
            q, p = profile.q, profile.p
            sign = rng.choice((1, -1))
            base = Fraction(sign * rng.randint(1, q - 1), q**2 * rng.randint(1, 3))
            record = predict_branch(profile, base, depth=3)
            data, record, _ = limiting_data_for_branch(profile, record)
            for n in (2, 3):
                v_n = Fraction(data.C, q**n)
                assert abs(v_n) <= Fraction(1, q * q)
                polygon = level_polygon(profile, data, n)
                points = []
                for i in range(1, q + 1):
                    best = None
                    ties = 0
                    for j in range(i, q + 1):
                        coefficient = profile.coeff_valuations.get(j)
                        if coefficient is None:  # a zero coefficient contributes no term
                            continue
                        value = kummer_carries(j, i, p) * profile.v_p + coefficient + (j - i) * v_n
                        if best is None or value < best:
                            best, ties = value, 1
                        elif value == best:
                            ties += 1
                    assert ties == 1, "minimizer must be unique"
                    points.append((i, best))
                hull = lower_hull(points)
                assert hull == polygon
                for x, _ in hull:
                    while x % p == 0:
                        x //= p
                    assert x == 1, "vertices only at prime powers"
            profiles += 1
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(7, f"height oracle on {profiles} profiles x 2 levels, {elapsed:.1f}s")


class TestCriterion8:
    def test_hull_against_brute_force(self, capsys):
        start = time.monotonic()
        rng = random.Random(31337)
        for _ in range(1000):
            pts = random_point_set(rng)
            hull = lower_hull(pts)
            expected = brute_hull_vertex_set([(x, Fraction(y)) for x, y in pts])
            assert list(hull) == expected
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(8, f"hull == brute force on 1000 point sets, {elapsed:.1f}s")

    def test_compose_against_pointwise_oracle(self, capsys):
        start = time.monotonic()
        rng = random.Random(31338)
        for _ in range(1000):
            f, g = random_plf(rng), random_plf(rng)
            h = compose(f, g)
            for _ in range(100):
                x = Fraction(rng.randint(0, 400), rng.randint(1, 25))
                assert evaluate(h, x) == evaluate(f, evaluate(g, x))
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(8, f"compose == pointwise oracle on 1000 pairs x 100 points, {elapsed:.1f}s")


class TestCriterion9:
    def test_branch_dynamics_on_corpus(self, capsys):
        start = time.monotonic()
        rng = random.Random(909)
        for _ in range(60):
            profile = random_profile(rng)
            q = profile.q
            num = rng.randint(1, q - 1)
            den = rng.randint(num + 1, 4 * q)
            base = Fraction(num, den) * rng.choice((1, -1))
            assert abs(base) < 1
            record = predict_branch(profile, base, depth=6)
            values = list(record.valuations)
            for a, b in zip(values, values[1:]):
                assert b == a / q
            estimates = list(record.d_estimates)
            for a, b in zip(estimates, estimates[1:]):
                e_n = Fraction(q * b, a)
                assert e_n.denominator == 1
                assert int(e_n) > 0 and q % int(e_n) == 0
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(9, f"halving and divisor ratios on 60 branches x 6 steps, {elapsed:.1f}s")
