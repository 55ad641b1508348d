"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Oracles here are independent of the code paths they check:
factorial valuations for the carry counts, exhaustive chord tests for the
hulls, pointwise sampling for composition, term-by-term minima for the
level-polygon heights, and Serre's ramification of the Lubin-Tate torsion
towers for the printed breaks and altitudes and for the library's towers
over every working base, and the derivative of each Eisenstein layer for
the different of a uniformizer base's tower.
"""

import json
import math
import random
import time
from fractions import Fraction
from pathlib import Path

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
    tower_vertices,
)

from ramstab.branches import PolynomialValuationProfile, build_record
from ramstab.certificates import certify
from ramstab.cli import _render, _table, main
from ramstab.hasseherbrand import build_tower, level_model
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

        table = json.loads(_render(_table(tower, 0)[1]))
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


def lubin_tate_psi(p, m, v):
    """Serre's Herbrand psi of K_m/K, for K_m the field of the pi^m-torsion
    of a Lubin-Tate series over K with residue field F_p (Serre, Local
    Fields, IV 4, and Lubin-Tate theory): Gal(K_m/K) is (O_K/pi^m)^*, its
    upper filtration is G^v = G for v <= 0 and U^(k) for k - 1 < v <= k,
    trivial past m - 1, so psi has slope (G^0 : G^w) = (p-1) p^(min(k, m) - 1)
    on (k - 1, k]."""
    if v <= 0:
        return Fraction(v)
    return sum(
        (min(Fraction(v), k) - (k - 1)) * (p - 1) * p ** (min(k, m) - 1)
        for k in range(1, math.ceil(v) + 1)
    )


class TestCriterion10:
    """Classical anchor: the Lubin-Tate torsion tower of x^p + pi x."""

    def test_lubin_tate_breaks_and_altitudes(self, capsys, tmp_path):
        # The branch from 0 of P = x^p + pi x is the pi-power torsion tower
        # K_n; over K = Q_p (v_p = 1) it is the cyclotomic tower Q_p(zeta_p^n).
        # Over the working base K_m, m the certificate's reindex, level k adds
        # K_(m+k), whose new lower break (Serre's i_G) is p^(m+k-1) - 1 and new
        # upper break over K is u = m + k - 1.  The package counts a break as
        # v(sigma pi - pi), one more than i_G, and scales by e(K_m/K):
        #   x_k = (i_k + 1) / e(K_m/K),  y_k = (psi_{K_m/K}(u_k) + 1) / e(K_m/K).
        start, runs = time.monotonic(), 0
        for p in (2, 3, 5, 7):
            for v_p in (1, 2, 3):
                doc = {
                    "p": p, "r": 1, "v_p": v_p, "coeff_valuations": {"1": "1", str(p): "0"},
                    "base_valuation": "inf", "branch_valuations": ["inf", f"1/{p - 1}"],
                }
                path = tmp_path / f"lubin-tate-{p}-{v_p}.json"
                path.write_text(json.dumps(doc))
                for depth in range(1, 7):
                    assert main(["breaks", "--depth", str(depth), str(path)]) == 0
                    breaks = json.loads(capsys.readouterr().out)
                    assert main(["hh", "--depth", str(depth), str(path)]) == 0
                    hh = json.loads(capsys.readouterr().out)
                    runs += 2
                    m = breaks["reindex"]
                    assert hh["reindex"] == m >= 1
                    e_m = (p - 1) * p ** (m - 1)  # e(K_m/K) = [K_m : K]
                    xs, ys = [], []
                    for k in range(1, depth + 1):
                        i_k, u_k = p ** (m + k - 1) - 1, m + k - 1
                        assert lubin_tate_psi(p, m + k, u_k) == i_k  # Herbrand: i = psi(u)
                        xs.append(str(Fraction(i_k + 1, e_m)))
                        ys.append(str((lubin_tate_psi(p, m, u_k) + 1) / e_m))
                    assert breaks["breaks"] == hh["breaks"] == xs
                    for n, level in enumerate(hh["Phi"], start=1):
                        assert level["breaks"] == xs[:n]
                        assert level["vertices"] == [list(v) for v in zip(xs[:n], ys[:n])]
                        assert level["altitude"] == ys[n - 1]
                        # phi of K_(m+n)/K_m ends in slope 1/[K_(m+n) : K_m]
                        assert level["final_slope"] == f"1/{p ** n}"
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(
                10,
                f"Lubin-Tate towers, p in 2..7, v_p in 1..3: breaks p^k/(p-1) and "
                f"altitudes k + 1/(p-1) from Serre's formulas, {runs} runs, {elapsed:.1f}s",
            )

    def test_lubin_tate_different_is_the_cyclotomic_one(self, capsys, tmp_path):
        # Over K = Q_p the branch of x^p + p x is the cyclotomic tower
        # K_N = Q_p(zeta_(p^N)), and hh's level n over the working base K_m is
        # L = K_(m+n), of degree e = p^n over K_m.  Hilbert's formula writes
        # the different of L/K_m through its last lower break i and the
        # Herbrand phi there: v_L(D) = sum of (|G_t| - 1) = e phi(i) - i + e - 1.
        # hh prints i + 1 and phi(i) + 1 over e_m = e(K_m/K) = (p-1) p^(m-1)
        # as the level's last break X and its altitude A, so
        # v_L(D) = e_m (e A - X).  The discriminant of K_N has valuation
        # p^(N-1) (pN - N - 1) (Washington, Prop. 2.7), which is v_(K_N) of
        # its different, as K_N/Q_p is totally ramified; the different is
        # transitive, D(K_N/Q_p) = D(K_N/K_m) D(K_m/Q_p), so
        # v_L(D) = p^(N-1) (pN - N - 1) - p^n p^(m-1) (pm - m - 1), N = m + n.
        def cyclotomic(N):
            return p ** (N - 1) * (p * N - N - 1)

        levels = 0
        for p in (2, 3, 5, 7):
            doc = {
                "p": p, "r": 1, "v_p": 1, "coeff_valuations": {"1": "1", str(p): "0"},
                "base_valuation": "inf", "branch_valuations": ["inf", f"1/{p - 1}"],
            }
            path = tmp_path / f"lubin-tate-{p}.json"
            path.write_text(json.dumps(doc))
            assert main(["hh", "--depth", "6", str(path)]) == 0
            hh = json.loads(capsys.readouterr().out)
            m = hh["reindex"]
            e_m = (p - 1) * p ** (m - 1)
            for n, level in enumerate(hh["Phi"], start=1):
                X, A = Fraction(level["breaks"][-1]), Fraction(level["altitude"])
                assert e_m * (p**n * A - X) == cyclotomic(m + n) - p**n * cyclotomic(m)
                levels += 1
        assert levels == 24
        with capsys.disabled():
            _report(
                10,
                f"Lubin-Tate different from hh's last break and altitude equals the "
                f"cyclotomic one at {levels} levels, p in 2..7",
            )

    def test_uniformizer_different_is_the_eisenstein_one(self, capsys):
        # On a uniformizer base every level is Eisenstein: alpha_n is a
        # uniformizer of K_n, a root of P(x) - alpha_(n-1), so
        # O_(K_n) = O_(K_(n-1))[alpha_n] and the different of K_n/K_(n-1) has
        # valuation v_(K_n)(P'(alpha_n)).  With v_(K_n) = q^n v on K and
        # v_(K_n)(alpha_n) = 1, the term i a_i alpha_n^(i-1) of P' has
        # valuation d_i = q^n (v(a_i) + v_p ord_p(i)) + (i - 1); when one
        # term has the least, v(P'(alpha_n)) is that minimum d_n.  The
        # different is transitive, so v_(K_n)(D(K_n/K)) = d_n + q D_(n-1).
        # Hilbert's formula reads it off hh's level n as q^n altitude_n - X_n
        # (the printed x is Serre's i + 1 here).
        doc = json.loads(Path(UNIFORMIZER).read_text())
        p, q, v_p = doc["p"], doc["p"] ** doc["r"], doc["v_p"]
        support = {int(i): int(v) for i, v in doc["coeff_valuations"].items()}

        def ord_p(i):
            return next(k for k in range(i) if i % p ** (k + 1))

        assert main(["hh", "--depth", "4", UNIFORMIZER]) == 0
        hh = json.loads(capsys.readouterr().out)
        assert hh["reindex"] == 0 and hh["base_valuation"] == "1"
        different, differents = 0, []
        for n, level in enumerate(hh["Phi"], start=1):
            terms = sorted(q**n * (v + v_p * ord_p(i)) + i - 1 for i, v in support.items())
            different = terms[0] + q * different
            if terms[1:2] == terms[:1]:
                continue  # a tied minimum: v(P'(alpha_n)) may be larger
            X, A = Fraction(level["breaks"][-1]), Fraction(level["altitude"])
            assert q**n * A - X == different
            differents.append(different)
        assert differents == [4, 22, 94, 364]
        with capsys.disabled():
            _report(
                10,
                f"uniformizer different from hh's last break and altitude equals the "
                f"running sum of v(P'(alpha_n)) at levels 1-4: {differents}",
            )

    def test_lubin_tate_library_towers_at_every_working_level(self, capsys):
        # The library's tower over every working base K_m, m = 1 .. reindex,
        # not only the certificate's: level m's base valuation, C / q^m and
        # the certificate's d give x_k = p^(m+k-1) / e_m and
        # y_k = (psi_{K_m/K}(m+k-1) + 1) / e_m, with e_m = e(K_m/K) = (p-1) p^(m-1).
        start, checked, depth = time.monotonic(), 0, 6
        for p in (2, 3, 5, 7):
            for v_p in (1, 2, 3):
                profile = PolynomialValuationProfile(
                    p=p, r=1, v_p=v_p, coeff_valuations={1: 1, p: 0}
                )
                record = build_record(profile, [None, Fraction(1, p - 1)])
                data, record, _ = limiting_data_for_branch(profile, record)
                cert = certify(profile, record, data)
                assert cert.certified and cert.reindex >= 1
                for m in range(1, cert.reindex + 1):
                    working_data = data._replace(C=data.C / p**m)
                    model = level_model(profile, working_data, cert.d_used, record.valuations[m])
                    vertices, _phi = tower_vertices(build_tower(model, depth))
                    e_m = (p - 1) * p ** (m - 1)
                    assert vertices == [
                        (Fraction(p ** (m + k - 1), e_m), (lubin_tate_psi(p, m, m + k - 1) + 1) / e_m)
                        for k in range(1, depth + 1)
                    ]
                    checked += 1
        assert checked == 36
        elapsed = time.monotonic() - start
        with capsys.disabled():
            _report(
                10,
                f"Lubin-Tate library towers at every working level, {checked} (p, v_p, m) "
                f"to depth {depth}, from Serre's formulas, {elapsed:.1f}s",
            )
