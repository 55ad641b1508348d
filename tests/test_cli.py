"""Command-line surface: outputs, exit codes, plotting, selftest."""

import argparse
import functools
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ramstab import branches, certificates, cli, hasseherbrand, limitdata, polygons, valuations
from ramstab.cli import main
from ramstab.branches import build_record
from ramstab.inputdoc import InputDocument, load_document

from helpers import document_json, int_digit_limit, predict_branch, tower_json_oracle

REPO = Path(__file__).resolve().parent.parent
SAMPLE = str(REPO / "src" / "ramstab" / "data" / "sample.json")
UNIFORMIZER = str(REPO / "src" / "ramstab" / "data" / "uniformizer.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def long_degree_document(tmp_path):
    """p = 2, r = 4000, support {1, q}, base -1, d = 1: a 1,336-byte
    document with 4,001 candidate vertices over p^0..p^r."""
    q = 2**4000
    doc = {
        "p": 2, "r": 4000, "v_p": 1, "coeff_valuations": {"1": "1", str(q): "0"},
        "base_valuation": "-1", "branch_valuations": ["-1"], "d": 1,
    }
    path = tmp_path / "r4000.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestLimitData:
    def test_sample_values(self, capsys):
        code, out, _ = run(capsys, "limit-data", SAMPLE)
        assert code == 0
        payload = json.loads(out)
        assert payload["V"] == 3
        assert payload["R"] == [0, 1, 2]
        assert payload["M"] == [3, 2, 0]
        assert payload["E"] == [3, 0, 0]
        assert payload["C"] == "6"
        assert payload["sign"] == 1
        assert payload["N"] == 1

    def test_uniformizer_values(self, capsys):
        code, out, _ = run(capsys, "limit-data", UNIFORMIZER)
        assert code == 0
        payload = json.loads(out)
        assert (payload["V"], payload["C"]) == (2, "1")

    def test_out_flag(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "limit-data", SAMPLE, "--out", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["C"] == "6"


class TestBranchCommand:
    def test_record_report(self, capsys):
        code, out, _ = run(capsys, "branch", SAMPLE)
        assert code == 0
        payload = json.loads(out)
        assert payload["valuations"][:3] == ["4", "2/3", "2/27"]
        assert payload["stable_index"] == 3
        assert payload["C"] == "6"
        assert payload["d_heuristic"] == 2


    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    def test_unprintable_completed_record_is_rejected_on_r(self, capsys, tmp_path):
        # at a 640-digit limit q = 2^800 (241 digits) and q^2 (482) print,
        # so certify passes at level 2, -1/q^2; the completed record ends
        # at -1/q^3 (723 digits), which branch cannot print
        q = 2**800
        doc = {
            "p": 2, "r": 800, "v_p": 1, "coeff_valuations": {"1": "1", str(q): "0"},
            "base_valuation": "-1", "branch_valuations": ["-1"], "d": 1,
        }
        tail = tmp_path / "r800.json"
        tail.write_text(json.dumps(doc))
        # halving sets in at level 3 of 4, 3, 2, 1: C = q^3 does not print
        doc.update(base_valuation="4", branch_valuations=["4", "3", "2", "1"])
        late = tmp_path / "r800-late.json"
        late.write_text(json.dumps(doc))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for command, path, what in (
                ("branch", tail, "last valuation"),
                ("branch", late, "last valuation"),
                ("limit-data", late, "numerator of C"),
            ):
                code, out, err = run(capsys, command, str(path))
                assert code == 2 and out == ""
                error = json.loads(err)
                assert error["field"] == "r" and what in error["error"]
            assert run(capsys, "certify", str(tail))[0] == 0
            assert run(capsys, "limit-data", str(tail))[0] == 0
        finally:
            sys.set_int_max_str_digits(saved)


class TestCertifyCommand:
    def test_sample_certifies(self, capsys):
        code, out, _ = run(capsys, "certify", SAMPLE)
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "PotentiallyTRS"
        assert payload["diagnostics"]["bounded_critical_orbits_normal_form"] is False
        assert payload["diagnostics"]["normal_form_witness"] == 4

    def test_not_certified_exit_code(self, capsys, tmp_path):
        obj = json.loads(Path(SAMPLE).read_text())
        obj["d"] = 3
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "certify", str(bad))
        assert code == 1
        assert json.loads(out)["kind"] == "NotCertified"
        # plot's --out is the SVG: the certificate it prints goes to stdout
        svg = tmp_path / "never-written.svg"
        code, out, err = run(capsys, "plot", "--depth", "2", "--out", str(svg), str(bad))
        assert code == 1 and err == ""
        assert json.loads(out)["certificate"]["kind"] == "NotCertified"
        assert not svg.exists()

    def test_batch_jobs(self, capsys):
        code, out, _ = run(capsys, "certify", SAMPLE, UNIFORMIZER, "--jobs", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload[SAMPLE]["kind"] == "PotentiallyTRS"
        assert payload[UNIFORMIZER]["kind"] == "TRS"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_batch_prints_as_json_dumps(self, capsys, jobs):
        # each file's certificate, checks included, one level down
        code, out, _ = run(capsys, "certify", SAMPLE, UNIFORMIZER, "--jobs", jobs)
        assert code == 0
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert list(report) == [SAMPLE, UNIFORMIZER]
        assert all(report[path]["checks"] for path in report)

    def test_batch_starts_no_more_workers_than_files(self, capsys, monkeypatch):
        # a pool starts all its workers at the first submit: record the
        # size asked for, and map in this process instead
        import concurrent.futures

        sizes = []

        class InProcessPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        serial = run(capsys, "certify", SAMPLE, UNIFORMIZER, "--jobs", "1")
        assert run(capsys, "certify", SAMPLE, UNIFORMIZER, "--jobs", "64") == serial
        assert run(capsys, "certify", SAMPLE, SAMPLE, UNIFORMIZER, "--jobs", "2")[0] == 0
        assert sizes == [2, 2]

    def test_batch_reports_each_bad_file(self, capsys, tmp_path):
        missing = str(tmp_path / "missing.json")
        invalid = tmp_path / "invalid.json"
        invalid.write_text(json.dumps({"p": 3}))
        unreadable = str(tmp_path)  # a directory
        for jobs in ("1", "2"):
            code, out, _ = run(
                capsys, "certify", SAMPLE, missing, str(invalid), unreadable, "--jobs", jobs
            )
            assert code == 2
            payload = json.loads(out)
            assert payload[SAMPLE]["kind"] == "PotentiallyTRS"
            assert payload[missing]["field"] == "$"
            assert payload[unreadable]["field"] == "$"
            assert payload[str(invalid)]["field"] == "r"
            assert all("error" in payload[path] for path in (missing, str(invalid), unreadable))

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    def test_oversize_r_is_rejected_on_r(self, capsys, tmp_path):
        # q = 2^15000 has 4516 digits, and the key 4400
        doc = {
            "p": 2, "r": 15000, "v_p": 1,
            "coeff_valuations": {"1": "1", "1" * 4400: "0"},
            "base_valuation": "1", "branch_valuations": ["1"],
        }
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            code, out, err = run(capsys, "certify", str(bad))
        finally:
            sys.set_int_max_str_digits(saved)
        assert code == 2 and out == ""
        assert json.loads(err)["field"] == "r"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    def test_unprintable_threshold_is_rejected_on_r(self, capsys, tmp_path):
        # at a 640-digit limit q = 2^1100 prints (332 digits) and q^2 does
        # not (663): each command that screens levels rejects r before the
        # limiting data, and limit-data, which prints no q^2, still runs
        q = 2**1100
        doc = {
            "p": 2, "r": 1100, "v_p": 1, "coeff_valuations": {"1": "1", str(q): "0"},
            "base_valuation": "-1", "branch_valuations": ["-1"], "d": 1,
        }
        path = tmp_path / "r1100.json"
        path.write_text(json.dumps(doc))
        svg = str(tmp_path / "plot.svg")
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            for argv in (
                ["certify"], ["branch"], ["hh", "--depth", "1"], ["breaks", "--depth", "1"],
                ["plot", "--depth", "1", "--out", svg],
            ):
                code, out, err = run(capsys, argv[0], str(path), *argv[1:])
                assert code == 2 and out == ""
                assert json.loads(err)["field"] == "r" and "1/q^2" in json.loads(err)["error"]
            counts = count_stage_calls(capsys, "certify", str(path), code=2)
            assert counts["limiting_data"] == 0
            assert run(capsys, "limit-data", str(path))[0] == 0
        finally:
            sys.set_int_max_str_digits(saved)

    def test_pool_is_imported_only_for_jobs(self):
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, ramstab.cli; print('concurrent.futures.process' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0 and proc.stdout.strip() == "False"

    def test_branch_without_a_forced_level_names_its_field(self, capsys, tmp_path):
        # 4 has two candidate next valuations on sample, and nothing follows it
        obj = json.loads(Path(SAMPLE).read_text())
        obj["branch_valuations"] = ["4"]
        stuck = tmp_path / "stuck.json"
        stuck.write_text(json.dumps(obj))
        for argv in (["certify"], ["branch"], ["limit-data"], ["hh", "--depth", "2"]):
            code, out, err = run(capsys, *argv, str(stuck))
            assert code == 2 and out == ""
            error = json.loads(err)
            assert error["field"] == "branch_valuations"
            assert "cannot extend: step 0 has 2 candidate" in error["error"]
        for jobs in ("1", "2"):
            code, out, _ = run(capsys, "certify", SAMPLE, str(stuck), "--jobs", jobs)
            assert code == 2
            payload = json.loads(out)
            assert payload[SAMPLE]["kind"] == "PotentiallyTRS"
            assert payload[str(stuck)]["field"] == "branch_valuations"

    def test_completion_runs_until_the_d_estimate_settles(self, capsys, tmp_path):
        # 1024/17 halves from level 0 and crosses 1/4 at level 8, but its
        # d-estimate (the numerator) only reaches 1 at level 10
        doc = {
            "p": 2, "r": 1, "v_p": 1, "coeff_valuations": {"2": "0"},
            "base_valuation": "1024/17", "branch_valuations": ["1024/17"],
        }
        path = tmp_path / "settles-late.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        payload = json.loads(out)
        assert (payload["kind"], payload["reindex"], payload["d_used"]) == ("PotentiallyTRS", 10, 1)
        code, out, _ = run(capsys, "branch", str(path))
        payload = json.loads(out)
        assert payload["N"] == 0 and payload["d_heuristic"] == 1
        assert payload["d_estimates"] == [1024 >> n for n in range(11)] + [1]

    @pytest.mark.parametrize(
        "command, size, digest",
        [
            ("limit-data", 229, "c3fc118bbcf5115b2675c955e5fb35838f3d7958112420b09677d59cbdc37349"),
            ("certify", 32959, "fb31adf676971ff71fb1c929c724e64a666e5efd489dad52eee27ee5861f7219"),
        ],
    )
    def test_long_degree_reports_are_pinned(self, capsys, tmp_path, command, size, digest):
        # the table of all 4,001 (M, E) pairs is read in one pass over the
        # support; per-k carry walks took ~30 s here
        code, out, _ = run(capsys, command, long_degree_document(tmp_path))
        assert code == 0
        printed = out.encode()
        assert len(printed) == size
        assert hashlib.sha256(printed).hexdigest() == digest

    def test_large_base_certificate_is_pinned(self, capsys, tmp_path):
        # ~1,000 levels: the settled run of every level is read in one pass
        base = str(10**300)
        doc = {
            "p": 2, "r": 1, "v_p": 1, "coeff_valuations": {"2": "0"},
            "base_valuation": base, "branch_valuations": [base],
        }
        path = tmp_path / "large-base.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "certify", str(path))
        assert code == 0
        printed = out.encode()
        assert len(printed) == 3344858
        digest = "9e9b79e1361294c8c43e788ef0485bfb531db6328a3f80cd5432209dedd6a33b"
        assert hashlib.sha256(printed).hexdigest() == digest

    def test_malformed_input_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"p": 3}))
        code, _, err = run(capsys, "certify", str(bad))
        assert code == 2
        assert "error" in err

    def test_index_too_long_to_convert_exits_2(self, capsys, tmp_path):
        # 4,400 digits is past Python's default int/str conversion limit
        key = "1" * 4400
        obj = json.loads(Path(SAMPLE).read_text())
        obj["coeff_valuations"][key] = "1"
        bad = tmp_path / "long-index.json"
        bad.write_text(json.dumps(obj))
        code, _, err = run(capsys, "certify", str(bad))
        assert code == 2
        error = json.loads(err)
        assert error["field"] == f"coeff_valuations[{key}]"
        assert error["error"].endswith("index outside 1..9")


class TestTowerCommands:
    def test_uniformizer_hh_depth_three(self, capsys):
        code, out, _ = run(capsys, "hh", "--depth", "3", UNIFORMIZER)
        assert code == 0
        payload = json.loads(out)
        assert payload["reindex"] == 0
        assert payload["breaks"] == ["2", "5", "14"]
        assert [phi["vertices"][0][0] for phi in payload["phi"]] == ["2", "5", "14"]
        assert payload["Phi"][-1]["final_slope"] == "1/27"

    def test_breaks_command(self, capsys):
        code, out, _ = run(capsys, "breaks", "--depth", "2", UNIFORMIZER)
        assert code == 0
        payload = json.loads(out)
        assert payload["breaks"] == ["2", "5"]
        levels = {row["level"]: row["elementary_index"] for row in payload["subfields"]}
        assert levels == {0: 1, 1: 2, 2: 3}

    @pytest.mark.parametrize(
        "doc, invariant, detail",
        [
            # certified TRS on a uniformizer base; level 1 is not strictly convex
            (
                {"p": 5, "r": 2, "coeff_valuations": {"1": "2", "25": "0"},
                 "base_valuation": "1", "branch_valuations": ["1"]},
                "level-convexity",
                "level 1 is not in the stable regime: segment slopes must be strictly increasing",
            ),
            # certified with the estimate d = -11, which puts phi_1's first vertex at x < 0
            (
                {"p": 2, "r": 1, "coeff_valuations": {"2": "0"},
                 "base_valuation": "-11", "branch_valuations": ["-11"]},
                "vertex-positivity",
                "level 1 vertex positions are not positive (shift -33/16)",
            ),
        ],
    )
    def test_tower_failures_name_their_invariant(self, capsys, tmp_path, doc, invariant, detail):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"v_p": 1, **doc}))
        svg = str(tmp_path / "plot.svg")
        for argv in (["breaks"], ["hh"], ["plot", "--out", svg]):
            code, out, err = run(capsys, *argv, "--depth", "2", str(path))
            assert code == 1 and out == ""
            error = json.loads(err)
            assert error["invariant"] == invariant and detail in error["error"]
        assert not os.path.exists(svg)

    def test_not_certified_certificate_prints_as_json_dumps(self, capsys, tmp_path):
        # no level of this branch passes: the certificate's 26 checks are
        # printed under "certificate"
        doc = {
            "p": 2, "r": 4, "v_p": 2, "e_ke": 2, "coeff_valuations": {"12": "1", "16": "0"},
            "base_valuation": "4", "branch_valuations": ["4", "1/4", "1/64"],
        }
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "hh", "--depth", "2", str(path))
        assert code == 1 and err == ""
        report = json.loads(out)
        assert out == json.dumps(report, indent=2) + "\n"
        assert list(report) == ["certificate"]
        assert report["certificate"]["kind"] == "NotCertified"
        assert len(report["certificate"]["checks"]) == 26

    def test_sample_reindexes(self, capsys):
        code, out, _ = run(capsys, "hh", "--depth", "2", SAMPLE)
        assert code == 0
        payload = json.loads(out)
        assert payload["reindex"] == 3
        assert payload["base_valuation"] == "2/243"

    def test_breaks_formats_no_transition_function(self, capsys, monkeypatch):
        def no_text(tower, breaks):
            raise AssertionError("breaks must not serialise phi or Phi")

        monkeypatch.setattr(cli, "_tower_text", no_text)
        code, out, _ = run(capsys, "breaks", "--depth", "3", SAMPLE)
        assert code == 0
        assert list(json.loads(out)) == ["depth", "reindex", "breaks", "subfields", "break_scale"]

    @pytest.mark.parametrize("fixture", [SAMPLE, UNIFORMIZER])
    def test_only_hh_and_plot_build_the_heights(self, capsys, monkeypatch, tmp_path, fixture):
        # breaks prints only the x of the tower: it builds no y column
        towers, build = [], hasseherbrand.build_tower

        def recording(*args, **kwargs):
            towers.append(build(*args, **kwargs))
            return towers[-1]

        monkeypatch.setattr(hasseherbrand, "build_tower", recording)
        for argv in (["breaks"], ["hh"], ["plot", "--out", str(tmp_path / "tower.svg")]):
            assert run(capsys, *argv, "--depth", "4", fixture)[0] == 0
        k = len(towers[0].xs)
        assert [(len(t.xs), len(t.ys), len(t.phi_ys)) for t in towers] == [(k, 0, 0), (k, k, k), (k, k, k)]

    @pytest.mark.parametrize("fixture", [SAMPLE, UNIFORMIZER])
    def test_hh_towers_match_the_per_level_oracle(self, capsys, fixture):
        code, out, _ = run(capsys, "hh", "--depth", "20", fixture)
        assert code == 0
        payload = json.loads(out)
        *_, tower = cli._certified_tower(load_document(fixture), 20)
        assert {"phi": payload["phi"], "Phi": payload["Phi"]} == tower_json_oracle(tower)

    @pytest.mark.parametrize(
        "fixture, depth, size, digest",
        [
            (SAMPLE, 60, 631174,
             "0eb5290840991e09439c730ea332ebf7ab16bf51395ad1150797467cfac7bef1"),
            (UNIFORMIZER, 200, 2688290,
             "aac7d190dbfe735fa177dbd1839ec30e4fc24ec8dd400a1848c5d7a7ecdeba20"),
        ],
    )
    def test_deep_hh_bytes_are_pinned(self, capsys, fixture, depth, size, digest):
        # deeper than the goldens: every level of Phi is printed as a cut of
        # one rendered list, and must read as it did when printed in full
        code, out, _ = run(capsys, "hh", "--depth", str(depth), fixture)
        assert code == 0
        printed = out.encode()
        assert len(printed) == size
        assert hashlib.sha256(printed).hexdigest() == digest

    def test_closed_stdout_exits_quietly(self):
        # the report is far larger than a pipe buffer, so the write meets
        # the closed pipe whether or not it starts before the close
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        proc = subprocess.Popen(
            [sys.executable, "-m", "ramstab.cli", "hh", "--depth", "200", UNIFORMIZER],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 1
        assert err == b"", err.decode(errors="replace")

    @pytest.mark.parametrize(
        "argv",
        [
            ["breaks", "--depth", "4600", SAMPLE],
            ["hh", "--depth", "4600", SAMPLE],
            ["breaks", "--depth", "9100", UNIFORMIZER],
            ["plot", "--depth", "9100", "--out", "never-written.svg", UNIFORMIZER],
            ["breaks", "--depth", "1" + "0" * 30, UNIFORMIZER],
        ],
    )
    def test_unprintable_depth_is_rejected_before_the_tower(self, capsys, monkeypatch, argv):
        if not hasattr(sys, "get_int_max_str_digits"):
            pytest.skip("the interpreter has no int digit limit")

        # build_tower tests its depth before first_failure and its columns
        def no_tower(*args):
            raise AssertionError("the tower must not be tested or built")

        monkeypatch.setattr(hasseherbrand, "first_failure", no_tower)
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        payload = json.loads(err)
        assert payload["field"] == "depth" and "error" in payload

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    def test_breaks_runs_to_the_printable_depth(self, capsys):
        doc = load_document(UNIFORMIZER)
        *_, model, _tower = cli._certified_tower(doc, 1)
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)  # the smallest limit the interpreter allows
        try:
            limit = hasseherbrand.printable_depth(model)
            code, out, _ = run(capsys, "breaks", "--depth", str(limit), UNIFORMIZER)
            assert code == 0 and len(json.loads(out)["breaks"]) == limit
            code, _, err = run(capsys, "breaks", "--depth", str(limit + 1), UNIFORMIZER)
            assert code == 2 and json.loads(err)["field"] == "depth"
        finally:
            sys.set_int_max_str_digits(saved)

    def test_plot_writes_svg(self, capsys, tmp_path):
        target = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--depth", "2", "--out", str(target), UNIFORMIZER)
        assert code == 0
        body = target.read_text()
        assert body.startswith("<svg")
        assert "polyline" in body and "</svg>" in body

    @pytest.mark.parametrize(
        "fixture, depth, digest",
        [
            (SAMPLE, 1, "22aa9c957addbda45493e7d8522df94f8e37fe36c2c60a13fa3b1e2d7a48d7ce"),
            (SAMPLE, 2, "4603bd0711093a5dbe6caaeef77be233c0b6d0663a7ec5270572b40f1abf6e4a"),
            (SAMPLE, 3, "0db6789c03636035a3e16749997f00a5863a2c30404a72b2aebd59b16ee99daf"),
            (SAMPLE, 5, "c96d7e13634cbfb66d8bca96068769662b0d6058d35ae74654d0dc02faedf3ba"),
            (UNIFORMIZER, 1, "301db62aebea9cf41c34d7d07d138c2079a64ca61cb6e0f8cff6e736713c6852"),
            (UNIFORMIZER, 2, "684b79f4c07886606658ac1bdae23cc5d582e74a4c389fffef9f2a039908a02e"),
            (UNIFORMIZER, 3, "8505452af375d9cb630aec20a00d70bab43ed8ae35ec3cf1b3e9c2190a351b71"),
            (UNIFORMIZER, 5, "966204ca0072add7c7b6a993336d96fcd5e3d1ee75cdcea428070dbf994b1e33"),
            (SAMPLE, 20, "5b27122ed882cd4a17b7dbc96a03f6e8a46ca3e41de9c357d7d744e1a98857f3"),
            (SAMPLE, 300, "523f1464728afc4053b63a2df0ad4003117d78e26b2f083889d03efe45614916"),
            (UNIFORMIZER, 40, "74dec1f2d4e81276e7504e7f0df56c5a115c2e3fc92e151b09bb2183d801f7cd"),
            # the deepest tower of this fixture whose coordinates fit a float
            (UNIFORMIZER, 646, "bb1919e8bcc48dc76a921b8224fade27fcffa41abe6e8ec65608e68f7bf4856f"),
        ],
    )
    def test_plot_svg_is_pinned(self, capsys, tmp_path, fixture, depth, digest):
        target = tmp_path / "plot.svg"
        code, _, _ = run(capsys, "plot", "--depth", str(depth), "--out", str(target), fixture)
        assert code == 0
        assert hashlib.sha256(target.read_bytes()).hexdigest() == digest

    def test_plot_too_deep_for_floats_exits_2(self, tmp_path):
        # these depths print within the digit limit, but the SVG's float
        # coordinates overflow past 646 levels on this fixture
        target = tmp_path / "deep.svg"
        paths = [str(REPO / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        for depth in (647, 700):
            proc = subprocess.run(
                [sys.executable, "-m", "ramstab.cli", "plot", "--depth", str(depth), UNIFORMIZER,
                 "--out", str(target)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert proc.returncode == 2 and proc.stdout == ""
            assert "Traceback" not in proc.stderr
            payload = json.loads(proc.stderr)
            assert payload["field"] == "depth" and "error" in payload
            assert not target.exists()


class TestOutRewrite:
    """--out rewrites its target in place: no truncation to zero before the
    write, the target cut to the report's length after it when it is a
    regular file."""

    UNIFORMIZER_DEPTH_1 = "301db62aebea9cf41c34d7d07d138c2079a64ca61cb6e0f8cff6e736713c6852"

    def test_shorter_svg_over_a_longer_one(self, capsys, tmp_path):
        target = str(tmp_path / "plot.svg")
        assert run(capsys, "plot", "--depth", "5", "--out", target, SAMPLE)[0] == 0
        longer = os.path.getsize(target)
        assert run(capsys, "plot", "--depth", "1", "--out", target, UNIFORMIZER)[0] == 0
        assert os.path.getsize(target) < longer
        # the pinned digest of test_plot_svg_is_pinned[uniformizer, 1]
        assert hashlib.sha256(Path(target).read_bytes()).hexdigest() == self.UNIFORMIZER_DEPTH_1

    @pytest.mark.parametrize(
        "longer, shorter",
        [
            (["hh", "--depth", "20", SAMPLE], ["certify", UNIFORMIZER]),
            (["certify", SAMPLE, UNIFORMIZER], ["hh", "--depth", "1", UNIFORMIZER]),
            (["hh", "--depth", "12", SAMPLE], ["certify", SAMPLE, UNIFORMIZER]),
        ],
        ids=["certify-over-hh", "hh-over-batch", "batch-over-hh"],
    )
    def test_shorter_report_over_a_longer_one(self, capsys, tmp_path, longer, shorter):
        target = tmp_path / "report.json"
        assert run(capsys, *longer, "--out", str(target)) == (0, "", "")
        assert run(capsys, *shorter, "--out", str(target)) == (0, "", "")
        code, expected, _ = run(capsys, *shorter)
        assert code == 0 and len(expected) < len(run(capsys, *longer)[1])
        assert target.read_bytes() == expected.encode()

    @pytest.mark.parametrize(
        "argv",
        [["plot", "--depth", "2", UNIFORMIZER], ["certify", SAMPLE], ["certify", SAMPLE, UNIFORMIZER]],
        ids=["plot", "certify", "batch"],
    )
    def test_out_to_dev_null_exits_0(self, capsys, argv):
        # a character device: written, but not cut, since ftruncate fails on it
        assert run(capsys, *argv, "--out", os.devnull) == (0, "", "")

    def test_existing_target_keeps_its_inode_mode_and_links(self, capsys, tmp_path):
        target, link = tmp_path / "plot.svg", tmp_path / "link.svg"
        target.write_text("x" * 100_000)
        target.chmod(0o600)
        os.link(target, link)
        inode = target.stat().st_ino
        assert run(capsys, "plot", "--depth", "1", "--out", str(target), UNIFORMIZER)[0] == 0
        assert target.stat().st_ino == inode and target.stat().st_mode & 0o777 == 0o600
        assert hashlib.sha256(link.read_bytes()).hexdigest() == self.UNIFORMIZER_DEPTH_1

    def test_new_target_mode_is_0o666_less_the_umask(self, capsys, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        target = tmp_path / "report.json"
        assert run(capsys, "certify", SAMPLE, "--out", str(target))[0] == 0
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_no_open_of_the_target_truncates_it(self, capsys, tmp_path, monkeypatch):
        target, flags, real_open = str(tmp_path / "out"), [], os.open

        def spy(path, flag, *rest, **kwargs):
            if os.fspath(path) == target:
                flags.append(flag)
            return real_open(path, flag, *rest, **kwargs)

        monkeypatch.setattr(os, "open", spy)
        for argv in (
            ["plot", "--depth", "2", UNIFORMIZER],
            ["certify", SAMPLE],
            ["certify", SAMPLE, UNIFORMIZER],
            ["hh", "--depth", "2", SAMPLE],
        ):
            assert run(capsys, *argv, "--out", target)[0] == 0
        # every write opened the target through os.open, and none with O_TRUNC
        assert len(flags) == 4 and not any(flag & os.O_TRUNC for flag in flags)


class TestErrorContract:
    """A failure exits with its documented code and record, alone or in a batch."""

    @pytest.mark.parametrize(
        "field, patch",
        [
            ("coeff_valuations[1]", {"coeff_valuations": {"1": "7" * 641, "3": "2", "9": "0"}}),
            ("base_valuation", {"base_valuation": "7" * 641 + "/3"}),
            ("branch_valuations[2]", {"branch_valuations": ["4", "2/3", "7" * 641 + "/27"]}),
        ],
    )
    def test_numerator_past_the_digit_limit_exits_2_on_its_field(self, capsys, tmp_path, field, patch):
        # the rational's own parse reads the numerator: int() past the
        # limit is an input error on the field, not a raw ValueError
        path = tmp_path / "long-numerator.json"
        path.write_text(json.dumps({**json.loads(Path(SAMPLE).read_text()), **patch}))
        with int_digit_limit(640):
            code, out, err = run(capsys, "certify", str(path))
        assert (code, out) == (2, "")
        error = json.loads(err)
        assert error["field"] == field and "640" in error["error"]

    @pytest.mark.parametrize("kind", ["digits", "nesting"])
    def test_undecodable_documents_exit_2_on_the_root(self, capsys, tmp_path, kind):
        # json.loads raises a plain ValueError on an integer literal past
        # the digit limit, and RecursionError on 100,000 nested brackets
        path = tmp_path / f"{kind}.json"
        if kind == "digits":
            obj = json.loads(Path(SAMPLE).read_text())
            del obj["d"]
            path.write_text(json.dumps(obj)[:-1] + ', "d": ' + "7" * 4400 + "}")
        else:
            path.write_text("[" * 100_000)
        path, svg = str(path), tmp_path / "never-written.svg"
        with int_digit_limit(4300):
            for argv in (
                ["limit-data"], ["branch"], ["certify"], ["hh", "--depth", "2"],
                ["breaks", "--depth", "2"], ["plot", "--depth", "2", "--out", str(svg)],
            ):
                code, out, err = run(capsys, argv[0], path, *argv[1:])
                assert code == 2 and out == ""
                error = json.loads(err)
                assert error["field"] == "$" and "not valid JSON" not in error["error"]
            for jobs in ("1", "2"):
                code, out, err = run(capsys, "certify", SAMPLE, path, "--jobs", jobs)
                assert code == 2 and err == ""
                payload = json.loads(out)
                assert payload[SAMPLE]["kind"] == "PotentiallyTRS"
                assert payload[path]["field"] == "$" and "error" in payload[path]
        assert not svg.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", SAMPLE],
            ["hh", "--depth", "2", SAMPLE],
            ["plot", "--depth", "2", SAMPLE],
            ["certify", SAMPLE, UNIFORMIZER],
        ],
        ids=["certify", "hh", "plot", "batch"],
    )
    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    def test_unwritable_out_exits_2_on_out(self, capsys, tmp_path, argv, target):
        out = tmp_path if target == "directory" else tmp_path / "missing" / "report.json"
        code, stdout, err = run(capsys, *argv, "--out", str(out))
        assert code == 2 and stdout == ""
        error = json.loads(err)
        assert error["field"] == "out" and str(out) in error["error"]
        assert sorted(tmp_path.iterdir()) == []

    def test_unprintable_scanned_level_is_rejected_on_r(self, capsys, tmp_path):
        # at a 640-digit limit q = 2^800 (241 digits) and q^2 (482) print;
        # level 0's d-estimate -2 is not prime to 2 and levels 1 and 2 fail
        # |v| <= 1/q^2, so the scan reaches level 3, -1/2^2399 (723 digits)
        q = 2**800
        doc = {
            "p": 2, "r": 800, "v_p": 1, "coeff_valuations": {"1": "1", str(q): "0"},
            "base_valuation": "-2", "branch_valuations": ["-2"],
        }
        path = tmp_path / "r800-base-2.json"
        path.write_text(json.dumps(doc))
        svg = tmp_path / "never-written.svg"
        with int_digit_limit(640):
            for argv in (
                ["certify"], ["breaks", "--depth", "2"], ["hh", "--depth", "2"],
                ["plot", "--depth", "2", "--out", str(svg)],
            ):
                code, out, err = run(capsys, argv[0], str(path), *argv[1:])
                assert code == 2 and out == ""
                error = json.loads(err)
                assert error["field"] == "r" and "level 3" in error["error"]
        assert not svg.exists()

    @pytest.mark.parametrize(
        "base, e_ke, d, at_fault",
        [
            (f"-{10**645 + 1}", 1, None, "level 678's criterion bound"),
            (f"-{10**646 + 1}/7", 10, None, "the estimated d"),
            (f"-{10**646 + 1}/7", 10, 1, "level 0's d-estimate"),
            (f"-{10**637}", 10**10, 1, "level 0's d-estimate"),
            (f"-{10**637}", 10**10, None, "the estimated d"),
        ],
        ids=[
            "criterion", "d-estimate", "level-d-estimate", "d-estimate-at-the-bound",
            "estimated-d-at-the-bound",
        ],
    )
    def test_unprintable_base_magnitude_is_rejected_on_the_base(
        self, capsys, tmp_path, base, e_ke, d, at_fault
    ):
        # sample without d, at a 647-digit limit: the scan stops at level
        # 678, where |v| <= 1/q^2 and the denominator 9^678 still prints, but
        # the composition criterion's right side, about 4 * 9^678, does not;
        # with e_ke = 10 the estimated d, 10 (10^646 + 1), does not either;
        # given d = 1, level 0's d-estimate, -10 (10^646 + 1), is the first,
        # and so is -10^647, exactly 10^limit in size, from the base -10^637;
        # without d, every d-estimate of that base, and so d, is -10^647
        doc = json.loads(Path(SAMPLE).read_text())
        if d is None:
            del doc["d"]
        else:
            doc["d"] = d
        doc.update(base_valuation=base, branch_valuations=[base], e_ke=e_ke)
        path = tmp_path / "huge-base.json"
        path.write_text(json.dumps(doc))
        svg = tmp_path / "never-written.svg"
        with int_digit_limit(647):
            for argv in (
                ["certify"], ["breaks", "--depth", "2"], ["hh", "--depth", "2"],
                ["plot", "--depth", "2", "--out", str(svg)],
            ):
                code, out, err = run(capsys, argv[0], str(path), *argv[1:])
                assert code == 2 and out == ""
                error = json.loads(err)
                assert error["field"] == "base_valuation" and at_fault in error["error"]
        assert not svg.exists()

    def test_criterion_bound_of_exactly_ten_to_the_limit_is_rejected(self, capsys, tmp_path):
        # p = 11, q = 121 and a shallowest limiting slope of 1: on the base
        # 5/(10^640 - 1), which prints, level 0's reduced right side
        # (10 b + 10)/(10 b), b = 10^640 - 1, is 10^640/(10^640 - 1), its
        # numerator exactly 10^640
        with int_digit_limit(640):
            base = f"5/{10**640 - 1}"
            doc = {
                "p": 11, "r": 2, "v_p": 10, "coeff_valuations": {"11": "1", "121": "0"},
                "base_valuation": base, "branch_valuations": [base],
            }
            path = tmp_path / "criterion-ten-to-the-limit.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "certify", str(path))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["field"] == "base_valuation" and "level 0's criterion bound" in error["error"]

    @pytest.mark.parametrize(
        "digits, limit, argv, at_fault",
        [
            (638, 640, ["certify"], "level 671's denominator"),
            (638, 640, ["breaks", "--depth", "2"], "level 671's denominator"),
            (645, 647, ["branch"], "the last valuation's denominator"),
        ],
        ids=["certify", "breaks", "branch"],
    )
    def test_unprintable_denominator_of_a_large_base_is_rejected_on_the_base(
        self, capsys, tmp_path, digits, limit, argv, at_fault
    ):
        # sample without d, on the base -(10^digits + 1): its q^3 = 729
        # prints at any limit, so a denominator past the limit, a scanned
        # level's or the completed record's last, comes of the base
        doc = json.loads(Path(SAMPLE).read_text())
        del doc["d"]
        base = f"-{10**digits + 1}"
        doc.update(base_valuation=base, branch_valuations=[base])
        path = tmp_path / "large-base.json"
        path.write_text(json.dumps(doc))
        with int_digit_limit(limit):
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["field"] == "base_valuation" and at_fault in error["error"]

    @pytest.mark.parametrize(
        "argv, at_fault",
        [
            (["branch"], "the largest d-estimate"),
            (["certify"], "the estimated d"),
            (["breaks", "--depth", "2"], "the estimated d"),
        ],
        ids=["branch", "certify", "breaks"],
    )
    def test_unprintable_d_estimate_is_rejected_on_the_base(
        self, capsys, tmp_path, argv, at_fault
    ):
        # the base N/D, N = 10^4298 - 1 and D = 19 N + 2, prints, and so does
        # every denominator of its record, D or 3 D (9 divides N); but with
        # e_ke = 10^10 every d-estimate has 4,308 digits
        N = 10**4298 - 1
        with int_digit_limit(4300):
            base = f"{N}/{19 * N + 2}"
            doc = {
                "p": 3, "r": 1, "v_p": 1, "e_ke": 10**10, "coeff_valuations": {"3": "0"},
                "base_valuation": base, "branch_valuations": [base],
            }
            path = tmp_path / "d-estimate.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, argv[0], str(path), *argv[1:])
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["field"] == "base_valuation" and at_fault in error["error"]

    def test_denominator_of_exactly_ten_to_the_limit_is_rejected(self, capsys, tmp_path):
        # x^2 halves the base -a/5^640, a = 25 * 10^638 + 1 prime to 10:
        # level n is -a/(5^640 2^n), above 1/q^2 = 1/4 in size through level
        # 640, whose denominator is exactly 10^640
        a, fives = 25 * 10**638 + 1, 5**640
        with int_digit_limit(640):
            base = f"-{a}/{fives}"
            doc = {
                "p": 2, "r": 1, "v_p": 1, "coeff_valuations": {"2": "0"},
                "base_valuation": base, "branch_valuations": [base],
            }
            path = tmp_path / "ten-to-the-limit.json"
            path.write_text(json.dumps(doc))
            code, out, err = run(capsys, "certify", str(path))
        assert code == 2 and out == ""
        error = json.loads(err)
        assert error["field"] == "base_valuation" and "level 640's denominator" in error["error"]

    def test_plot_of_a_q_past_floats_exits_2_on_r(self, capsys, tmp_path):
        # q = 2^1100 is the polygon's last x, past the largest float: no
        # depth can be plotted, though the document certifies and its
        # breaks print
        q = 2**1100
        doc = {
            "p": 2, "r": 1100, "v_p": 1, "coeff_valuations": {"1": "1", str(q): "0"},
            "base_valuation": "-1", "branch_valuations": ["-1"], "d": 1,
        }
        path = tmp_path / "r1100.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "certify", str(path))[0] == 0
        assert run(capsys, "breaks", "--depth", "1", str(path))[0] == 0
        svg = tmp_path / "never-written.svg"
        for depth in ("1", "2"):
            code, out, err = run(capsys, "plot", "--depth", depth, "--out", str(svg), str(path))
            assert code == 2 and out == ""
            assert json.loads(err) == {
                "error": "r: 1100 is too large to plot: q = p^r overflows a float",
                "field": "r",
            }
        assert not svg.exists()


USAGE = [
    "[-h] {limit-data,branch,certify,hh,breaks,plot,selftest} ...",
    "limit-data [-h] [--out OUT] input",
    "branch [-h] [--out OUT] input",
    "certify [-h] [--jobs JOBS] [--out OUT] inputs [inputs ...]",
    "hh [-h] --depth DEPTH [--out OUT] input",
    "breaks [-h] --depth DEPTH [--out OUT] input",
    "plot [-h] --depth DEPTH --out OUT input",
    "selftest [-h]",
]

SUBCOMMAND_HELP = {
    "limit-data": "limiting vertex data and error coefficient",
    "branch": "validated and extended branch record",
    "certify": "stability certificate (exit 1 if not certified)",
    "hh": "transition functions and tower to a depth",
    "breaks": "ramification breaks and subfield table",
    "plot": "render polygon, dual and transition functions as SVG",
    "selftest": "run the bundled fixtures against golden reports",
}


NONPOSITIVE_COUNTS = [
    ["hh", "--depth", "0", SAMPLE],
    ["breaks", "--depth", "-2", SAMPLE],
    ["hh", "--depth", "two", SAMPLE],
    ["plot", "--depth", "0", "--out", "never-written.svg", SAMPLE],
    ["certify", "--jobs", "0", SAMPLE],
    # digits that are decimal but not ASCII, as no document number may be
    ["breaks", "--depth", "\u0661\u0660", SAMPLE],
    ["certify", "--jobs", "\uff12", SAMPLE, UNIFORMIZER],
]

# command lines on which main's parse must act exactly as parse_args
ARGV_CASES = [
    [],
    ["-h"],
    ["certify", "-h"],
    ["cert", SAMPLE],  # a command is never abbreviated
    ["certify"],
    ["hh", SAMPLE],  # --depth missing
    ["plot", "--depth", "1", SAMPLE],  # --out missing
    ["breaks", "--depth", "2", SAMPLE, "extra"],
    ["certify", SAMPLE, "--bogus"],
    ["breaks", "--dep", "2", SAMPLE],  # an abbreviated option
    ["--", "certify", SAMPLE],
    ["certify", "--jobs", "2", SAMPLE, UNIFORMIZER],
    ["certify", "--", SAMPLE],
    ["certify", SAMPLE, "-h"],
    ["hh", "--depth=3", "--out", "o.json", SAMPLE],
    ["breaks", "--depth", "2", SAMPLE, "--", "x", "--y"],
    ["selftest"],
    ["selftest", "extra", "--more"],
    ["limit-data", SAMPLE, "--out"],
    ["branch", "--help"],
    *NONPOSITIVE_COUNTS,
]


def parse_outcome(capsys, parse, argv):
    """What parsing ``argv`` does: the Namespace's fields or the exit code,
    then stdout and stderr."""
    try:
        result = vars(parse(argv))
    except SystemExit as exc:
        result = exc.code
    out = capsys.readouterr()
    return result, out.out, out.err


class TestArgumentValidation:
    def test_usage_lines_and_help_strings_are_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        usage = [parser.format_usage()] + [p.format_usage() for p in sub.choices.values()]
        assert usage == [f"usage: ramstab {line}\n" for line in USAGE]
        assert {a.dest: a.help for a in sub._choices_actions} == SUBCOMMAND_HELP

    @pytest.mark.parametrize("argv", NONPOSITIVE_COUNTS)
    def test_nonpositive_counts_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "positive integer" in err

    @pytest.mark.parametrize("argv", ARGV_CASES)
    def test_parse_is_parse_args(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "200")
        parser = cli.build_parser()
        expected = parse_outcome(capsys, parser.parse_args, argv)
        assert parse_outcome(capsys, cli._parse_args, argv) == expected
        if isinstance(expected[0], dict):
            assert expected[0]["command"] in argv

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in (["certify", SAMPLE], ["limit-data", SAMPLE], ["branch", UNIFORMIZER]):
            assert run(capsys, *argv)[0] == 0
        assert built.count("ramstab") == 1

    def test_usage_error_after_a_successful_call(self, capsys):
        assert run(capsys, "certify", SAMPLE)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["hh", "--depth", "0", SAMPLE])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage:") and "positive integer" in err
        assert run(capsys, "hh", "--depth", "2", SAMPLE)[0] == 0


def count_stage_calls(capsys, *argv, code=0):
    """Run one command, which exits with ``code``, with the pipeline stages
    wrapped at every ramstab binding.

    The wrappers are removed on return, so calls in one test count apart.
    """
    originals = {
        "build_record": branches.build_record,
        "branch_step_candidates": branches.branch_step_candidates,
        "tangent_step": branches._tangent_step,
        "limiting_data": limitdata.limiting_data,
        "lower_hull": polygons.lower_hull,
        "level_model": hasseherbrand.level_model,
        "main_and_error": limitdata.main_and_error,
        "find_stable_index": branches.find_stable_index,
        "format_rational": valuations.format_rational,
        "printable_depth": hasseherbrand.printable_depth,
        "composition_criterion": certificates.composition_criterion,
        "stability_screen": branches.stability_screen,
    }
    # the level scan's constants, cached on the profile
    cached = (
        "coefficient_floor", "q_squared", "screen_threshold", "screen_texts", "forced_step_bound"
    )
    counts = dict.fromkeys([*originals, *cached, "CertificateCheck"], 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    wrappers = {name: counting(name, fn) for name, fn in originals.items()}
    with pytest.MonkeyPatch.context() as patch:
        # every certificate row is built through the class
        patch.setattr(
            certificates.CertificateCheck, "__new__",
            counting("CertificateCheck", certificates.CertificateCheck.__new__),
        )
        profile_class = branches.PolynomialValuationProfile
        for name in cached:
            counted = functools.cached_property(counting(name, vars(profile_class)[name].func))
            counted.__set_name__(profile_class, name)
            patch.setattr(profile_class, name, counted)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ramstab" and not mod_name.startswith("ramstab."):
                continue
            for attr, value in list(vars(module).items()):
                for name, fn in originals.items():
                    if value is fn:
                        patch.setattr(module, attr, wrappers[name])
        exit_code, _, _ = run(capsys, *argv)
    assert exit_code == code
    return counts


class TestStageCounts:
    """Every command computes each pipeline stage once."""

    def test_certify(self, capsys):
        counts = count_stage_calls(capsys, "certify", SAMPLE)
        assert counts["build_record"] == 1
        assert counts["limiting_data"] == 1
        # one table for every k
        assert counts["main_and_error"] == 1
        assert counts["lower_hull"] <= 2
        assert counts["find_stable_index"] == 0
        # the two steps of the recorded valuations are validated, each by
        # one tangent query and no candidate list; the completion past them
        # is closed-form
        assert counts["tangent_step"] == 2
        assert counts["branch_step_candidates"] == 0
        counts = count_stage_calls(capsys, "certify", UNIFORMIZER)
        assert counts["tangent_step"] == 2
        assert counts["branch_step_candidates"] == 0

    @pytest.mark.parametrize("base", ["400", "1000", str(10**6)])
    def test_completion_does_no_step_queries(self, capsys, tmp_path, base):
        # x^2 halves from any base: the record completes without a step query
        doc = {
            "p": 2, "r": 1, "v_p": 1, "coeff_valuations": {"2": "0"},
            "base_valuation": base, "branch_valuations": [base],
        }
        path = tmp_path / "halving.json"
        path.write_text(json.dumps(doc))
        counts = count_stage_calls(capsys, "certify", str(path))
        assert counts["branch_step_candidates"] == counts["tangent_step"] == 0

    def test_certify_builds_the_level_constants_once(self, capsys, tmp_path):
        # v(P_1) = 2 and following the largest root: bases 16 and 76 certify
        # at levels 10 and 40, so the scan screens levels 0..10 and 0..40;
        # only the per-level screen grows with the record
        profile = branches.PolynomialValuationProfile(
            p=2, r=3, v_p=1, coeff_valuations={1: 2, 3: 4, 5: 1, 6: 3, 8: 0}
        )
        screens = []
        for base, levels in ((16, 10), (76, 40)):
            record = predict_branch(profile, Fraction(base), [0] * levels, levels)
            path = tmp_path / f"long{levels}.json"
            path.write_text(json.dumps(document_json(InputDocument(profile, record, d=3))))
            counts = count_stage_calls(capsys, "certify", str(path))
            assert counts["coefficient_floor"] == 1
            assert counts["q_squared"] == 1
            assert counts["screen_threshold"] == 1
            assert counts["forced_step_bound"] == 1
            assert counts["composition_criterion"] == 1
            screens.append(counts["stability_screen"])
        assert screens == [11, 41]

    def test_hh(self, capsys):
        counts = count_stage_calls(capsys, "hh", "--depth", "3", SAMPLE)
        assert counts["build_record"] == 1
        assert counts["limiting_data"] == 1
        assert counts["level_model"] == 1
        assert counts["lower_hull"] <= 2
        assert counts["find_stable_index"] == 0

    def test_hh_formats_linearly_in_depth(self, capsys):
        # each number once: formatting every level's prefix again is quadratic
        c10, c20, c40 = (
            count_stage_calls(capsys, "hh", "--depth", str(depth), UNIFORMIZER)["format_rational"]
            for depth in (10, 20, 40)
        )
        assert c40 - c20 == 2 * (c20 - c10)

    def test_hh_encodes_linearly_in_depth(self, capsys, monkeypatch):
        # every level's breaks and vertices are cuts of one rendered list:
        # encoding each level's prefix again is quadratic (a ratio of 3.4)
        encode, calls = cli.encode_basestring_ascii, []

        def counting(text):
            calls.append(text)
            return encode(text)

        monkeypatch.setattr(cli, "encode_basestring_ascii", counting)
        counts = []
        for depth in (40, 80):
            calls.clear()
            assert run(capsys, "hh", "--depth", str(depth), UNIFORMIZER)[0] == 0
            counts.append(len(calls))
        assert counts[1] <= 2.2 * counts[0]

    def test_hull_count_does_not_grow_with_the_record(self, capsys, tmp_path):
        # branch steps query the profile's one coefficient hull
        fixture = load_document(UNIFORMIZER)
        profile, base = fixture.profile, fixture.record.valuations[0]
        counts = []
        for record in (build_record(profile, [base]), predict_branch(profile, base, depth=34)):
            doc = InputDocument(profile=profile, record=record, d=fixture.d)
            path = tmp_path / f"levels{len(record.valuations)}.json"
            path.write_text(json.dumps(document_json(doc)))
            counts.append(count_stage_calls(capsys, "certify", str(path)))
        assert counts[0]["lower_hull"] == counts[1]["lower_hull"]

    def test_breaks(self, capsys):
        counts = count_stage_calls(capsys, "breaks", "--depth", "3", SAMPLE)
        assert counts["find_stable_index"] == 0

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no int digit limit"
    )
    @pytest.mark.parametrize("fixture", [SAMPLE, UNIFORMIZER])
    def test_bit_lengths_decide_printable_depths(self, capsys, fixture):
        # the exact limit is computed only for a depth the screen cannot accept
        counts = count_stage_calls(capsys, "breaks", "--depth", "40", fixture)
        assert counts["printable_depth"] == 0
        counts = count_stage_calls(capsys, "breaks", "--depth", "1000000", fixture, code=2)
        assert counts["printable_depth"] == 1

    def test_plot(self, capsys, tmp_path):
        # every panel reads the limiting data and the tower: the only
        # polygons built are the hulls of the certify stage
        out = str(tmp_path / "plot.svg")
        counts = count_stage_calls(capsys, "plot", "--depth", "3", "--out", out, SAMPLE)
        assert counts["level_model"] == 1
        assert counts["lower_hull"] <= 2

    def test_certify_visits_only_the_support(self, capsys, tmp_path):
        # q = 1000000007: a loop over every index 1..q would not finish
        doc = {
            "p": 1000000007,
            "r": 1,
            "v_p": 1,
            "e_ke": 1,
            "coeff_valuations": {"1": "1", "1000000007": "0"},
            "base_valuation": "1",
            "branch_valuations": ["1"],
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        counts = count_stage_calls(capsys, "certify", str(path))
        assert counts["main_and_error"] == 1

    def test_certify_reads_the_long_degree_table_once(self, capsys, tmp_path):
        counts = count_stage_calls(capsys, "certify", long_degree_document(tmp_path))
        assert counts["main_and_error"] == 1

    def test_command_lines_skip_the_top_level_parse(self, capsys, monkeypatch, tmp_path):
        # a command's words go straight to its subparser: argparse's
        # top-level pass runs only for an argv that names no command
        parser, calls = cli.build_parser(), []
        parse_known_args = parser.parse_known_args

        def counting(*args, **kwargs):
            calls.append(args)
            return parse_known_args(*args, **kwargs)

        monkeypatch.setattr(parser, "parse_known_args", counting)
        svg = str(tmp_path / "plot.svg")
        for argv in (
            ["certify", SAMPLE],
            ["certify", "--jobs", "1", SAMPLE, UNIFORMIZER],
            ["limit-data", SAMPLE],
            ["branch", "--out", str(tmp_path / "branch.json"), UNIFORMIZER],
            ["hh", "--depth", "3", SAMPLE],
            ["breaks", "--depth=3", UNIFORMIZER],
            ["plot", "--depth", "2", "--out", svg, SAMPLE],
            ["selftest"],
        ):
            assert run(capsys, *argv)[0] == 0
        assert calls == []
        with pytest.raises(SystemExit):
            main(["-h"])
        assert len(calls) == 1

    def test_branch_builds_no_certificate_rows_or_screen_text(self, capsys, tmp_path):
        # the stable index is decided on the screen's pass bits alone, on a
        # record of 40 levels; certify builds each row it prints once
        profile = branches.PolynomialValuationProfile(
            p=2, r=3, v_p=1, coeff_valuations={1: 2, 3: 4, 5: 1, 6: 3, 8: 0}
        )
        record = predict_branch(profile, Fraction(76), [0] * 40, 40)
        path = tmp_path / "long40.json"
        path.write_text(json.dumps(document_json(InputDocument(profile, record, d=3))))
        counts = count_stage_calls(capsys, "branch", str(path))
        assert counts["find_stable_index"] == 1
        assert counts["CertificateCheck"] == counts["stability_screen"] == 0
        assert counts["screen_threshold"] == counts["screen_texts"] == 0
        counts = count_stage_calls(capsys, "certify", str(path))
        assert counts["screen_texts"] == 1
        rows = json.loads(run(capsys, "certify", str(path))[1])["checks"]
        assert counts["CertificateCheck"] == len(rows) == 206

    def test_branch_computes_no_limiting_data(self, capsys):
        counts = count_stage_calls(capsys, "branch", SAMPLE)
        assert counts["limiting_data"] == 0
        assert counts["find_stable_index"] == 1


class TestSelftest:
    def test_selftest_passes(self, capsys):
        code, out, _ = run(capsys, "selftest")
        assert code == 0
        lines = [line for line in out.splitlines() if line.startswith("selftest")]
        assert len(lines) == 8
        assert all(line.endswith("OK") for line in lines)

    def test_selftest_compares_bytes_and_prints_a_diff(self, capsys, monkeypatch):
        # the same report with one value changed, and with keys reordered
        doc = load_document(SAMPLE)
        changed = {**cli.COMMANDS["branch"][0](doc, None)[0], "stable_index": 4}
        reordered = dict(reversed(list(cli.COMMANDS["limit-data"][0](doc, None)[0].items())))
        for name, payload in (("branch", changed), ("limit-data", reordered)):
            entry = (lambda doc, args, payload=payload: (payload, 0), *cli.COMMANDS[name][1:])
            monkeypatch.setitem(cli.COMMANDS, name, entry)
        code, out, _ = run(capsys, "selftest")
        assert code == 1
        assert "selftest sample.branch: MISMATCH" in out
        assert "selftest sample.limit-data: MISMATCH" in out
        assert '-  "stable_index": 3,' in out.splitlines()
        assert '+  "stable_index": 4,' in out.splitlines()
        assert "selftest sample.certify: OK" in out
