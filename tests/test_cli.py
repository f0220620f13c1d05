"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from galpairs import families as fam
from galpairs import multiplicity as mu
from galpairs.cli import EXIT_PASS, EXIT_USAGE, EXIT_VIOLATION, build_parser, frac_str, run
from galpairs.presets import MAX_GL_N, MAX_M

# valid fixtures, as in the README schemas, that the bad-input cases spoil one field of
A1_SYSTEM = {
    "ambient_dim": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
    "simple_indices": [0], "lattice_basis": [[1]], "name": "custom-A1",
}
NORM_ONE = {"ambient_rank": 1, "actions": [[[1]], [[-1]]], "label": "norm-one"}
U2_PRESET = {
    "name": "u2", "num_simple": 1, "iota": [0], "delta_minus": [0],
    "s_choice": [], "b_generators": [],
}
# the commands that read each kind of fixture; the fixture path is appended last
VOLUME = ["ortho", "volume", "--special", "1", "--system"]
H1 = ["h1", "--fixture"]
LEVIS = ["list-levis", "--preset"]


class TestExitCodes:
    def test_pass(self):
        code, text = run(["verify-prasad", "--max-m", "4"])
        assert code == EXIT_PASS
        assert text.endswith("OK\n")

    def test_usage_error_unknown_system(self):
        code, text = run(["ortho", "check", "--system", "nonexistent.json"])
        assert code == EXIT_USAGE
        assert text == "" or text.startswith("error:")

    def test_usage_error_missing_subcommand(self):
        code, _ = run([])
        assert code == EXIT_USAGE

    def test_usage_error_volume_without_set(self):
        code, text = run(["ortho", "volume", "--system", "A1"])
        assert code == EXIT_USAGE
        assert "error:" in text

    def test_violation_from_bad_fixture_count(self, tmp_path):
        # a non-integral fiber ratio is a usage/fixture error, not a violation
        code, text = run(["fibers", "--norm-one", "1", "--h1g", "3"])
        assert code == EXIT_USAGE


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--kmax", "0"],
            ["ortho", "check", "--system", "A1", "--samples", "-3"],
            ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--max-period", "0"],
            ["verify-prasad", "--max-m", "-2"],
            ["verify-prasad", "--m", "-1"],
            ["verify-prasad", "--m", "3", "--max-m", "1"],
            ["h1", "--split", "-1"],
            ["fibers", "--norm-one", "-2", "--h1g", "1"],
            # c is fitted on k <= 2, so a smaller --kmax would check nothing
            ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--kmax", "2"],
        ],
    )
    def test_count_flags_bounded_at_parse_time(self, argv):
        assert run(argv) == (EXIT_USAGE, "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["ortho", "volume", "--system", "B2", "--special", "1/0,1"], "not a rational"),
            (["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "1/0"], "not a rational"),
            # the sweep turns the set non-positive at j = 3: refused before any fit
            (["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "-1"], "positive"),
        ],
    )
    def test_bad_point_is_a_usage_error(self, argv, message):
        code, text = run(argv)
        assert code == EXIT_USAGE
        assert text.startswith("error:") and message in text

    @pytest.mark.parametrize(
        "fixture",
        [
            {"special": ["1/0", "1"]},
            {"points": [["-1"], ["1/0"]]},
            {"special": 5},
            # a float is not read as its binary fraction, nor a string digit by digit
            {"special": [1.1, 2]},
            {"special": "12"},
        ],
    )
    def test_bad_fixture_entry_is_a_usage_error(self, tmp_path, fixture):
        path = tmp_path / "set.json"
        path.write_text(json.dumps(fixture))
        system = "A1" if "points" in fixture else "B2"
        code, text = run(["ortho", "volume", "--system", system, "--fixture", str(path)])
        assert code == EXIT_USAGE
        assert text.startswith("error: not a rational")

    @pytest.mark.parametrize(
        "argv, fixture, message",
        [
            # integer fields are not truncated
            (H1, {**NORM_ONE, "actions": [[[1.7]], [[-1.2]]]}, "1.7"),
            (H1, {**NORM_ONE, "ambient_rank": True}, "True"),
            (VOLUME, {**A1_SYSTEM, "simple_indices": [0.9]}, "0.9"),
            (VOLUME, {**A1_SYSTEM, "lattice_basis": [[1.5]]}, "1.5"),
            (LEVIS, {**U2_PRESET, "num_simple": 1.5}, "1.5"),
            (LEVIS, {**U2_PRESET, "delta_minus": [0.2]}, "0.2"),
            # malformed shapes
            (VOLUME, [A1_SYSTEM], "JSON object"),
            (H1, [NORM_ONE], "JSON object"),
            (VOLUME, {**A1_SYSTEM, "roots": 5}, "list"),
            (H1, {**NORM_ONE, "actions": 7}, "list"),
            (LEVIS, {**U2_PRESET, "iota": 5}, "list"),
            (H1, {"ambient_rank": 2, "actions": [[[1, 0], [0, 1]], [[1]]]}, "2 x 2"),
            (VOLUME, {**A1_SYSTEM, "coroots": [[1]]}, "differ in length"),
        ],
    )
    def test_malformed_fixture_is_a_usage_error(self, tmp_path, argv, fixture, message):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        code, text = run(argv + [str(path)])
        assert code == EXIT_USAGE
        assert text.startswith("error:") and message in text

    @pytest.mark.parametrize(
        "argv, points",
        [
            (["ortho", "volume", "--system", "A2", "--special", "1,2,3"], None),
            (["ortho", "check", "--system", "A2", "--special", "1", "--samples", "5"], None),
            (["ortho", "ehrhart", "--system", "A2", "--special", "1,1", "--x0", "1,1,1"], None),
            (["ortho", "volume", "--system", "A1"], [["-1"], ["3", "1"]]),
        ],
    )
    def test_point_of_wrong_dimension_is_a_usage_error(self, tmp_path, argv, points):
        if points is not None:
            path = tmp_path / "set.json"
            path.write_text(json.dumps({"points": points}))
            argv = argv + ["--fixture", str(path)]
        code, text = run(argv)
        assert code == EXIT_USAGE
        assert text.startswith("error: expected a point with")

    def test_arithmetic_error_is_a_violation(self, monkeypatch):
        def disagree(y):
            raise ArithmeticError("analytic volume differs across directions")

        monkeypatch.setattr("galpairs.families.volume_analytic", disagree)
        code, text = run(["ortho", "volume", "--system", "A1", "--special", "2"])
        assert code == EXIT_VIOLATION
        assert "differs across directions" in text


class TestVerifyPrasad:
    def test_single_m(self):
        code, text = run(["verify-prasad", "--m", "3"])
        assert code == EXIT_PASS
        assert "m=3" in text

    def test_with_presets(self):
        code, text = run(
            ["verify-prasad", "--max-m", "2", "--preset", "GL:4", "--preset", "U:3"]
        )
        assert code == EXIT_PASS
        assert "GL:4" in text and "U:3" in text

    def test_json_format(self):
        code, text = run(["verify-prasad", "--max-m", "2", "--format", "json"])
        assert code == EXIT_PASS
        payload = json.loads(text)
        assert payload["ok"] is True
        assert all(c["status"] == "pass" for c in payload["checks"])

    @pytest.mark.parametrize("argv", [["--m", "17"], ["--max-m", "1000000000"]])
    def test_rank_above_the_work_limit_is_refused_before_any_work(self, argv, monkeypatch, capsys):
        def refuse(m):
            raise AssertionError(f"checked rank {m}")

        monkeypatch.setattr("galpairs.multiplicity.verify_prasad_identity", refuse)
        start = time.perf_counter()
        assert run(["verify-prasad"] + argv) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert f"must be at most {MAX_M}" in capsys.readouterr().err

    def test_work_limit_admits_its_own_value(self):
        args = build_parser().parse_args(["verify-prasad", "--max-m", str(MAX_M)])
        assert args.max_m == MAX_M == 16

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-prasad", "--m", "0", "--preset", "U:18"],
            ["list-levis", "--preset", "U:40"],
        ],
    )
    def test_preset_rank_above_the_work_limit_is_refused_before_any_work(self, argv, monkeypatch):
        def refuse(preset):
            raise AssertionError(f"enumerated {preset.name}")

        monkeypatch.setattr("galpairs.presets.enumerate_elliptic_levis", refuse)
        monkeypatch.setattr("galpairs.multiplicity.enumerate_elliptic_levis", refuse)
        start = time.perf_counter()
        code, text = run(argv)
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert f"at most {MAX_M} fixed simple roots" in text

    def test_gl_size_above_the_limit_is_refused_before_any_work(self):
        start = time.perf_counter()
        code, text = run(["verify-prasad", "--preset", "GL:1000000000"])
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert f"n at most {MAX_GL_N}, got 1000000000" in text

    def test_fixture_preset_rank_above_the_work_limit_is_refused(self, tmp_path):
        m = MAX_M + 1
        fixture = {"name": "u", "num_simple": m, "iota": list(range(m)), "delta_minus": list(range(m))}
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(fixture))
        code, text = run(LEVIS + [str(path)])
        assert code == EXIT_USAGE
        assert f"at most {MAX_M} fixed simple roots, got {m}" in text

    def test_multiplicity_indicator_mismatch_fails(self, monkeypatch):
        monkeypatch.setattr(
            "galpairs.multiplicity.steinberg_multiplicity",
            lambda preset, chi: mu.steinberg_indicator(preset, chi) + 1,
        )
        code, text = run(["verify-prasad", "--m", "1", "--preset", "GL:4"])
        assert code == EXIT_VIOLATION
        assert "FAIL multiplicity-indicator GL:4" in text


class TestOrtho:
    def test_check_seeded(self):
        code, text = run(
            ["ortho", "check", "--system", "A2", "--seed", "5", "--samples", "30"]
        )
        assert code == EXIT_PASS
        assert "partition-of-unity" in text
        assert "support-bound" in text

    def test_volume_special(self):
        code, text = run(["ortho", "volume", "--system", "A1", "--special", "2"])
        assert code == EXIT_PASS
        assert "polytope=4" in text and "analytic=4" in text

    def test_volume_fixture(self, tmp_path):
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"special": ["2", "1"]}))
        code, text = run(
            ["ortho", "volume", "--system", "A2", "--fixture", str(path)]
        )
        assert code == EXIT_PASS

    def test_points_fixture_in_chamber_order(self, tmp_path):
        # A1 chamber order is (-1,) then (1,): interval [-1, 3]
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"points": [["-1"], ["3"]]}))
        code, text = run(
            ["ortho", "volume", "--system", "A1", "--fixture", str(path)]
        )
        assert code == EXIT_PASS
        assert "polytope=4" in text

    def test_ehrhart(self):
        code, text = run(
            [
                "ortho",
                "ehrhart",
                "--system",
                "A1",
                "--special",
                "2",
                "--x0",
                "1",
                "--kmax",
                "3",
            ]
        )
        assert code == EXIT_PASS
        assert "refinement-constants" in text

    def test_ehrhart_refinement_bound_can_fail(self, monkeypatch):
        # errors 1, 1/2, 1/2, 1/2: c = 1 from k <= 2, but 3 * 1/2 > c, while
        # the errors still do not grow; only the c/k bound is broken
        errors = [Fraction(1), Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)]

        def perturbed(y, x0, k, max_period):
            return fam.volume_polytope(y) + errors[k - 1]

        monkeypatch.setattr("galpairs.families.refinement_constant_term", perturbed)
        argv = ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "1"]
        code, text = run(argv + ["--kmax", "4"])
        assert code == EXIT_VIOLATION
        assert "errors 1, 1/2, 1/2, 1/2" in text

    @pytest.mark.parametrize("argv", [["A1", "--special", "1"], ["B2", "--special", "1,1"]])
    def test_ehrhart_default_sweep_point(self, argv):
        # the default draw has fractional coordinates here and is scaled to integers
        code, text = run(["ortho", "ehrhart", "--system", *argv, "--kmax", "3"])
        assert code == EXIT_PASS, text

    def test_check_failure_shows_witness(self, monkeypatch):
        monkeypatch.setattr(
            "galpairs.families.partition_of_unity_value", lambda sys, h, y: 1 if h[0] < 0 else 0
        )
        code, text = run(["ortho", "check", "--system", "A1", "--special", "2", "--samples", "5"])
        assert code == EXIT_VIOLATION
        line = next(l for l in text.splitlines() if l.startswith("FAIL partition-of-unity"))
        h = line.split("first at h=")[1].split(":")[0]
        assert Fraction(h) >= 0
        assert line.endswith(f"first at h={h}: value 0, want 1")

    def test_support_bound_failure(self, monkeypatch):
        monkeypatch.setattr("galpairs.families.support_bound_certificate", lambda sys: 0)
        code, text = run(["ortho", "check", "--system", "A2", "--seed", "5", "--samples", "30"])
        assert code == EXIT_VIOLATION
        assert "FAIL support-bound [positive]: 18 supported points, c_emp=75/82, c_bound=0" in text

    def test_ehrhart_a3_default_sweep(self):
        # a count costs one step per scan line, so this A3 run takes seconds
        argv = ["ortho", "ehrhart", "--system", "A3", "--special", "1,1,1", "--kmax", "3"]
        code, text = run(argv + ["--max-period", "1"])
        assert code == EXIT_PASS, text
        assert "pass refinement-constants" in text

    def test_ehrhart_rejects_fractional_sweep(self):
        code, text = run(
            ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "1/2"]
        )
        assert code == EXIT_USAGE


class TestToriAndLevis:
    def test_h1_norm_one(self):
        code, text = run(["h1", "--norm-one", "3"])
        assert code == EXIT_PASS
        assert "(2, 2, 2)" in text and "order 8" in text

    def test_h1_split(self):
        code, text = run(["h1", "--split", "2"])
        assert code == EXIT_PASS
        assert "order 1" in text

    def test_h1_fixture(self, tmp_path):
        path = tmp_path / "torus.json"
        path.write_text(
            json.dumps({"ambient_rank": 1, "actions": [[[1]], [[-1]]]})
        )
        code, text = run(["h1", "--fixture", str(path)])
        assert code == EXIT_PASS
        assert "order 2" in text

    def test_fibers(self):
        code, text = run(["fibers", "--norm-one", "4", "--h1g", "2"])
        assert code == EXIT_PASS
        assert "fibers=8" in text

    @pytest.mark.parametrize(
        "argv",
        [["h1", "--norm-one", "1"], ["fibers", "--norm-one", "1", "--h1g", "1"]],
    )
    def test_cohomology_not_killed_by_group_order_fails(self, monkeypatch, argv):
        from galpairs.exact_linalg import FiniteAbelianGroup

        # the action has order 2, so Z/3 cannot be its H^-1
        monkeypatch.setattr("galpairs.cli.tate_h_minus1", lambda torus: FiniteAbelianGroup((3,)))
        code, text = run(argv)
        assert code == EXIT_VIOLATION
        assert text.startswith("# ") and "FAIL " in text

    @pytest.mark.parametrize("flag", ["--norm-one", "--split"])
    @pytest.mark.parametrize("command", [["h1"], ["fibers", "--h1g", "1"]])
    def test_torus_rank_above_the_work_limit_is_refused(self, command, flag, capsys):
        start = time.perf_counter()
        assert run(command + [flag, str(10**9)]) == (EXIT_USAGE, "")
        assert time.perf_counter() - start < 1
        assert "must be at most 64" in capsys.readouterr().err

    def test_torus_rank_limit_admits_its_own_value(self):
        assert build_parser().parse_args(["h1", "--norm-one", "64"]).norm_one == 64

    @pytest.mark.parametrize("flag, limit", [("--kmax", 6), ("--max-period", 4)])
    def test_ehrhart_counts_above_the_work_limit_are_refused(self, flag, limit, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("counted lattice points")

        monkeypatch.setattr("galpairs.families.refinement_constant_term", refuse)
        for value in (limit + 1, 10**9):
            start = time.perf_counter()
            argv = ["ortho", "ehrhart", "--system", "A3", "--special", "1,1,1", flag, str(value)]
            assert run(argv) == (EXIT_USAGE, "")
            assert time.perf_counter() - start < 1
            assert f"must be at most {limit}, got {value}" in capsys.readouterr().err

    def test_ehrhart_count_above_the_scan_line_limit_is_refused(self):
        # the message names the run's largest count (k = 4, j = 9), which comes first
        start = time.perf_counter()
        code, text = run(["ortho", "ehrhart", "--system", "A2", "--special", "3000000,3000000"])
        assert time.perf_counter() - start < 1
        assert (code, text) == (
            EXIT_USAGE,
            f"error: the count would scan 24000109 lines, more than the limit of {fam.MAX_SCAN_LINES}\n",
        )

    def test_largest_ehrhart_run_is_refused_before_any_count(self):
        # the largest count (k = 6, j = 4 * (3 + 2) + 1) comes first, so the run
        # is refused at once instead of after every smaller count
        start = time.perf_counter()
        argv = ["ortho", "ehrhart", "--system", "A3", "--special", "1,1,1", "--kmax", "6", "--max-period", "4"]
        code, text = run(argv)
        assert time.perf_counter() - start < 2
        assert (code, text) == (
            EXIT_USAGE,
            f"error: the count would scan 4501141 lines, more than the limit of {fam.MAX_SCAN_LINES}\n",
        )

    def test_ehrhart_limits_admit_their_own_values(self):
        argv = ["ortho", "ehrhart", "--system", "A1", "--kmax", "6", "--max-period", "4"]
        args = build_parser().parse_args(argv)
        assert (args.kmax, args.max_period) == (6, 4)

    def test_list_levis(self):
        code, text = run(["list-levis", "--preset", "U:4"])
        assert code == EXIT_PASS
        assert "invariant" in text
        code_gl, text_gl = run(["list-levis", "--preset", "GL:6"])
        assert code_gl == EXIT_PASS


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ortho", "check", "--system", "B2", "--seed", "11", "--samples", "25"],
            ["verify-prasad", "--max-m", "5", "--preset", "GL:4", "--format", "json"],
            ["list-levis", "--preset", "U:5", "--format", "json"],
        ],
    )
    def test_byte_identical_reports(self, argv):
        first = run(argv)
        second = run(argv)
        assert first == second

    def test_seed_changes_samples_not_verdict(self):
        a = run(["ortho", "check", "--system", "A2", "--seed", "1", "--samples", "20"])
        b = run(["ortho", "check", "--system", "A2", "--seed", "2", "--samples", "20"])
        assert a[0] == b[0] == EXIT_PASS


def test_frac_str():
    from fractions import Fraction

    assert frac_str(Fraction(3, 1)) == "3"
    assert frac_str(Fraction(-7, 2)) == "-7/2"


def test_module_entry_point_prints_the_golden_report():
    """``python -m galpairs.cli`` runs ``main``: its exit code and stdout are the golden ones."""
    argv = ["ortho", "volume", "--system", "B2", "--special", "1,2"]
    here = Path(__file__).resolve().parent
    golden = json.loads((here / "golden_cli.json").read_text(encoding="utf-8"))
    (case,) = [c for c in golden if c["argv"] == argv]
    proc = subprocess.run(
        [sys.executable, "-m", "galpairs.cli", *argv],
        env={**os.environ, "PYTHONPATH": str(here.parent / "src")},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (case["exit"], case["report"], "")
