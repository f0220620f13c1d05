"""End-to-end tests for the command-line interface."""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from galpairs import cli
from galpairs import families as fam
from galpairs import multiplicity as mu
from galpairs import presets as pr
from galpairs.cli import EXIT_PASS, EXIT_USAGE, EXIT_VIOLATION, MAX_SAMPLES, build_parser, frac_str, run
from galpairs.exact_linalg import TRIVIAL_GROUP, FiniteAbelianGroup
from galpairs.presets import MAX_GL_N, MAX_M
from galpairs.root_data import MAX_AMBIENT_DIM, builtin_system

# valid fixtures, as in the README schemas, that the bad-input cases spoil one field of
A1_SYSTEM = {
    "ambient_dim": 1, "roots": [[2], [-2]], "coroots": [[1], [-1]],
    "simple_indices": [0], "lattice_basis": [[1]], "name": "custom-A1",
}
# A2 whose root (1, 1) has coroot (2, 0): <a, a_coroot> = 2 still holds, but the
# reflection in (2, -1) maps (-1, 2) to (1, 1) and its coroot (0, 1) to (1, 1)
A2_BAD_COROOT = {
    "ambient_dim": 2,
    "roots": [[2, -1], [-1, 2], [1, 1], [-2, 1], [1, -2], [-1, -1]],
    "coroots": [[1, 0], [0, 1], [2, 0], [-1, 0], [0, -1], [-2, 0]],
    "simple_indices": [0, 1],
}
# A2 whose simple indices name the root (-1, 2) and its negative: dependent, so
# the other roots are outside their span, but the rank is checked first
A2_DEPENDENT = {
    "ambient_dim": 2,
    "roots": [[-2, 1], [-1, -1], [-1, 2], [1, -2], [1, 1], [2, -1]],
    "coroots": [[-1, 0], [-1, -1], [0, 1], [0, -1], [1, 1], [1, 0]],
    "simple_indices": [2, 3],
}
# A2 over a normalization lattice of rank one, which misses the coroot (0, 1)
A2_SHORT_LATTICE = {
    "ambient_dim": 2,
    "roots": [[2, -1], [-1, 2], [1, 1], [-2, 1], [1, -2], [-1, -1]],
    "coroots": [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
    "simple_indices": [0, 1], "lattice_basis": [[1, 0]],
}
# A7 as e_i - e_j in dimension 8: |W| = 8! = 40,320, over the Weyl-size limit
_A7_ROOTS = [[int(k == i) - int(k == j) for k in range(8)] for i in range(8) for j in range(8) if i != j]
A7_SYSTEM = {
    "ambient_dim": 8, "roots": _A7_ROOTS, "coroots": _A7_ROOTS,
    "simple_indices": [_A7_ROOTS.index([int(k == i) - int(k == i + 1) for k in range(8)]) for i in range(7)],
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
            # rationals are read by _parse_vec and rendered as p/q, never as Fraction reprs
            (["ortho", "volume", "--system", "A2", "--special", "1,x"], "not a rational vector: ['1', 'x']"),
            (
                ["ortho", "ehrhart", "--system", "A2", "--special", "1,1", "--x0", "1"],
                "expected a point with 2 coordinates, got 1: (1)",
            ),
            (["ortho", "volume", "--system", "A2", "--special", "1/3,2,5"], "got 3: (1/3, 2, 5)"),
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

    def test_set_off_the_wall_coroots_is_a_usage_error(self, tmp_path):
        # one chamber point moved off the zero set: the wall's difference is rendered as p/q
        path = tmp_path / "set.json"
        path.write_text(json.dumps({"points": [["1/2", "-1"]] + [[0, 0]] * 5}))
        code, text = run(["ortho", "volume", "--system", "A2", "--fixture", str(path)])
        assert code == EXIT_USAGE
        assert text == "error: chambers 0, 7: point difference (-1/2, 1) is not a multiple of the wall coroot (1, 0)\n"

    @pytest.mark.parametrize(
        "argv, fixture, message",
        [
            # integer fields are not truncated
            (H1, {**NORM_ONE, "actions": [[[1.7]], [[-1.2]]]}, "1.7"),
            (H1, {**NORM_ONE, "ambient_rank": True}, "True"),
            (VOLUME, {**A1_SYSTEM, "simple_indices": [0.9]}, "0.9"),
            (VOLUME, {**A1_SYSTEM, "lattice_basis": [[1.5]]}, "1.5"),
            # lattice bases that span no lattice of the stated rank
            (VOLUME, {**A1_SYSTEM, "lattice_basis": [[1], [2]]}, "basis vectors are dependent"),
            (VOLUME, {**A1_SYSTEM, "lattice_basis": [[1, 0]]}, "basis vector has wrong length"),
            (H1, {**NORM_ONE, "basis": [[1], [2]]}, "basis vectors are dependent"),
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
            # unsound root data
            (VOLUME, A2_BAD_COROOT, "but its coroot to"),
            # a and -a: one-signed coordinates and closed reflections, but no base chamber
            (VOLUME, {**A1_SYSTEM, "simple_indices": [0, 1]}, "simple roots are dependent"),
            (VOLUME, A2_DEPENDENT, "simple roots are dependent"),
            (VOLUME, A7_SYSTEM, "reflection group is too large or not finite"),
            # a normalization lattice that spans no chamber point, also when every point is 0
            (VOLUME, {**A1_SYSTEM, "lattice_basis": []}, "point is outside the span of the normalization lattice"),
            (
                ["ortho", "volume", "--special", "0", "--system"],
                {**A1_SYSTEM, "lattice_basis": []},
                "point is outside the span of the normalization lattice",
            ),
            # a normalization lattice that spans every chamber point of 0 but misses a coroot
            (
                ["ortho", "check", "--special", "0,0", "--samples", "1", "--system"],
                A2_SHORT_LATTICE,
                "the normalization lattice does not span the coroots",
            ),
            (
                ["ortho", "volume", "--special", "0,0", "--system"],
                A2_SHORT_LATTICE,
                "the normalization lattice does not span the coroots",
            ),
            # a simple index that names no root
            (VOLUME, {**A1_SYSTEM, "simple_indices": [5]}, "simple index 5 names no root: there are 2 roots"),
            (VOLUME, {**A1_SYSTEM, "simple_indices": [-1]}, "simple index -1 names no root: there are 2 roots"),
            # unitary metadata: n labels the Levis, so it is an integer field
            (LEVIS, {**U2_PRESET, "metadata": {"family": "U", "n": "x"}}, "non-integer entry 'x'"),
            (LEVIS, {**U2_PRESET, "metadata": {"family": "U"}}, "needs an integer n"),
            (LEVIS, {**U2_PRESET, "metadata": {"family": "U", "n": 1.5}}, "non-integer entry 1.5"),
            # sizes out of range, refused before anything of that size is built
            (VOLUME, {**A1_SYSTEM, "ambient_dim": 0}, f"ambient_dim must be between 1 and {MAX_AMBIENT_DIM}, got 0"),
            (VOLUME, {**A1_SYSTEM, "ambient_dim": -1}, f"ambient_dim must be between 1 and {MAX_AMBIENT_DIM}, got -1"),
            (VOLUME, {**A1_SYSTEM, "roots": [], "coroots": [], "simple_indices": []}, "at least one root"),
        ],
    )
    def test_malformed_fixture_is_a_usage_error(self, tmp_path, argv, fixture, message):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(fixture))
        code, text = run(argv + [str(path)])
        assert code == EXIT_USAGE
        assert text.startswith("error:") and message in text

    @pytest.mark.parametrize("dim", [MAX_AMBIENT_DIM + 1, 200, 400])
    def test_system_dimension_above_the_limit_is_refused_before_any_work(self, tmp_path, dim):
        # the lattice and the fan eliminate n x n matrices: 34 s at n = 200 unchecked
        fixture = {"ambient_dim": dim, "roots": [], "coroots": [], "simple_indices": []}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(fixture))
        start = time.perf_counter()
        code, text = run(VOLUME + [str(path)])
        assert time.perf_counter() - start < 1
        assert code == EXIT_USAGE
        assert f"ambient_dim must be between 1 and {MAX_AMBIENT_DIM}, got {dim}" in text

    def test_system_dimension_limit_admits_its_own_value(self, tmp_path):
        # rank one in the largest admitted dimension, with a center
        e = lambda s: [s] + [0] * (MAX_AMBIENT_DIM - 1)
        fixture = {"ambient_dim": MAX_AMBIENT_DIM, "roots": [e(1), e(-1)], "coroots": [e(2), e(-2)], "simple_indices": [0]}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(fixture))
        code, text = run(["ortho", "check", "--samples", "2", "--system", str(path)])
        assert code == EXIT_PASS, text

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
        # a failure planted in the kernel: without the table of the chamber h > 0, the partition of
        # unity loses that chamber's term, which is 1 past its point Y_P = 2, so the sum reads 0 at
        # the sampled points 6 and 9/2 (the others are -28/3, 1/2 and -5/3)
        sys = builtin_system("A1")
        kernel, positive = sys.kernel_tables, sys.cone_by_signs((1,)).index
        planted = [(p, top, [] if q == positive else table) for q, (p, top, table) in enumerate(kernel.compiled)]
        monkeypatch.setattr(kernel, "compiled", planted)
        code, text = run(["ortho", "check", "--system", "A1", "--special", "2", "--samples", "5"])
        assert code == EXIT_VIOLATION
        assert "FAIL partition-of-unity [fixture]: 5 points, 2 violations; first at h=6: value 0, want 1\n" in text

    def test_support_bound_failure(self, monkeypatch):
        monkeypatch.setattr("galpairs.families.support_bound_certificate", lambda sys: 0)
        code, text = run(["ortho", "check", "--system", "A2", "--seed", "5", "--samples", "30"])
        assert code == EXIT_VIOLATION
        assert "FAIL support-bound [positive]: 18 supported points, c_emp=75/82, c_bound=0" in text

    CENTERED = ["ortho", "check", "--system", str(Path(__file__).parent / "fixtures" / "a1_dim2.json")]

    def test_support_bound_on_a_system_with_a_center(self):
        # rank 1 in dimension 2: the kernel does not see the second coordinate, so only the
        # coroot components are bounded
        code, text = run(self.CENTERED + ["--samples", "200", "--seed", "1"])
        assert code == EXIT_PASS, text
        assert "pass support-bound [positive]: 30 supported points, c_emp=6/7, c_bound=2" in text
        assert "pass support-bound [non-positive]: 73 supported points, c_emp=14/15, c_bound=2" in text

    def test_support_bound_failure_on_a_system_with_a_center(self, monkeypatch):
        monkeypatch.setattr("galpairs.families.support_bound_certificate", lambda sys: Fraction(1, 2))
        code, text = run(self.CENTERED + ["--samples", "200", "--seed", "1"])
        assert code == EXIT_VIOLATION
        assert "FAIL support-bound [positive]: 30 supported points, c_emp=6/7, c_bound=1/2" in text

    def test_ehrhart_a3_default_sweep(self):
        # the README's A3 run: its counts sweep about 1,900 planes of the last two coordinates
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

    @pytest.mark.parametrize(
        "command, line",
        [
            (["h1"], "pass cohomology: invariant factors (2, 2), order 4"),
            (["fibers", "--h1g", "2"], "pass fiber-count: |H1(T)|=4, |H1(G)|=2, fibers=2"),
        ],
    )
    def test_index_two_fixture_and_its_dependent_variant(self, command, line):
        # the committed torus over an index-2 sublattice of Z^4 passes the Herbrand quotient;
        # the same data with a dependent basis is refused before any cohomology
        fixtures = Path(__file__).parent / "fixtures"
        code, text = run([*command, "--fixture", str(fixtures / "torus_z2_index2.json")])
        assert code == EXIT_PASS
        assert line in text.splitlines()
        code, text = run([*command, "--fixture", str(fixtures / "torus_z2_dependent.json")])
        assert (code, text) == (EXIT_USAGE, "error: basis vectors are dependent\n")

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

    def test_ehrhart_run_over_the_limit_is_refused_whatever_the_sweep_point(self):
        # with a non-dominant x0 the hull shrinks as j grows, so the refused
        # count (k = 6, j = 0) is the last of its refinement, not the first
        start = time.perf_counter()
        argv = ["ortho", "ehrhart", "--system", "A2", "--special", "20000,20000", "--x0=-1000,-1000"]
        code, text = run(argv + ["--kmax", "6", "--max-period", "4"])
        assert time.perf_counter() - start < 1
        assert (code, text) == (
            EXIT_USAGE,
            f"error: the count would scan 204001 lines, more than the limit of {fam.MAX_SCAN_LINES}\n",
        )

    def test_samples_above_the_work_limit_are_refused(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("sampled points")

        monkeypatch.setattr("galpairs.sampling.sample_points", refuse)
        for value in (MAX_SAMPLES + 1, 10**9):
            start = time.perf_counter()
            assert run(["ortho", "check", "--system", "A3", "--samples", str(value)]) == (EXIT_USAGE, "")
            assert time.perf_counter() - start < 1
            assert f"must be at most {MAX_SAMPLES}, got {value}" in capsys.readouterr().err

    def test_samples_limit_admits_its_own_value(self):
        args = build_parser().parse_args(["ortho", "check", "--system", "A3", "--samples", str(MAX_SAMPLES)])
        assert args.samples == MAX_SAMPLES

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

    def test_list_levis_on_a_proper_subgroup(self, tmp_path):
        # B = <{0, 1}, {1, 2}> inside (Z/2)^3: |B| = 4, and for I = {1} the projection
        # has 2 elements and the kernel {0, {0, 2}} 2
        preset = {"name": "b4", "num_simple": 3, "iota": [0, 1, 2], "delta_minus": [0, 1, 2], "b_generators": [3, 6]}
        path = tmp_path / "preset.json"
        path.write_text(json.dumps(preset), encoding="utf-8")
        code, text = run(["list-levis", "--preset", str(path)])
        assert code == EXIT_PASS, text
        assert "pass levi I=(1,): sign=+1 ker1=1 mab_index=2" in text

    @pytest.mark.parametrize("command", [["list-levis"], ["verify-prasad", "--m", "1"]])
    def test_odd_orthogonal_preset_is_refused(self, command):
        # SO:n names a built-in family, so it is refused as one, not read as a fixture path
        code, text = run(command + ["--preset", "SO:5"])
        assert code == EXIT_USAGE
        assert text.startswith("error: odd orthogonal data is only accepted through a fixture")

    @pytest.mark.parametrize("preset", ["U:4", "GL:6"])
    def test_list_levis_fails_on_a_perturbed_rank(self, preset, monkeypatch):
        # flip the echelon rank of I = {0} (0 <-> 1): ker1 * index stays 2^|I| by
        # construction, but |B|_I| * |{b in B : b & I = 0}| no longer equals |B|
        from galpairs import presets

        echelon = presets.restriction_echelon

        def perturbed(generators, mask):
            rank, vanishing = echelon(generators, mask)
            return (1 - rank if mask == 1 else rank), vanishing

        monkeypatch.setattr(presets, "restriction_echelon", perturbed)
        code, text = run(["list-levis", "--preset", preset])
        assert code == EXIT_VIOLATION
        fails = [line for line in text.splitlines() if line.startswith("FAIL ")]
        assert fails[0].startswith("FAIL levi I=(0,):") and len(fails) == 2
        assert fails[1].startswith("FAIL invariant ker1*index=2^|I|") and text.endswith("FAILED\n")


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


def _planted(stem, argv, owner, name, plant, id=None):
    return pytest.param(stem, argv, owner, name, plant, id=id or stem)


# one row per stem of a check name that cli.py reports: a run, and an error a real bug could make, planted as
# owner.name = plant(the original); the run must report FAIL on that stem and exit 2
PLANTED = [
    # subset sums in place of superset sums
    _planted(
        "character-collapse", ["verify-prasad", "--m", "2"], mu, "superset_sums", lambda f: lambda v: f(v[::-1])[::-1]
    ),
    # the product character omega without its top coordinate
    _planted(
        "multiplicity-indicator", ["verify-prasad", "--m", "0", "--preset", "GL:4"], mu, "omega_mask",
        lambda f: lambda m: f(m) >> 1,
    ),
    # the alternating kernel summed without its signs
    _planted(
        "partition-of-unity", ["ortho", "check", "--system", "A2", "--samples", "20"], fam, "_gamma",
        lambda f: lambda table, point: f([(r, p, z, [(m, 1) for m, _ in terms]) for r, p, z, terms in table], point),
    ),
    # the certificate's fraction upside down
    _planted(
        "support-bound", ["ortho", "check", "--system", "A2", "--seed", "5", "--samples", "30"], fam,
        "support_bound_certificate", lambda f: lambda sys: 1 / f(sys),
    ),
    # every hull row's bound one too high, so no row is tight at a vertex
    _planted(
        "volume-two-ways", ["ortho", "volume", "--system", "B2", "--special", "1,2"], fam, "hull_rows",
        lambda f: lambda y, basis=None: [(a, b + 1) for a, b in f(y, basis)],
    ),
    # each count made at the next dilation
    _planted(
        "refinement-constants", ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "1"], fam.CountPlan,
        "count", lambda f: lambda plan, j: f(plan, j + 1),
    ),
    # the trivial group for the norm-one torus, whose H^-1 is Z/2
    _planted("cohomology", ["h1", "--norm-one", "1"], cli, "tate_h_minus1", lambda f: lambda t: TRIVIAL_GROUP),
    _planted(
        "fiber-count", ["fibers", "--norm-one", "1", "--h1g", "1"], cli, "tate_h_minus1",
        lambda f: lambda t: TRIVIAL_GROUP,
    ),
    # the last invariant factor of the index-2 fixture's Z/2 x Z/2 perturbed from 2 to 1
    _planted(
        "cohomology", ["h1", "--fixture", str(Path(__file__).parent / "fixtures" / "torus_z2_index2.json")], cli,
        "tate_h_minus1", lambda f: lambda t: FiniteAbelianGroup(f(t).invariant_factors[:-1]), id="cohomology-factor",
    ),
    # the echelon of B's generators without the last one
    _planted(
        "levi", ["list-levis", "--preset", "GL:6"], pr, "restriction_echelon",
        lambda f: lambda gens, mask: f(gens[:-1], mask),
    ),
    # the Levi data one subset out of mask order
    _planted(
        "invariant", ["list-levis", "--preset", "GL:6"], pr, "enumerate_elliptic_levis",
        lambda f: lambda preset: f(preset)[1:] + f(preset)[:1],
    ),
]


@pytest.mark.parametrize("stem, argv, owner, name, plant", PLANTED)
def test_planted_error_fails_its_check(monkeypatch, stem, argv, owner, name, plant):
    monkeypatch.setattr(owner, name, plant(getattr(owner, name)))
    code, text = run(argv)
    assert code == EXIT_VIOLATION
    assert any(line.startswith(f"FAIL {stem}") for line in text.splitlines()), text


def test_every_reported_check_has_a_planted_error():
    """The stems of every check name in the golden reports, text and JSON, are the table's."""
    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text(encoding="utf-8"))
    names = []
    for case in golden:
        if case["report"].startswith("{"):
            names += [c["name"] for c in json.loads(case["report"])["checks"]]
        else:
            names += [line.split(":")[0][5:] for line in case["report"].splitlines() if line[:5] in ("pass ", "FAIL ")]
    assert {name.split()[0] for name in names} == {row.values[0] for row in PLANTED}


def test_negative_first_coordinate_needs_an_equals_sign():
    """A point that starts negative, written --special=-1,2, is read as a point on every Python.

    After a space, whether argparse reads "-1,2" as a flag or as the value depends on its
    version, so only the form with the equals sign is pinned."""
    argv = ["ortho", "check", "--system", "A2", "--samples", "20", "--special=-1,2"]
    assert run(argv)[0] == EXIT_PASS


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
