"""``families.check_kernel``, the one pass over sampled points behind ``ortho check``.

It reads each point once and takes both checks off that reading: the partition of
unity, compared here with ``partition_of_unity_value``, and the support bound, whose
full-cone term Gamma^G is one of the partition's terms, compared with the Fraction
support bound of ``support_oracle`` (its per-chamber ``coordinates_in_basis``,
``part``, ``lattice_coords`` and ``sup_norm``).  The systems are the built-ins, the
committed fixtures (rational root data, a center in dimension 16, a coarse
normalization lattice) and a rank-one system with a center in dimension 2.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from galpairs import sampling
from galpairs.cli import run
from galpairs.families import (
    OrthogonalSet,
    _Point,
    check_kernel,
    gamma_family,
    partition_of_unity_value,
    support_bound_certificate,
)
from galpairs.root_data import BUILTIN_NAMES, _parse_vec, builtin_system, system_from_dict, system_from_json
import set_oracle
import support_oracle

FIXTURES = Path(__file__).parent / "fixtures"
FILES = ("b2_half.json", "a1_4_dim16.json", "a2_lattice2.json", "a1_dim2.json")
NAMES = BUILTIN_NAMES + FILES


@functools.cache
def _system(name):
    return system_from_json(str(FIXTURES / name)) if name.endswith(".json") else builtin_system(name)


def _sets(sys, rng):
    """A positive and a non-positive set, the zero set (every part of Y is 0) and a translate of it."""
    zero = set_oracle.zero(sys)
    shift = sampling.sample_rational_point(rng, sys.ambient_dim, 3, 2)
    return [sampling.random_positive_set(rng, sys), sampling.random_nonpositive_set(rng, sys), zero, zero.translate(shift)]


def _points(sys, rng, n):
    """Sampled points and the origin, where the zero set's kernel is supported."""
    return sampling.sample_points(rng, sys.ambient_dim, n) + [(0,) * sys.ambient_dim]


def _partition_violations(sys, y, points):
    values = [(_parse_vec(h, sys.ambient_dim), partition_of_unity_value(sys, h, y)) for h in points]
    return [(h, v) for h, v in values if v != 1]


@pytest.mark.parametrize("name", NAMES)
def test_one_pass_matches_partition_of_unity_and_fraction_support_bound(name):
    sys = _system(name)
    assert sys.kernel_tables.compiled[sys.full_cone().index][0] == 0  # tau^G_G is empty
    n = 12 if sys.ambient_dim > 4 else 40
    supported = 0
    for seed in range(3):
        rng = random.Random(seed)
        for y in _sets(sys, rng):
            points = _points(sys, rng, n)
            violations, report = check_kernel(sys, y, points)
            assert violations == _partition_violations(sys, y, points) == []
            assert report == support_oracle.support_bound_check(sys, y, points)
            supported += report.nonzero
    assert supported > 0


@pytest.mark.parametrize("name", NAMES)
def test_certificate_matches_fraction_solves(name):
    sys = _system(name)
    assert support_bound_certificate(sys) == support_oracle.support_bound_certificate(sys) > 0


@pytest.mark.parametrize("name", ["A2", "BC2", "a2_lattice2.json"])
def test_violations_match_under_a_planted_failure(name, monkeypatch):
    # without the base chamber's table both readings lose the same term of the partition of unity
    sys = _system(name)
    kernel, base = sys.kernel_tables, sys.base_chamber
    planted = [(top, [] if q == base else table) for q, (top, table) in enumerate(kernel.compiled)]
    monkeypatch.setattr(kernel, "compiled", planted)
    rng = random.Random(7)
    y = sampling.random_positive_set(rng, sys)
    points = _points(sys, rng, 200)
    violations, _ = check_kernel(sys, y, points)
    assert violations and violations == _partition_violations(sys, y, points)


def test_zero_set_with_supported_parts_fails_the_bound(monkeypatch):
    # Y = 0 has no size to measure a part against, so a supported point with a nonzero part
    # fails; a kernel planted to be 1 everywhere supports the point 1
    sys = builtin_system("A1")
    kernel, g = sys.kernel_tables, sys.full_cone().index
    planted = list(kernel.compiled)
    planted[g] = (0, [(g, 0, [(0, 1)])])
    monkeypatch.setattr(kernel, "compiled", planted)
    y, points = set_oracle.zero(sys), [(0,), (1,)]
    _, report = check_kernel(sys, y, points)
    assert (report.nonzero, report.c_empirical, report.ok) == (2, 0, False)
    assert report == support_oracle.support_bound_check(sys, y, points)


@pytest.mark.parametrize("name, other", [("B2", "C2"), ("A2", "B2")])
def test_set_of_another_system_is_refused_before_any_work(name, other):
    # B2 and C2 share their chambers, so a C2 set would be read as if it were B2's and the partition
    # of unity at (2, 2) would be 0; B2 has chambers that A2 lacks.  The system is built anew, so a refusal
    # before any work leaves its kernel uncompiled.
    y = OrthogonalSet.special(builtin_system(other), (1, 2))
    calls = [
        lambda sys: partition_of_unity_value(sys, (2, 2), y),
        lambda sys: gamma_family(sys, sys.full_cone().index, (2, 2), y),
        lambda sys: check_kernel(sys, y, [(2, 2)]),
    ]
    for call in calls:
        sys = builtin_system.__wrapped__(name)
        with pytest.raises(ValueError, match="^the orthogonal set lives on a different system$"):
            call(sys)
        assert "kernel_tables" not in sys.__dict__


@pytest.mark.parametrize("argv", [["A2"], ["A3"], [str(FIXTURES / "a2_lattice2.json")]])
def test_check_reads_each_point_once(argv, monkeypatch):
    calls = []
    init = _Point.__init__
    monkeypatch.setattr(_Point, "__init__", lambda self, sys, h, y: calls.append(h) or init(self, sys, h, y))
    code, text = run(["ortho", "check", "--samples", "30", "--seed", "2", "--system", *argv])
    assert code == 0, text
    assert len(calls) == 2 * 30  # a positive and a non-positive set


def test_lattice_that_misses_a_coroot_is_refused():
    sys = system_from_dict(json.loads((FIXTURES / "a2_lattice2.json").read_text()) | {"lattice_basis": [[1, 0]]})
    for table in (lambda: sys.coroot_lattice_rows, lambda: support_bound_certificate(sys), lambda: sys.volume_weights):
        with pytest.raises(ValueError, match="^the normalization lattice does not span the coroots$"):
            table()
