"""Tests for restricted root systems and their hyperplane-arrangement fans."""

import json
import re
from fractions import Fraction

import pytest

from galpairs import linalg
from galpairs.root_data import (
    BUILTIN_NAMES,
    RestrictedRootSystem,
    _parse_vec,
    builtin_system,
    system_from_dict,
    system_from_json,
)
from kernel_oracle import parabolic_leq
import root_oracle
from root_oracle import induced_walls, restricted_coroot, sign_vector, span_basis, zero_roots
from test_cli import A1_SYSTEM, A2_BAD_COROOT, A2_DEPENDENT, A7_SYSTEM

# number of cones in the full fan and number of chambers, per built-in system
EXPECTED_FAN = {
    "A1": (3, 2),
    "A2": (13, 6),
    "A3": (75, 24),
    "B2": (17, 8),
    "C2": (17, 8),
    "G2": (25, 12),
    "BC1": (3, 2),
    "BC2": (17, 8),
}


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fan_counts(name):
    sys = builtin_system(name)
    assert len(sys.cones) == EXPECTED_FAN[name][0]
    assert len(sys.chambers) == EXPECTED_FAN[name][1]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_cone_dimensions(name):
    sys = builtin_system(name)
    # exactly one minimal cone, and chambers are exactly the full-dimensional cones
    zero_cones = [c for c in sys.cones if all(s == 0 for s in c.signs)]
    assert len(zero_cones) == 1
    top = [c.index for c in sys.cones if c.dim == sys.ambient_dim]
    assert sorted(top) == sorted(sys.chambers)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_chamber_walls(name):
    """Each chamber has rank walls, each shared by two chambers."""
    sys = builtin_system(name)
    walls = root_oracle.wall_pairs(sys)
    assert len(walls) == len(sys.chambers) * sys.rank // 2
    for p, q, a, av in walls:
        assert p < q and p in sys.chambers and q in sys.chambers
        assert (a, av) in root_oracle.chamber_simple_pairs(sys, p)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_line_walls(name):
    """On the span of a ray the induced fan is two opposite rays and one wall."""
    sys = builtin_system(name)
    for cone in sys.cones:
        if cone.dim == 1:
            assert len(induced_walls(sys, cone.index)) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_basis(name):
    """For p <= q the covectors pair to delta with the coroots of p's simple roots
    vanishing on span(q), and vanish on span(q) and on the coroots of zero_roots(sys, p)."""
    sys = builtin_system(name)
    coroot_of = dict(zip(sys.roots, sys.coroots))
    for p in range(len(sys.cones)):
        zero_coroots = [coroot_of[a] for a in zero_roots(sys, p)]
        for q in sys.cones:
            if not parabolic_leq(sys, p, q.index):
                continue
            pairs = root_oracle.cone_simple_pairs(sys, p)
            coroots = [pairs[i][1] for i in root_oracle.vanishing_indices(sys, p, q.index)]
            duals = root_oracle.dual_basis(sys, p, q.index)
            assert len(duals) == len(coroots)
            for i, w in enumerate(duals):
                assert [linalg.dot(w, av) for av in coroots] == [int(i == j) for j in range(len(coroots))]
                assert all(linalg.dot(w, v) == 0 for v in span_basis(sys, q.index) + zero_coroots)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "BC2"])
def test_facet_of_partition(name):
    """Every rational point lands in exactly one relative interior."""
    sys = builtin_system(name)
    pts = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            pts.append((Fraction(i), Fraction(j, 2))[: sys.ambient_dim])
    for p in pts:
        c = sys.cone_by_signs(sign_vector(sys.hyperplanes, p))
        for i, h in enumerate(sys.hyperplanes):
            v = linalg.dot(h, p)
            s = 0 if v == 0 else (1 if v > 0 else -1)
            assert c.signs[i] == s


def test_parabolic_order_a1():
    sys = builtin_system("A1")
    full = sys.full_cone()
    for ch in sys.chambers:
        assert parabolic_leq(sys, ch, full.index)
        assert not parabolic_leq(sys, full.index, ch)
    assert all(parabolic_leq(sys, c.index, full.index) for c in sys.cones)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_parabolic_order_is_a_partial_order(name):
    sys = builtin_system(name)
    idx = [c.index for c in sys.cones]
    for p in idx:
        assert parabolic_leq(sys, p, p)
    for p in idx:
        for q in idx:
            if p != q and parabolic_leq(sys, p, q) and parabolic_leq(sys, q, p):
                pytest.fail("antisymmetry violated")


def test_pairing_is_two_on_simples():
    for name in BUILTIN_NAMES:
        sys = builtin_system(name)
        for i in sys.simple_indices:
            assert linalg.dot(sys.roots[i], sys.coroots[i]) == 2


def test_doubled_coroot_convention_bc():
    sys = builtin_system("BC1")
    lookup = dict(zip(sys.roots, sys.coroots))
    a = (Fraction(1),)
    assert lookup[(Fraction(2),)] == tuple(Fraction(x, 2) for x in lookup[a])


def test_chamber_simple_indices_count():
    sys = builtin_system("A2")
    for ch in sys.chambers:
        simple = sys.chamber_simple_indices(ch)
        assert len(simple) == sys.rank
        for k in simple:
            assert linalg.dot(sys.roots[k], sys.coroots[k]) == 2


class TestRestrictedCoroot:
    def test_chamber_independence_b2(self):
        """The corank-one lift agrees across all admissible chambers.

        The oracle raises when two chambers disagree; calling it on every
        wall of every cone exercises all chamber pairs.
        """
        sys = builtin_system("B2")
        for c in sys.cones:
            if c.dim == 0:
                continue
            for a, av in root_oracle.cone_simple_pairs(sys, c.index):
                got = restricted_coroot(sys, c.index, a)
                assert got == av

    def test_bc_halving(self):
        # in the non-reduced system the doubled root restricts with the
        # halved coroot
        sys = builtin_system("BC2")
        checked = 0
        for ch in sys.chambers:
            for a, av in root_oracle.cone_simple_pairs(sys, ch):
                doubled = tuple(2 * x for x in a)
                if doubled not in sys.roots:
                    continue
                half = restricted_coroot(sys, ch, doubled)
                assert half == tuple(Fraction(x, 2) for x in av)
                checked += 1
        assert checked == len(sys.chambers)  # one short simple root per chamber

    def test_rejects_vanishing_covector(self):
        sys = builtin_system("A2")
        full = sys.full_cone()
        small = [c for c in sys.cones if c.dim == 1][0]
        zero = zero_roots(sys, small.index)[0]
        with pytest.raises(ValueError):
            restricted_coroot(sys, small.index, zero)


# A2 with the roots a_1, a_2, a_1 + a_2 and their negatives
_A2 = {
    "ambient_dim": 2,
    "roots": [[2, -1], [-1, 2], [1, 1], [-2, 1], [1, -2], [-1, -1]],
    "coroots": [[1, 0], [0, 1], [1, 1], [-1, 0], [0, -1], [-1, -1]],
    "simple_indices": [0, 1],
}


def _rank_one(roots, coroots):
    """The fixture of the roots and coroots with the first root as the one simple root."""
    return {"ambient_dim": len(roots[0]), "roots": roots, "coroots": coroots, "simple_indices": [0]}


def _exact(message):
    """A pattern that matches exactly the message."""
    return f"^{re.escape(message)}$"


class TestValidation:
    def test_bad_pairing(self):
        with pytest.raises(ValueError):
            RestrictedRootSystem(1, [(1,), (-1,)], [(1,), (-1,)], [0])

    def test_asymmetric_roots(self):
        with pytest.raises(ValueError):
            RestrictedRootSystem(1, [(2,)], [(1,)], [0])

    @pytest.mark.parametrize(
        "fixture, message",
        [
            # A2 with the coroot (2, 0) for (1, 1): chamber_simple_pairs would give (1, 1)
            (A2_BAD_COROOT, r"maps .* to .* but its coroot to"),
            ({**A1_SYSTEM, "simple_indices": [0, 1]}, "simple roots are dependent"),
            (A2_DEPENDENT, "^simple roots are dependent$"),
            (A7_SYSTEM, "reflection group is too large or not finite"),
            # one row per remaining message of ``_validate``, matched in full
            (_rank_one([[1], [1], [-1]], [[2], [2], [-2]]), _exact("duplicate roots")),
            (_rank_one([[1], [-1]], [[1], [-1]]), _exact("<a, a_coroot> != 2 for root (-1)")),
            (_rank_one([[2]], [[1]]), _exact("root set is not symmetric: missing (-2)")),
            # 2e_1 has the coroot (1, 1), not e_1
            (
                _rank_one([[1, 0], [-1, 0], [2, 0], [-2, 0]], [[2, 0], [-2, 0], [1, 1], [-1, -1]]),
                _exact("coroot of (-2, 0) must be half the coroot of (-1, 0)"),
            ),
            # +-e_1 and +-e_2 with the simple set [e_1]
            (
                _rank_one([[1, 0], [-1, 0], [0, 1], [0, -1]], [[2, 0], [-2, 0], [0, 2], [0, -2]]),
                _exact("root (0, -1) is outside the span of the simple roots"),
            ),
            # A2 with the simple roots a_1 and a_1 + a_2, so a_2 = (a_1 + a_2) - a_1
            (
                {**_A2, "simple_indices": [0, 2]},
                _exact("root (-1, 2) is not one-signed over the simple roots"),
            ),
            # A2 without +-(a_1 + a_2)
            (
                {**_A2, "roots": [[2, -1], [-1, 2], [-2, 1], [1, -2]], "coroots": [[1, 0], [0, 1], [-1, 0], [0, -1]]},
                _exact("roots are not closed under the reflection in (-1, 2): (-2, 1) -> (-1, -1)"),
            ),
        ],
    )
    def test_unsound_root_datum(self, fixture, message):
        with pytest.raises(ValueError, match=message):
            system_from_dict(fixture)

    def test_valid_rank_one(self):
        sys = RestrictedRootSystem(1, [(2,), (-2,)], [(1,), (-1,)], [1], name="custom")
        assert len(sys.cones) == 3
        assert sys.rank == 1


class TestFixtures:
    def test_round_trip(self, tmp_path):
        sys = builtin_system("A1")
        data = {
            "ambient_dim": 1,
            "roots": [[2], [-2]],
            "coroots": [[1], [-1]],
            "simple_indices": [1],
            "name": "A1-fixture",
        }
        path = tmp_path / "a1.json"
        path.write_text(json.dumps(data))
        loaded = system_from_json(str(path))
        assert loaded.roots == sys.roots
        assert loaded.coroots == sys.coroots
        assert len(loaded.cones) == 3

    def test_rational_strings(self):
        data = {
            "ambient_dim": 1,
            "roots": [["2/1"], ["-2/1"]],
            "coroots": [["1/1"], ["-1/1"]],
            "simple_indices": [0],
        }
        sys = system_from_dict(data)
        assert sys.rank == 1

    def test_unknown_builtin(self):
        with pytest.raises(ValueError):
            builtin_system("E8")


def test_parse_vec_keeps_fractions_and_rejects_the_rest():
    f = Fraction(1, 3)
    v = _parse_vec([f, 2, "3/4"], 3)
    assert v[0] is f and v == (Fraction(1, 3), Fraction(2), Fraction(3, 4))
    for bad in ([1.5, 1], [True, 1], "1,2", [1, "1/0"], [1, "x"]):
        with pytest.raises(ValueError, match="not a rational vector"):
            _parse_vec(bad, 2)
    with pytest.raises(ValueError, match=_exact("expected a point with 2 coordinates, got 3: (1/3, 1, 2)")):
        _parse_vec([f, 1, 2], 2)
