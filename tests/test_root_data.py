"""Tests for restricted root systems and their hyperplane-arrangement fans."""

import json
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
from root_oracle import restricted_coroot

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
    walls = sys.walls(sys.base_chamber)
    assert len(walls) == len(sys.weyl_elements) * sys.rank // 2
    for p, q, a, av in walls:
        assert p < q and p in sys.chambers and q in sys.chambers
        assert (a, av) in sys.chamber_simple_pairs(p)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_line_walls(name):
    """On the span of a ray the induced fan is two opposite rays and one wall."""
    sys = builtin_system(name)
    for cone in sys.cones:
        if cone.dim == 1:
            assert len(sys.walls(cone.index)) == 1


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_dual_basis(name):
    """For p <= q the covectors pair to delta with the coroots of p's simple roots
    vanishing on span(q), and vanish on span(q) and on the coroots of zero_roots(p)."""
    sys = builtin_system(name)
    coroot_of = dict(zip(sys.roots, sys.coroots))
    for p in range(len(sys.cones)):
        zero_coroots = [coroot_of[a] for a in sys.zero_roots(p)]
        for q in sys.cones:
            if not sys.parabolic_leq(p, q.index):
                continue
            pairs = sys.cone_simple_pairs(p)
            coroots = [pairs[i][1] for i in sys.vanishing_indices(p, q.index)]
            duals = sys.dual_basis(p, q.index)
            assert len(duals) == len(coroots)
            for i, w in enumerate(duals):
                assert [linalg.dot(w, av) for av in coroots] == [int(i == j) for j in range(len(coroots))]
                assert all(linalg.dot(w, v) == 0 for v in list(q.span_basis) + zero_coroots)


@pytest.mark.parametrize("name", ["A1", "A2", "B2", "G2", "BC2"])
def test_facet_of_partition(name):
    """Every rational point lands in exactly one relative interior."""
    sys = builtin_system(name)
    pts = []
    for i in range(-2, 3):
        for j in range(-2, 3):
            pts.append((Fraction(i), Fraction(j, 2))[: sys.ambient_dim])
    for p in pts:
        c = sys.cone_by_signs(linalg.sign_vector(sys.hyperplanes, p))
        for i, h in enumerate(sys.hyperplanes):
            v = linalg.dot(h, p)
            s = 0 if v == 0 else (1 if v > 0 else -1)
            assert c.signs[i] == s


def test_parabolic_order_a1():
    sys = builtin_system("A1")
    full = sys.full_cone()
    for ch in sys.chambers:
        assert sys.parabolic_leq(ch, full.index)
        assert not sys.parabolic_leq(full.index, ch)
    assert sys.cones_below(full.index) == [c.index for c in sys.cones]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_parabolic_order_is_a_partial_order(name):
    sys = builtin_system(name)
    idx = [c.index for c in sys.cones]
    for p in idx:
        assert sys.parabolic_leq(p, p)
    for p in idx:
        for q in idx:
            if p != q and sys.parabolic_leq(p, q) and sys.parabolic_leq(q, p):
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


def test_chamber_simple_pairs_count():
    sys = builtin_system("A2")
    for ch in sys.chambers:
        pairs = sys.chamber_simple_pairs(ch)
        assert len(pairs) == sys.rank
        for a, av in pairs:
            assert linalg.dot(a, av) == 2


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
            for a, av in sys.cone_simple_pairs(c.index):
                got = restricted_coroot(sys, c.index, a)
                assert got == av

    def test_bc_halving(self):
        # in the non-reduced system the doubled root restricts with the
        # halved coroot
        sys = builtin_system("BC2")
        checked = 0
        for ch in sys.chambers:
            for a, av in sys.cone_simple_pairs(ch):
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
        zero = sys.zero_roots(small.index)[0]
        with pytest.raises(ValueError):
            restricted_coroot(sys, small.index, zero)


class TestValidation:
    def test_bad_pairing(self):
        with pytest.raises(ValueError):
            RestrictedRootSystem(1, [(1,), (-1,)], [(1,), (-1,)], [0])

    def test_asymmetric_roots(self):
        with pytest.raises(ValueError):
            RestrictedRootSystem(1, [(2,)], [(1,)], [0])

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
    for bad in ([1.5, 1], [True, 1], "1,2", [1, "1/0"]):
        with pytest.raises(ValueError, match="not a rational vector"):
            _parse_vec(bad, 2)
    with pytest.raises(ValueError, match="expected a point with 2 coordinates, got 3"):
        _parse_vec([f, 1, 2], 2)
