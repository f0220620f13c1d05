"""The chamber tables read off the Weyl group's permutations of the roots,
against the per-cone formulas they replaced.

``RestrictedRootSystem.walls`` (the neighbour of P = w(C) across its i-th wall
is the chamber of w s_i), read as (p, q, root, coroot) rows by
``root_oracle.wall_pairs``, is compared with the scan of the induced fan,
``root_oracle.induced_walls``, and with a flip of one hyperplane's sign.
``chamber_duals`` (integer rows over one denominator, read here as Fractions),
``facet_rows`` and ``families.support_bound_certificate`` (one inverse Cartan
matrix moved by w_P) are compared with what the literal
``root_oracle.dual_basis(P, G)`` gives chamber by chamber, and ``volume_weights`` (each
chamber's coroot product read at w_P's root indices) with the per-chamber
Fraction table of ``volume_oracle.volume_weights``.
"""

import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest

from galpairs import linalg, root_data
from galpairs.families import support_bound_certificate
from galpairs.root_data import BUILTIN_NAMES
import volume_oracle
import root_oracle
from root_oracle import induced_walls
from support_oracle import sup_norm

# entries <a_i, a_j^vee>, as in tests/test_fan_permutations.py
_CARTAN = {
    **root_data._CARTAN,
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
    "D4": [[2, -1, 0, 0], [-1, 2, -1, -1], [0, -1, 2, 0], [0, -1, 0, 2]],
    "B4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]],
}
# rank one in dimension two: a system with a center
_CENTERED = {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}
# rational root data: B2 with its short roots halved, whose tables have common denominators
_B2_HALF = json.loads((Path(__file__).parent / "fixtures" / "b2_half.json").read_text())
NAMES = BUILTIN_NAMES + ("BC3", "centered", "B3", "C3", "A4", "D4", "B4", "B2-half")
# the induced-fan scan compares every pair of chambers: 1.2 s on B4 (0.3 s on D4),
# so B4's wall table is checked against the sign flips only
SLOW_SCAN = ("B4",)


@functools.cache
def _build(name):
    if name == "centered":
        return root_data.system_from_dict(_CENTERED)
    if name == "B2-half":
        return root_data.system_from_dict(_B2_HALF)
    if name.startswith("BC"):
        return root_data._bc_system(int(name[2:]), name)
    return root_data._from_cartan(_CARTAN[name], name)


def flip_walls(sys):
    """(p, q, root, coroot) for chambers p < q whose signs differ on one hyperplane,
    with the simple pair of p proportional to it: one sign flip per (P, hyperplane)."""
    index = {c.signs: c.index for c in sys.cones}
    table = []
    for p in sys.chambers:
        signs = sys.cones[p].signs
        for h, a in enumerate(sys.hyperplanes):
            q = index.get(signs[:h] + (-signs[h],) + signs[h + 1 :], -1)
            if p < q:
                pairs = root_oracle.chamber_simple_pairs(sys, p)
                along = [pair for pair in pairs if root_oracle.proportionality(pair[0], a) is not None]
                assert len(along) == 1
                table.append((p, q, *along[0]))
    return sorted(table, key=lambda row: row[:2])


def dual_basis_rows(sys):
    """``facet_rows`` as built before: each chamber's ``dual_basis(P, G)``."""
    g = sys.full_cone().index
    rows = {}
    for i, p in enumerate(sys.chambers):
        for w in root_oracle.dual_basis(sys, p, g):
            rows.setdefault(linalg.scale_to_integers(w), []).append(i)
    return list(rows.items())


def dual_basis_certificate(sys):
    """``support_bound_certificate`` as written before, per chamber through
    the literal ``cone_simple_pairs``, ``vanishing_indices`` and ``dual_basis``."""
    g = sys.full_cone().index
    best = Fraction(0)
    basis = [linalg.vec(b) for b in sys.lattice.basis]
    for c in sys.chambers:
        pairs = root_oracle.cone_simple_pairs(sys, c)
        total = Fraction(0)
        vanishing = [pairs[i] for i in root_oracle.vanishing_indices(sys, c, g)]
        for (a, av), w in zip(vanishing, root_oracle.dual_basis(sys, c, g)):
            av_c = linalg.coordinates_in_basis(basis, av)
            total += sup_norm(av_c) * sum(abs(x) for x in w) * max(sup_norm(b) for b in basis)
        best = max(best, total)
    return best * sys.ambient_dim


@pytest.mark.parametrize("name", NAMES)
def test_walls_match_sign_flips(name):
    sys = _build(name)
    assert root_oracle.wall_pairs(sys) == flip_walls(sys)
    assert len(sys.walls) == len(sys.chambers) * sys.rank // 2


@pytest.mark.parametrize("name", [n for n in NAMES if n not in SLOW_SCAN])
def test_walls_match_induced_fan(name):
    sys = _build(name)
    assert root_oracle.wall_pairs(sys) == induced_walls(sys, sys.base_chamber)


@pytest.mark.parametrize("name", NAMES)
def test_chamber_duals_match_dual_basis(name):
    sys = _build(name)
    g = sys.full_cone().index
    duals, den = sys.chamber_duals
    assert list(duals) == sys.chambers and den > 0
    for p in sys.chambers:
        assert [tuple(Fraction(x, den) for x in row) for row in duals[p]] == root_oracle.dual_basis(sys, p, g)
    assert sys.facet_rows == dual_basis_rows(sys)


@pytest.mark.parametrize("name", NAMES)
def test_support_bound_matches_dual_basis(name):
    sys = _build(name)
    assert support_bound_certificate(sys) == dual_basis_certificate(sys) > 0


@pytest.mark.parametrize("name", NAMES)
def test_volume_weights_match_per_chamber_coroots(name):
    sys = _build(name)
    if sys.rank < sys.ambient_dim:  # "centered": the roots span one dimension of two
        for table in (lambda: sys.volume_weights, lambda: volume_oracle.volume_weights(sys)):
            with pytest.raises(ValueError, match="full rank"):
                table()
        return
    assert sys.volume_weights == volume_oracle.volume_weights(sys)
