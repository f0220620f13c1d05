"""``volume_polytope`` triangulates the hull rows read off the fan.

Its references are the same triangulation over the facets that the
brute-force ``Hull`` finds from vertex subsets (``hull_oracle.hull_volume``),
and ``volume_analytic``, the chamber exponential sum.
"""

import random
from itertools import product

import pytest

from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import Hull, OrthogonalSet, volume_analytic, volume_polytope
from galpairs.root_data import BUILTIN_NAMES, _from_cartan, builtin_system
from hull_oracle import hull_volume
import set_oracle
from support_oracle import lattice_coords


def _sweep(sys, targets):
    """special(x) with <a_i, x> = targets[i] on the simple roots a_i."""
    simple = [sys.roots[i] for i in sys.simple_indices]
    return OrthogonalSet.special(sys, linalg.solve(simple, targets))


def _sets(sys, seed):
    """Random positive sets, every sweep with <a_i, x> in {0, 1, 2} (singular
    ones and the zero set special(0) included), translations of the first
    four, and a translated zero set, which is a point hull."""
    rng = random.Random(seed)
    r = sys.ambient_dim
    out = [sampling.random_positive_set(rng, sys) for _ in range(3)]
    out += [_sweep(sys, t) for t in product(range(3), repeat=r)]
    out += [y.translate(sampling.sample_rational_point(rng, r, 6, 3)) for y in out[:4]]
    out.append(set_oracle.zero(sys).translate(sampling.sample_rational_point(rng, r, 4, 2)))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fan_rows_volume_matches_brute_force_hull_and_analytic(name):
    sys = builtin_system(name)
    volumes = set()
    for y in _sets(sys, 81):
        brute = hull_volume(Hull(lattice_coords(sys, list(y.points.values()))))
        v = volume_polytope(y)
        assert v == brute == volume_analytic(y), y.points
        volumes.add(v)
    assert 0 in volumes and len(volumes) > 2


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_volume_runs_no_facet_search(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("volume_polytope searched for facets")

    monkeypatch.setattr(fam, "Hull", refuse)
    monkeypatch.setattr(Hull, "_find_facets", refuse)
    monkeypatch.setattr(fam, "_cofactor_normal", refuse)
    sys = builtin_system(name)
    for y in _sets(sys, 83):
        assert volume_polytope(y) == volume_analytic(y), y.points


# Cartan matrices with entries <a_i, a_j^vee>; the brute-force hull is out of
# reach here (C(48, 3) subsets for B3 and C3, C(120, 4) for A4).
_RANK_3_AND_4 = {
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
    "A4": [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]],
}


@pytest.mark.parametrize("name", ["B3", "C3"])
def test_rank_three_volume_matches_analytic(name):
    sys = _from_cartan(_RANK_3_AND_4[name], name)
    rng = random.Random(89)
    sets = [sampling.random_positive_set(rng, sys) for _ in range(2)]
    sets += [_sweep(sys, t) for t in ((1, 1, 1), (1, 0, 2), (0, 0, 1), (0, 0, 0))]
    sets.append(sets[0].translate(sampling.sample_rational_point(rng, 3, 6, 3)))
    for y in sets:
        assert volume_polytope(y) == volume_analytic(y), y.points


def test_a4_volume_matches_analytic():
    sys = _from_cartan(_RANK_3_AND_4["A4"], "A4")
    y = _sweep(sys, (1, 2, 1, 3))
    assert volume_polytope(y) == volume_analytic(y) > 0
