"""The compiled hull triangulation and the plane sweep on general positive sets.

``sampling.random_positive_set`` draws special sets only, W-orbits of one point.
``set_oracle.random_positive_set`` draws a set by its support values on
``facet_rows``, so most draws are no sweep, and many have a zero wall.  On them
``volume_polytope``, the signed sum over the triangulation that
``RestrictedRootSystem.hull_simplices`` compiles once per system, must equal
``set_oracle.volume_polytope``, the pulling triangulation of the set's own hull
rows in Fractions, and the brute-force ``Hull``'s volume; the fast count must
equal the kernel at every box point (``exact=True``).  The systems are the
built-ins and three fixtures: a coarse lattice, rational root data and a center,
whose hulls have volume 0.
"""

import random
from fractions import Fraction
from pathlib import Path

import pytest

import set_oracle
from galpairs import linalg
from galpairs.families import Hull, OrthogonalSet, v_tilde_lattice, volume_analytic, volume_polytope
from galpairs.root_data import BUILTIN_NAMES, resolve_system
from hull_oracle import hull_volume

FIXTURES = Path(__file__).parent / "fixtures"
SYSTEMS = [*BUILTIN_NAMES, *(str(FIXTURES / f"{name}.json") for name in ("a2_lattice2", "b2_half", "a1_dim2"))]
# G2's draws are mostly refused, and A3's brute-force hull searches C(24, 3) point triples
DRAWS = {"A3": 6, "G2": 8}


def _id(spec):
    return Path(spec).stem


def _is_special(y):
    sys = y.system
    return OrthogonalSet.special(sys, y.points[sys.base_chamber]).points == y.points


def _sets(sys, seed):
    """General positive draws, a sweep of a point on a wall, and the zero set."""
    rng = random.Random(seed)
    draws = [set_oracle.random_positive_set(rng, sys) for _ in range(DRAWS.get(sys.name, 16))]
    wall = linalg.solve([sys.roots[i] for i in sys.simple_indices], [0] + [1] * (sys.rank - 1))
    return draws + [OrthogonalSet.special(sys, wall), set_oracle.zero(sys)]


@pytest.mark.parametrize("spec", SYSTEMS, ids=_id)
def test_the_generator_draws_general_positive_sets(spec):
    sys = resolve_system(spec)
    draws = _sets(sys, 7)[:-2]
    assert all(y.is_positive for y in draws)
    assert any(not _is_special(y) for y in draws)
    assert any(0 in y._wall_values for y in draws)
    assert any(0 not in y._wall_values for y in draws)


@pytest.mark.parametrize("spec", SYSTEMS, ids=_id)
def test_volume_matches_its_oracles_on_general_sets(spec):
    sys = resolve_system(spec)
    covolume = abs(linalg.det(sys.lattice.basis))
    full = sys.rank == sys.ambient_dim
    for y in _sets(sys, 11):
        v = volume_polytope(y)
        assert v == set_oracle.volume_polytope(sys, y.points), y.points
        assert v == hull_volume(Hull(list(y.points.values()))) / covolume, y.points
        assert v == (volume_analytic(y) if full else 0), y.points


@pytest.mark.parametrize("spec", SYSTEMS, ids=_id)
def test_fast_count_matches_the_kernel_on_general_sets(spec):
    # the kernel runs at every box point: A3's boxes are counted in the lattice itself, once per kind of set
    sys = resolve_system(spec)
    small = sys.rank < 3
    basis = [linalg.vscale(Fraction(1, 2 if small else 1), b) for b in sys.lattice.basis]
    simple = [sys.roots[i] for i in sys.simple_indices]
    x0 = linalg.solve(simple, [1] * sys.rank)
    sets = _sets(sys, 13)
    for y in sets[: 2 if small else 1] + sets[-2:]:
        for j in (0, 1):
            assert v_tilde_lattice(y, basis, j, x0) == v_tilde_lattice(y, basis, j, x0, exact=True), (y.points, j)
