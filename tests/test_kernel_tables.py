"""The indicator kernel is compiled in one pass per system, apart from the hull
rows and the volume weights.

``RestrictedRootSystem.facet_rows`` and ``volume_weights`` are tables of the
system itself, so no count or volume builds ``kernel_tables``.  An orthogonal
set reads one table of kernel thresholds over every cone, which must hold
whichever kernel call reaches a fresh system first.
"""

import random

import pytest

import kernel_oracle as oracle
from galpairs import families as fam
from galpairs import linalg, root_data, sampling
from galpairs.root_data import BUILTIN_NAMES
from hull_oracle import hull_rows, hull_rows_in


def _fresh(name):
    """The built-in system, built anew by its builder past the cache, so none of its lazy tables exists yet."""
    return root_data.builtin_system.__wrapped__(name)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_counts_and_volumes_build_no_kernel(name):
    sys = _fresh(name)
    y = sampling.random_positive_set(random.Random(101), sys)
    basis = [linalg.vec(b) for b in sys.lattice.basis]
    assert fam.volume_polytope(y) == fam.volume_analytic(y)
    assert hull_rows(y)
    x0 = y.points[sys.base_chamber]  # dominant, so Y + k*Y[x0] stays positive
    assert fam.v_tilde_lattice(y, basis, 1, x0) > 0
    assert "kernel_tables" not in sys.__dict__
    # the probe sees a build: the kernel itself does build the tables
    fam.gamma_family(sys, sys.full_cone().index, x0, y)
    assert "kernel_tables" in sys.__dict__


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("gamma_first", [True, False])
def test_kernel_values_do_not_depend_on_call_order(name, gamma_first):
    """gamma_family at every cone q, from the first (a chamber, whose table
    names the fewest covectors) up to G, then the partition of unity; and the
    reverse order on a second fresh system."""
    sys = _fresh(name)
    rng = random.Random(103)
    sets = [sampling.random_positive_set(rng, sys), sampling.random_nonpositive_set(rng, sys)]
    points = [sampling.sample_rational_point(rng, sys.ambient_dim, 12, 2) for _ in range(2)] + [(0,) * sys.ambient_dim]
    for y in sets:
        steps = [
            lambda mod, h: [mod.gamma_family(sys, q, h, y) for q in range(len(sys.cones))],
            lambda mod, h: mod.partition_of_unity_value(sys, h, y),
        ]
        for step in steps if gamma_first else steps[::-1]:
            for h in points + [y.points[sys.base_chamber]]:
                assert step(fam, h) == step(oracle, h), (h, y.points)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hull_rows_default_to_the_lattice_basis(name):
    sys = _fresh(name)
    y = sampling.random_positive_set(random.Random(107), sys)
    assert hull_rows(y) == hull_rows_in(y, [linalg.vec(b) for b in sys.lattice.basis])
    assert fam.volume_polytope(y) == fam.volume_analytic(y)


def test_hull_rows_in_a_coarser_lattice():
    sys = root_data.system_from_dict(
        {"ambient_dim": 1, "roots": [[1], [-1]], "coroots": [[2], [-2]], "simple_indices": [0],
         "lattice_basis": [[3]]}
    )
    assert fam._pairing(sys, sys.lattice.basis) == (((-3,), (3,)), 1)
    y = fam.OrthogonalSet.special(sys, (2,))
    assert hull_rows(y) == hull_rows_in(y, [(3,)]) == [((-3,), 2), ((3,), 2)]
