"""Exact combinatorics for multiplicity identities of symmetric pairs.

Subpackages:
  * ``exact_linalg``  -- Smith normal form, lattices, Tate-style cohomology
  * ``root_data``     -- restricted root systems and their cone fans
  * ``families``      -- orthogonal sets, indicator kernels, volumes, counts
  * ``presets``       -- diagram presets and elliptic twisted-Levi data
  * ``multiplicity``  -- character identities and the Steinberg multiplicity
  * ``cli``           -- batch verification commands
"""

from .exact_linalg import (
    FiniteAbelianGroup,
    IntLattice,
    LatticeWithAction,
    smith_normal_form,
    tate_h_minus1,
)
from .families import (
    OrthogonalSet,
    gamma_family,
    partition_of_unity_value,
    v_tilde_lattice,
    volume_analytic,
    volume_polytope,
)
from .multiplicity import (
    steinberg_indicator,
    steinberg_multiplicity,
    verify_prasad_identity,
)
from .presets import (
    EllipticLeviDatum,
    ThetaPreset,
    builtin_preset,
    enumerate_elliptic_levis,
    inner_form_fiber_count,
)
from .root_data import RestrictedRootSystem, builtin_system

__all__ = [
    "FiniteAbelianGroup",
    "IntLattice",
    "LatticeWithAction",
    "OrthogonalSet",
    "RestrictedRootSystem",
    "ThetaPreset",
    "EllipticLeviDatum",
    "builtin_preset",
    "builtin_system",
    "enumerate_elliptic_levis",
    "gamma_family",
    "inner_form_fiber_count",
    "partition_of_unity_value",
    "smith_normal_form",
    "steinberg_indicator",
    "steinberg_multiplicity",
    "tate_h_minus1",
    "v_tilde_lattice",
    "verify_prasad_identity",
    "volume_analytic",
    "volume_polytope",
]

__version__ = "0.1.0"
