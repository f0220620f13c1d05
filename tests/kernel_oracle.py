"""The literal indicator formulas, kept as the oracle of the compiled kernel.

``galpairs.families`` evaluates the alternating kernel from integer tables
compiled once per system.  These functions are the formulas it replaces,
written as the paper states them: every indicator re-reads h and takes its
rational dot products directly.  They are slow and only the tests call them.
"""

from __future__ import annotations

from typing import Sequence

from galpairs import linalg
from galpairs.families import OrthogonalSet
from galpairs.root_data import RestrictedRootSystem, _parse_vec


def tau(sys: RestrictedRootSystem, p: int, q: int, h: Sequence) -> int:
    """1 when every simple root of p that lies in the Levi of q is positive at h."""
    if not sys.parabolic_leq(p, q):
        raise ValueError("tau requires p <= q in the parabolic order")
    hv = _parse_vec(h)
    pairs = sys.cone_simple_pairs(p)
    for i in sys.vanishing_indices(p, q):
        if linalg.dot(pairs[i][0], hv) <= 0:
            return 0
    return 1


def tau_hat(sys: RestrictedRootSystem, p: int, q: int, h: Sequence) -> int:
    """1 when every dual-basis covector of (p, q) is positive at h."""
    if not sys.parabolic_leq(p, q):
        raise ValueError("tau_hat requires p <= q in the parabolic order")
    hv = _parse_vec(h)
    for w in sys.dual_basis(p, q):
        if linalg.dot(w, hv) <= 0:
            return 0
    return 1


def delta(sys: RestrictedRootSystem, r: int, h: Sequence) -> int:
    """1 exactly when h lies in the linear span of the cone r."""
    hv = _parse_vec(h)
    for a in sys.zero_roots(r):
        if linalg.dot(a, hv) != 0:
            return 0
    return 1


def gamma_cone_pair(sys: RestrictedRootSystem, p: int, q: int, h: Sequence, x: Sequence) -> int:
    """Alternating sum over p <= R <= q of tau^R_p(h) * tau_hat^q_R(h - x)."""
    if not sys.parabolic_leq(p, q):
        raise ValueError("gamma requires p <= q in the parabolic order")
    hv = _parse_vec(h)
    hmx = linalg.vsub(hv, _parse_vec(x))
    total = 0
    dim_q = sys.cones[q].dim
    for r in [c for c in sys.cones_below(q) if sys.parabolic_leq(p, c)]:
        if tau(sys, p, r, hv) == 0:
            continue
        if tau_hat(sys, r, q, hmx) == 0:
            continue
        total += (-1) ** ((sys.cones[r].dim - dim_q) % 2)
    return total


def gamma_family(sys: RestrictedRootSystem, q: int, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over cones R <= q whose span contains h of the kernel at Y's projection."""
    hv = _parse_vec(h)
    total = 0
    for r in sys.cones_below(q):
        if delta(sys, r, hv) == 0:
            continue
        total += gamma_cone_pair(sys, r, q, hv, y.projected(r))
    return total


def partition_of_unity_value(sys: RestrictedRootSystem, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over all cones Q of gamma_family * tau^G_Q(h - Y_Q); must be 1."""
    hv = _parse_vec(h)
    g = sys.full_cone().index
    total = 0
    for cone in range(len(sys.cones)):
        if tau(sys, cone, g, linalg.vsub(hv, y.projected(cone))) == 0:
            continue
        total += gamma_family(sys, cone, hv, y)
    return total
