"""The literal indicator formulas, kept as the oracle of the compiled kernel.

``galpairs.families`` evaluates the alternating kernel from integer tables
compiled once per system.  These functions are the formulas it replaces,
written as the paper states them: every indicator re-reads h and takes its
rational dot products directly, and Y_Q is Y projected by the Levi projection
of Q.  The per-cone data they read is the literal one of ``root_oracle``, which
shares no code with the compile.  ``one_pass_tables`` is the compile written pair by pair over the face
poset, the oracle of ``KernelTables``, which compiles pairs of standard faces
and moves them over the Weyl group.  ``parabolic_leq`` is the face order they
are written in, read off the cones' sign vectors.  They are slow and only the
tests call them.
"""

from __future__ import annotations

from typing import Sequence

from galpairs import linalg
from galpairs.families import OrthogonalSet
from galpairs.linalg import Vec
from galpairs.root_data import RestrictedRootSystem, _parse_vec
from root_oracle import (
    chamber_below,
    cone_simple_pairs,
    dual_basis,
    levi_projection,
    vanishing_indices,
    zero_roots,
)


def parabolic_leq(sys: RestrictedRootSystem, p: int, q: int) -> bool:
    """True when the cone q is a face of the closure of the cone p.

    In the parabolic dictionary this is containment P <= Q: smaller cones
    correspond to larger parabolic subgroups.
    """
    sp = sys.cones[p].signs
    sq = sys.cones[q].signs
    for a, b in zip(sp, sq):
        if a == 0 and b != 0:
            return False
        if b != 0 and b != a:
            return False
    return True


def cones_below(sys: RestrictedRootSystem, q: int) -> list[int]:
    """All cones R with R <= Q in the parabolic order (q a face of cl R)."""
    return [c.index for c in sys.cones if parabolic_leq(sys, c.index, q)]


def projected(y: OrthogonalSet, cone: int) -> Vec:
    """Y_Q: Y projected onto the span of the cone (independent of the chamber)."""
    sys = y.system
    point = y.points[chamber_below(sys, cone)]
    if sys.cones[cone].dim < sys.ambient_dim:  # a chamber's projection is the identity
        point = linalg.matvec(levi_projection(sys, cone), point)
    return point


def one_pass_tables(sys: RestrictedRootSystem) -> tuple[list[tuple[int, ...]], list]:
    """(covectors, compiled) as in ``KernelTables``, each (r, q) pair computed on its own."""
    ids: dict[tuple[int, ...], int] = {}

    def cids(covectors) -> list[int]:
        return [ids.setdefault(linalg.scale_to_integers(c), len(ids)) for c in covectors]

    def tau_ids(p: int, q: int) -> list[int]:
        pairs = cone_simple_pairs(sys, p)
        return cids(pairs[i][0] for i in vanishing_indices(sys, p, q))

    g, dims = sys.full_cone().index, [c.dim for c in sys.cones]
    compiled = []
    for q in range(len(sys.cones)):
        below, table = cones_below(sys, q), []
        for r in below:
            terms = [
                (tau_ids(r, rr), cids(dual_basis(sys, rr, q)), (-1) ** ((dims[rr] - dims[q]) % 2))
                for rr in below
                if parabolic_leq(sys, r, rr)
            ]
            table.append((r, cids(zero_roots(sys, r)), terms))
        compiled.append((tau_ids(q, g), table))
    return list(ids), compiled


def tau(sys: RestrictedRootSystem, p: int, q: int, h: Sequence) -> int:
    """1 when every simple root of p that lies in the Levi of q is positive at h."""
    if not parabolic_leq(sys, p, q):
        raise ValueError("tau requires p <= q in the parabolic order")
    hv = _parse_vec(h, sys.ambient_dim)
    pairs = cone_simple_pairs(sys, p)
    for i in vanishing_indices(sys, p, q):
        if linalg.dot(pairs[i][0], hv) <= 0:
            return 0
    return 1


def tau_hat(sys: RestrictedRootSystem, p: int, q: int, h: Sequence) -> int:
    """1 when every dual-basis covector of (p, q) is positive at h."""
    if not parabolic_leq(sys, p, q):
        raise ValueError("tau_hat requires p <= q in the parabolic order")
    hv = _parse_vec(h, sys.ambient_dim)
    for w in dual_basis(sys, p, q):
        if linalg.dot(w, hv) <= 0:
            return 0
    return 1


def delta(sys: RestrictedRootSystem, r: int, h: Sequence) -> int:
    """1 exactly when h lies in the linear span of the cone r."""
    hv = _parse_vec(h, sys.ambient_dim)
    for a in zero_roots(sys, r):
        if linalg.dot(a, hv) != 0:
            return 0
    return 1


def gamma_cone_pair(sys: RestrictedRootSystem, p: int, q: int, h: Sequence, x: Sequence) -> int:
    """Alternating sum over p <= R <= q of tau^R_p(h) * tau_hat^q_R(h - x)."""
    if not parabolic_leq(sys, p, q):
        raise ValueError("gamma requires p <= q in the parabolic order")
    hv = _parse_vec(h, sys.ambient_dim)
    hmx = linalg.vsub(hv, _parse_vec(x, sys.ambient_dim))
    total = 0
    dim_q = sys.cones[q].dim
    for r in [c for c in cones_below(sys, q) if parabolic_leq(sys, p, c)]:
        if tau(sys, p, r, hv) == 0:
            continue
        if tau_hat(sys, r, q, hmx) == 0:
            continue
        total += (-1) ** ((sys.cones[r].dim - dim_q) % 2)
    return total


def gamma_family(sys: RestrictedRootSystem, q: int, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over cones R <= q whose span contains h of the kernel at Y's projection."""
    hv = _parse_vec(h, sys.ambient_dim)
    total = 0
    for r in cones_below(sys, q):
        if delta(sys, r, hv) == 0:
            continue
        total += gamma_cone_pair(sys, r, q, hv, projected(y, r))
    return total


def partition_of_unity_value(sys: RestrictedRootSystem, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over all cones Q of gamma_family * tau^G_Q(h - Y_Q); must be 1."""
    hv = _parse_vec(h, sys.ambient_dim)
    g = sys.full_cone().index
    total = 0
    for cone in range(len(sys.cones)):
        if tau(sys, cone, g, linalg.vsub(hv, projected(y, cone))) == 0:
            continue
        total += gamma_family(sys, cone, hv, y)
    return total
