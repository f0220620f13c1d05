"""The Fraction support bound, kept as the oracle of the support figures of ``families.check_kernel``.

``check_kernel`` reads the kernel once per point and takes the support bound from the
coroots' normalization-lattice coordinates, one integer table per system
(``RestrictedRootSystem.coroot_lattice_rows``) folded with the base chamber's duals into
one integer matrix.  These are the formulas it replaced, in Fractions:

* ``lattice_coords``: coordinates in the normalization lattice basis, from one elimination;
* ``part``: the part sum_i <varpi_i, h> / D a_i^vee of h in the coroots' span, by
  ``linalg.combination`` over the base chamber's coroots;
* ``support_bound_certificate``: one ``coordinates_in_basis`` solve per chamber and coroot;
* ``support_bound_check``: ``gamma_family`` at every point, a second pass over the points
  after the partition of unity.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from galpairs import linalg
from galpairs.families import SupportBoundReport, gamma_family
from galpairs.root_data import _parse_vec
from root_oracle import chamber_simple_pairs


def lattice_coords(sys, points: Sequence) -> list[tuple[Fraction, ...]]:
    """Coordinates of each point in the normalization lattice basis, from one elimination."""
    basis = sys.lattice.basis
    found = linalg.coordinate_matrix(basis, points) if basis else None
    if found is None:
        raise ValueError("point is outside the span of the normalization lattice")
    cols, d = found
    return [tuple(Fraction(x, d) for x in col) for col in zip(*cols)]


def sup_norm(v: Sequence) -> Fraction:
    return max((abs(x) for x in v), default=Fraction(0))


def support_bound_certificate(sys) -> Fraction:
    """Per chamber, the sup norms of its coroots' lattice coordinates against the l1 norms of its
    dual covectors (``chamber_duals``, integer rows over one denominator D)."""
    basis, (duals, den) = [linalg.vec(b) for b in sys.lattice.basis], sys.chamber_duals
    best = Fraction(0)
    for c in sys.chambers:
        coroots = [linalg.coordinates_in_basis(basis, av) for _, av in chamber_simple_pairs(sys, c)]
        total = sum(sup_norm(av) * sum(map(abs, w)) for av, w in zip(coroots, duals[c]))
        best = max(best, total)
    return best / den * max(map(sup_norm, basis)) * sys.ambient_dim


def support_bound_check(sys, y, points: Sequence[Sequence]) -> SupportBoundReport:
    """Empirically bound |H| / sup|Y_P| over sampled points with nonzero kernel, by their parts
    sum_i <varpi_i, .> a_i^vee in the coroots' span."""
    g, base, (duals, den) = sys.full_cone().index, sys.base_chamber, sys.chamber_duals
    coroots, duals = [av for _, av in chamber_simple_pairs(sys, base)], duals[base]
    part = lambda h: linalg.combination([linalg.dot(w, h) / den for w in duals], coroots, sys.ambient_dim)
    sup_y = max(map(sup_norm, lattice_coords(sys, [part(p) for p in y.points.values()])), default=Fraction(0))
    supported = [_parse_vec(h, sys.ambient_dim) for h in points if gamma_family(sys, g, h, y) != 0]
    c_emp = Fraction(0)
    ok = True
    for hn in map(sup_norm, lattice_coords(sys, list(map(part, supported)))):
        if sup_y == 0:
            if hn != 0:
                ok = False
            continue
        c_emp = max(c_emp, hn / sup_y)
    c_bound = support_bound_certificate(sys)
    if c_emp > c_bound:
        ok = False
    return SupportBoundReport(len(points), len(supported), c_emp, c_bound, ok)
