"""Brute-force hull helpers: the literal cofactor normal and a hull's volume.

The library reads a hull facet's normal off one fraction-free elimination
(``linalg._bareiss``).  ``cofactor_normal`` is the formula it replaces: the
vector of signed maximal minors, each minor by first-row expansion.  It costs
O(k!) per minor, so only the tests call it.

``triangulated_volume`` sums |det| over the library's one pulling triangulation
(``families.pulling_simplices``) of any integer points under rows that include
every facet, with the points in lexicographic order; the library runs that
triangulation once per system, over one reference set, and reads every positive
set's volume off its simplices (``families.hull_simplices``).  ``hull_volume``
runs it over the facets that the brute-force ``families.Hull`` finds.

``hull_rows`` reads a positive set's hull off the fan as integer rows in the
normalization lattice's basis, and ``hull_rows_in`` in a basis of the caller's
choice: the rows of the fan paired with it by ``families._pairing``, which the
library's counts read through ``families.CountPlan``.  No command or benchmark
reads the rows by themselves, so they live here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from galpairs import linalg
from galpairs.families import Hull, OrthogonalSet, _pairing, _simplex_det, pulling_simplices
from galpairs.root_data import _parse_vec


def triangulated_volume(
    vertices: Sequence[tuple[int, ...]], rows: Sequence[tuple[tuple[int, ...], int]]
) -> Fraction:
    """Euclidean volume of the convex hull of integer points, given integer rows a . x <= b that hold at
    every point and include a row for every facet: |det| summed over the pulling triangulation of the
    points in lexicographic order, over d!.  A hull of affine rank below d has volume 0."""
    pts = sorted(set(vertices))
    dim = len(pts[0])
    if len(linalg._bareiss([linalg.vsub(p, pts[0]) for p in pts[1:]])[0]) < dim:  # the rank
        return Fraction(0)
    return Fraction(sum(abs(_simplex_det(pts, s)) for s in pulling_simplices(pts, rows)), math.factorial(dim))


def hull_volume(hull: Hull) -> Fraction:
    """Volume of a brute-force hull, in the coordinates its points were given in."""
    return triangulated_volume(hull.vertices, hull.facets) / hull.scale**hull.dim


def hull_rows(y: OrthogonalSet) -> list[tuple[tuple[int, ...], int]]:
    """Integer rows (a, b) with hull(Y) = {sum m_i basis_i : a . m <= b for every row}, the basis the
    normalization lattice's.

    Read off the fan for a positive set Y: <c, H> <= <c, Y_P> for every chamber P and every covector c
    of ``RestrictedRootSystem.facet_rows``, keeping the least bound of each covector.  The kernel is not
    built.  A set that is not positive is refused.
    """
    return hull_rows_in(y, y.system.lattice.basis)


def hull_rows_in(y: OrthogonalSet, basis: Sequence[Sequence]) -> list[tuple[tuple[int, ...], int]]:
    """Integer rows (a, b) with hull(Y) = {sum m_i basis_i : a . m <= b for every row}, for a positive
    set Y, each basis vector read by ``_parse_vec`` with the ambient dimension."""
    if not y.is_positive:
        raise ValueError("hull rows from the fan require a positive orthogonal set")
    sys, den = y.system, y._integral[1]
    pairing, e = _pairing(sys, [_parse_vec(b, sys.ambient_dim) for b in basis])
    return [(tuple(x * den for x in row), min(v) * e) for row, v in zip(pairing, y._facet_values)]


def cofactor_normal(rows: list[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive integer normal to n - 1 integer vectors in n-space, from their
    signed maximal minors, first nonzero entry positive; None if they are dependent."""
    minors = [(-1) ** j * int_det([r[:j] + r[j + 1:] for r in rows]) for j in range(len(rows) + 1)]
    g = math.gcd(*minors)
    if g == 0:
        return None
    if minors < [0] * len(minors):
        g = -g
    return tuple(x // g for x in minors)


def int_det(m: Sequence[Sequence[int]]) -> int:
    """Determinant of a small square integer matrix, by first-row expansion."""
    if len(m) <= 1:
        return m[0][0] if m else 1
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            total += (-1) ** j * x * int_det([r[:j] + r[j + 1:] for r in m[1:]])
    return total
