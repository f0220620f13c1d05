"""Brute-force hull helpers: the literal cofactor normal and a hull's volume.

The library reads a hull facet's normal off one fraction-free elimination
(``linalg._bareiss``).  ``cofactor_normal`` is the formula it replaces: the
vector of signed maximal minors, each minor by first-row expansion.  It costs
O(k!) per minor, so only the tests call it.

``hull_volume`` runs the library's one triangulation over the facets that
the brute-force ``families.Hull`` finds, where ``volume_polytope`` runs it
over the rows read off the fan.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from galpairs.families import Hull, triangulated_volume


def hull_volume(hull: Hull) -> Fraction:
    """Volume of a brute-force hull, in the coordinates its points were given in."""
    return triangulated_volume(hull.vertices, hull.facets) / hull.scale**hull.dim


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
