"""The Fraction orthogonal-set layer, kept as the oracle of ``families.OrthogonalSet``.

``OrthogonalSet`` stores a set as integer rows in chamber order over one
denominator and builds, adds, translates and validates it in integers.  These
are the formulas it replaced, on dicts chamber -> Fraction point:

* ``special``: Y_P = w_P(x), one Fraction ``matvec`` of ``chamber_weyl(P)`` per chamber;
* ``add`` and ``translate``: chamber by chamber ``root_oracle.vadd``;
* ``validate``: each wall's Fraction difference against its coroot by
  ``root_oracle.proportionality``, with the error text of the library;
* ``integral``: the points cleared to integers over their least denominator;
* ``volume_polytope``: the chamber points in Fraction lattice coordinates
  (``support_oracle.lattice_coords``), cleared once, under hull rows paired with the basis in
  Fractions.

Two helpers on ``OrthogonalSet`` itself are here because only tests read them: ``zero``,
the set whose every point is 0, and ``wall_coefficients``, the rational r of each wall
read off the integers its validation keeps.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from galpairs import families, linalg
from galpairs.root_data import _parse_vec
from hull_oracle import triangulated_volume
from root_oracle import chamber_weyl, proportionality, vadd, wall_pairs
from support_oracle import lattice_coords

Points = dict[int, tuple[Fraction, ...]]


def special(sys, x: Sequence) -> Points:
    xv = _parse_vec(x, sys.ambient_dim)
    return {c: linalg.matvec(chamber_weyl(sys, c), xv) for c in sys.chambers}


def add(a: Points, b: Points) -> Points:
    return {c: vadd(a[c], b[c]) for c in a}


def translate(points: Points, v: Sequence) -> Points:
    vv = _parse_vec(v, len(next(iter(points.values()))))
    return {c: vadd(p, vv) for c, p in points.items()}


def validate(sys, points: Points) -> dict[tuple[int, int], Fraction]:
    """The wall coefficients, both ways round; ValueError at the first wall that fails."""
    out = {}
    for p, q, _, coroot in wall_pairs(sys):
        diff = linalg.vsub(points[p], points[q])
        r = proportionality(diff, coroot)
        if r is None:
            raise ValueError(
                f"chambers {p}, {q}: point difference {linalg.vec_str(diff)} is not a multiple "
                f"of the wall coroot {linalg.vec_str(coroot)}"
            )
        out[(p, q)] = out[(q, p)] = r
    return out


def integral(sys, points: Points) -> tuple[list[tuple[int, ...]], int]:
    return linalg.integer_basis([points[c] for c in sys.chambers])


def volume_polytope(sys, points: Points) -> Fraction:
    """The pulling triangulation over the lattice coordinates N / e of the chamber points and
    the rows <c, basis> . m <= min over the row's chambers of <c, Y_P>, all in Fractions."""
    if any(r < 0 for r in validate(sys, points).values()):
        raise ValueError("polytope volume requires a positive orthogonal set")
    basis = sys.lattice.basis
    n, e = linalg.integer_basis(lattice_coords(sys, [points[c] for c in sys.chambers]))
    rows = [
        (tuple(linalg.dot(c, b) for b in basis), min(linalg.dot(c, points[sys.chambers[i]]) for i in pos) * e)
        for c, pos in sys.facet_rows
    ]
    return triangulated_volume(n, rows) / e ** len(basis)


def zero(sys) -> families.OrthogonalSet:
    """The set Y_P = 0 at every chamber, as rows of zeros over 1."""
    return families.OrthogonalSet(sys, integral=([(0,) * sys.ambient_dim] * len(sys.chambers), 1))


def wall_coefficients(y: families.OrthogonalSet) -> dict[tuple[int, int], Fraction]:
    """(P, P') -> r with Y_P - Y_P' = r * coroot, both ways round: t c / (e K[m]^2), with t per
    wall of ``OrthogonalSet._wall_values`` and, per row (i, j, k, m) of ``walls``, K the row of
    ``integral_coroots`` (over c) of root k."""
    sys, e = y.system, y._integral[1]
    (coroots, c), out = sys.integral_coroots, {}
    for (i, j, k, m), t in zip(sys.walls, y._wall_values):
        p, q = sys.chambers[i], sys.chambers[j]
        out[(p, q)] = out[(q, p)] = Fraction(t * c, e * coroots[k][m] ** 2)
    return out


def from_support(sys, support: Sequence, center: Sequence = ()) -> families.OrthogonalSet:
    """The set whose point Y_P meets <c, Y_P> = support[m] on each covector c, the m-th of ``facet_rows``,
    that lists P, and <z, Y_P> = center[i] on the i-th covector z that vanishes on every coroot (none
    without a center).  Neighbours P, P' across a wall share every row but the wall's, so Y_P - Y_P' is
    a multiple of its coroot: the set is orthogonal, and positive exactly when the support values are
    those of a deformation of the Weyl permutohedron."""
    rows = {i: [] for i in range(len(sys.chambers))}
    for (c, positions), h in zip(sys.facet_rows, support):
        for i in positions:
            rows[i].append((c, h))
    kernel = [(z, t) for z, t in zip(linalg.nullspace(sys.coroots, ncols=sys.ambient_dim), center)]
    points = {
        p: linalg.solve([c for c, _ in rows[i] + kernel], [h for _, h in rows[i] + kernel])
        for i, p in enumerate(sys.chambers)
    }
    return families.OrthogonalSet(sys, points)


def random_positive_set(rng, sys, spread: int = 3, tries: int = 1000) -> families.OrthogonalSet:
    """A positive set drawn by its support values, not only a sweep: the support values of special(x) at a
    dominant x with simple-root values in 0..spread, each raised by a draw in 0..spread, and the center
    values in -spread..spread, redrawn until the set is positive.  Some draws are special sets, and some
    have a zero wall."""
    simple = [sys.roots[i] for i in sys.simple_indices]
    for _ in range(tries):
        x = linalg.solve(simple, [rng.randint(0, spread) for _ in simple])
        base = families.OrthogonalSet.special(sys, x).points
        support = [
            min(linalg.dot(c, base[sys.chambers[i]]) for i in positions) + rng.randint(0, spread)
            for c, positions in sys.facet_rows
        ]
        center = [rng.randint(-spread, spread) for _ in range(sys.ambient_dim - sys.rank)]
        if (y := from_support(sys, support, center)).is_positive:
            return y
    raise RuntimeError("could not draw a positive orthogonal set")
