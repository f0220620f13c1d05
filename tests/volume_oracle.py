"""The literal chamber exponential sum, kept as the oracle of ``families.volume_analytic``.

The library computes every chamber weight once per system, as integers over
one denominator (``RestrictedRootSystem.volume_weights``), and clears Y's
denominators once per set.  This is the formula it replaces, evaluated term
by term in Fractions on every call (Lawrence, *Math. Comp.* 1991): for a
generic covector mu,

    vol = sum_P covol(Z[coroots_P]) * <mu, Y_P>^r / (r! * prod <mu, coroot of P>),

with each chamber's own coroot covolume.  Three directions must agree.

``volume_weights`` is the system table as it was computed before it read each
chamber's coroot product off the Weyl permutations: per chamber, the Fraction
coroots of its simple roots and their Fraction pairings with every direction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, islice

from galpairs import linalg
from root_oracle import chamber_simple_pairs


def volume_weights(sys) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(mu, W, D) with W[i] / D = covol(Z[coroots_P]) / (r! * prod <mu, coroot of P>) at the
    i-th chamber P, for the first three mu = (1, j, ..., j^(r-1)) that vanish on no chamber
    coroot: |W| * rank Fraction dot products per mu."""
    r = sys.ambient_dim
    if linalg.rank(sys.roots) != r:
        raise ValueError("analytic volume requires roots of full rank")
    base = [av for _, av in chamber_simple_pairs(sys, sys.base_chamber)]
    meas = abs(linalg.det([linalg.coordinates_in_basis(sys.lattice.basis, v) for v in base]))
    coroots = [[av for _, av in chamber_simple_pairs(sys, c)] for c in sys.chambers]
    mus = (tuple(j**i for i in range(r)) for j in count(1))
    generic = (mu for mu in mus if all(linalg.dot(mu, v) for cs in coroots for v in cs))
    out = []
    for mu in islice(generic, 3):
        dens = [math.factorial(r) * math.prod(linalg.dot(mu, v) for v in cs) for cs in coroots]
        out.append((mu, *linalg.clear_denominators([meas / d for d in dens])))
    return out


def generic_directions(sys, count: int) -> list[tuple[Fraction, ...]]:
    """Covectors (1, j, j^2, ...), j = 1, 2, ..., skipping any that vanish on a chamber coroot."""
    coroots = [av for c in sys.chambers for _, av in chamber_simple_pairs(sys, c)]
    out, j = [], 1
    while len(out) < count:
        mu = linalg.vec([j**i for i in range(sys.ambient_dim)])
        if all(linalg.dot(mu, av) != 0 for av in coroots):
            out.append(mu)
        j += 1
    return out


def volume_analytic(y) -> Fraction:
    sys = y.system
    r = sys.ambient_dim
    if linalg.rank(sys.roots) != r:
        raise ValueError("analytic volume requires roots of full rank")
    values = []
    for mu in generic_directions(sys, 3):
        total = Fraction(0)
        for c in sys.chambers:
            coroots = [av for _, av in chamber_simple_pairs(sys, c)]
            meas = abs(linalg.det([linalg.coordinates_in_basis(sys.lattice.basis, av) for av in coroots]))
            den = Fraction(math.factorial(r))
            for av in coroots:
                den *= linalg.dot(mu, av)
            total += meas * linalg.dot(mu, y.points[c]) ** r / den
        values.append(total)
    if any(v != values[0] for v in values[1:]):
        raise ArithmeticError(f"analytic volume differs across directions: {values}")
    return values[0]
