"""Seeded deterministic sampling of rational points and orthogonal sets.

All randomness goes through ``random.Random`` (the stdlib Mersenne Twister),
so a fixed seed reproduces the exact same rational samples on any platform.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Sequence

from . import linalg
from .families import OrthogonalSet
from .linalg import Vec
from .root_data import RestrictedRootSystem


def sample_rational_point(
    rng: random.Random, dim: int, numerator_bound: int = 30, max_denominator: int = 6
) -> Vec:
    return tuple(
        Fraction(rng.randint(-numerator_bound, numerator_bound), rng.randint(1, max_denominator))
        for _ in range(dim)
    )


def sample_points(rng: random.Random, dim: int, count: int) -> list[Vec]:
    return [sample_rational_point(rng, dim) for _ in range(count)]


def random_dominant_point(rng: random.Random, sys: RestrictedRootSystem) -> Vec:
    """A point of the closed base chamber with nonnegative simple-root values."""
    simple = [sys.roots[i] for i in sys.simple_indices]
    targets = [Fraction(rng.randint(0, 8), rng.randint(1, 3)) for _ in simple]
    x = linalg.solve(simple, targets)
    assert x is not None
    return x


def random_positive_set(rng: random.Random, sys: RestrictedRootSystem) -> OrthogonalSet:
    """special(x) + special(z) = special(x + z) for two dominant points x and z: a special set, the
    W-orbit of one point, always positive.  General positive sets, drawn by their support values, are
    ``tests/set_oracle.py``'s ``random_positive_set``."""
    y = OrthogonalSet.special(sys, random_dominant_point(rng, sys))
    z = OrthogonalSet.special(sys, random_dominant_point(rng, sys))
    out = y.add(z)
    assert out.is_positive
    return out


def random_nonpositive_set(rng: random.Random, sys: RestrictedRootSystem) -> OrthogonalSet:
    """A swept set with at least one negative wall coefficient."""
    for _ in range(200):
        x = sample_rational_point(rng, sys.ambient_dim, numerator_bound=8, max_denominator=3)
        candidate = OrthogonalSet.special(sys, x)
        if not candidate.is_positive:
            return candidate
    raise RuntimeError("could not sample a non-positive orthogonal set")
