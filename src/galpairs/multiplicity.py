"""Character identities of elementary two-groups.

Characters of (Z/2)^m are encoded as bitmasks chi, with value
(-1)^popcount(chi & e) at the group element e.  The two headline computations
are ``verify_prasad_identity``, the alternating sum of character sums over the
subgroup family A_I, which collapses to the single product character omega
and is computed by one superset-sum transform; and ``steinberg_multiplicity``,
the alternating elliptic-Levi sum, read off one GF(2) elimination of B's
generators per subset of their support and compared to the omega indicator
by the caller or tests.  The literal loops they replace are the oracle in
``tests/prasad_oracle.py``.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Sequence

from .presets import ThetaPreset, restriction_echelon
# no longer called here, but kept as an attribute: the benchmark's tracer wraps
# multiplicity.enumerate_elliptic_levis by name
from .presets import enumerate_elliptic_levis  # noqa: F401


def character_value(chi: int, element: int) -> int:
    """Value of the character chi at the group element (both bitmasks)."""
    return -1 if (chi & element).bit_count() & 1 else 1


# -- the collapsing identity ----------------------------------------------------


@dataclass
class PrasadIdentityCertificate:
    m: int
    ok: bool
    coefficients: dict[int, int]  # chi -> coefficient of the alternating sum
    expected: dict[int, int]


def omega_mask(m: int) -> int:
    """The product character: value (-1)^(number of nonzero coordinates)."""
    return (1 << m) - 1


def superset_sums(values: Sequence[int]) -> list[int]:
    """out[S] = sum of values[I] over every I containing S, for 2^m values.

    One pass per bit, m * 2^m additions in all (Yates 1937): a pass adds the
    upper half (top bit set) into the lower half, then perfect-shuffles the
    indices, which rotates them one bit left and brings the next bit to the
    top; after m passes every index is back in place.
    """
    out = list(values)
    half = len(out) // 2
    for _ in range(len(out).bit_length() - 1):
        lo, hi = out[:half], out[half:]
        out[0::2] = map(operator.add, lo, hi)
        out[1::2] = hi
    return out


def verify_prasad_identity(m: int) -> PrasadIdentityCertificate:
    """Check that
    sum over I of (-1)^(m-|I|) * (sum of characters trivial on A_I) = omega,
    where A_I is the coordinate subgroup on the complement of I.

    A character is trivial on A_I exactly when its support lies in I, so the
    coefficient of chi is the alternating superset sum over I containing
    supp(chi), which vanishes unless supp(chi) is everything.  Every
    coefficient is compared with that expectation.
    """
    signs = [1]  # (-1)^(r-|I|) over the subsets I of the first r bits
    for _ in range(m):
        signs = [-s for s in signs] + signs
    coefficients = dict(enumerate(superset_sums(signs)))
    full = omega_mask(m)
    expected = {chi: (1 if chi == full else 0) for chi in range(1 << m)}
    ok = all(coefficients[chi] == expected[chi] for chi in range(1 << m))
    return PrasadIdentityCertificate(m, ok, coefficients, expected)


# -- omega and the Steinberg sum -------------------------------------------------


def characters_equal_on_subgroup(chi1: int, chi2: int, generators: Sequence[int]) -> bool:
    return all(character_value(chi1 ^ chi2, g) == 1 for g in generators)


def distinct_b_characters(preset: ThetaPreset) -> list[int]:
    """Ambient-mask representatives of the distinct characters of B: the least
    mask with each tuple of values on B's generators."""
    reps: dict[tuple[int, ...], int] = {}
    for chi in range(1 << preset.m):
        reps.setdefault(tuple(character_value(chi, g) for g in preset.b_generators), chi)
    return list(reps.values())


def steinberg_multiplicity(preset: ThetaPreset, chi_b: int) -> int:
    """The alternating elliptic-Levi sum
    sum over I of sign(I) * ker1_size(I) * [chi_b trivial on B intersect A_I].
    ``chi_b`` is an ambient bitmask read as a character of B by restriction.

    An elimination of B's generators restricted to I gives the rank r of
    their restriction, so ker1_size(I) = 2^(|I| - r), and generators of
    B intersect A_I to test chi_b on.  Both depend only on K = I & S, for S
    the support of B's generators, so write I = K + J with J inside the
    complement of S, m - |S| bits.  With sign(I) = (-1)^(m - |K| - |J|),
    the sum is
        sum over K of [chi_b trivial on B intersect A_K] * (-1)^(m - |K|) * 2^(|K| - r(K))
        times sum over J of (-1)^|J| * 2^|J|,
    and the second factor is (1 - 2)^(m - |S|) = (-1)^(m - |S|) by the
    binomial theorem.  So one elimination per submask K of S gives the whole
    sum: a single term for the unitary presets, whose B is trivial.  The sum
    over every I and all of B, as written, is
    ``tests/prasad_oracle.py::steinberg_multiplicity``.
    """
    m = preset.m
    if chi_b < 0 or chi_b >= (1 << m):
        raise ValueError("chi_b is not a character mask of the ambient two-group")
    generators = preset.b_generators
    support = functools.reduce(operator.or_, generators, 0)
    total, key = 0, support
    while True:  # every submask K of the support, from the support down to 0
        rank, vanishing = restriction_echelon(generators, key)
        if all(character_value(chi_b, x) == 1 for x in vanishing):
            size = key.bit_count()
            total += (-1) ** (m - size) << (size - rank)
        if not key:
            break
        key = (key - 1) & support
    return (-1) ** (m - support.bit_count()) * total


def steinberg_indicator(preset: ThetaPreset, chi_b: int) -> int:
    """The predicted value: 1 when chi_b agrees with omega on B, else 0."""
    m = preset.m
    return 1 if characters_equal_on_subgroup(chi_b, omega_mask(m), preset.b_generators) else 0
