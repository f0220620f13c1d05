"""Virtual characters of elementary two-groups and multiplicity identities.

Characters of (Z/2)^m are encoded as bitmasks chi, with value
(-1)^popcount(chi & e) at the group element e.  The two headline computations
are ``verify_prasad_identity`` (the alternating sum of character sums over the
subgroup family A_I collapses to the single product character omega) and
``steinberg_multiplicity`` (the alternating elliptic-Levi sum, whose value is
computed blindly and compared to the omega indicator by the caller or tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .presets import ThetaPreset, enumerate_elliptic_levis


def _popcount_parity(x: int) -> int:
    return bin(x).count("1") & 1


def character_value(chi: int, element: int) -> int:
    """Value of the character chi at the group element (both bitmasks)."""
    return -1 if _popcount_parity(chi & element) else 1


@dataclass
class VirtualCharacter:
    """Integer combination of characters of (Z/2)^m."""

    m: int
    coeffs: dict[int, int] = field(default_factory=dict)

    def _clean(self) -> "VirtualCharacter":
        self.coeffs = {k: v for k, v in self.coeffs.items() if v != 0}
        return self

    @classmethod
    def single(cls, m: int, chi: int, coeff: int = 1) -> "VirtualCharacter":
        return cls(m, {chi: coeff})._clean()

    @classmethod
    def trivial(cls, m: int) -> "VirtualCharacter":
        return cls.single(m, 0)

    def __add__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        if self.m != other.m:
            raise ValueError("characters of different groups")
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return VirtualCharacter(self.m, out)._clean()

    def __sub__(self, other: "VirtualCharacter") -> "VirtualCharacter":
        return self + other.scaled(-1)

    def scaled(self, c: int) -> "VirtualCharacter":
        return VirtualCharacter(self.m, {k: c * v for k, v in self.coeffs.items()})._clean()

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, VirtualCharacter)
            and self.m == other.m
            and self._clean().coeffs == other._clean().coeffs
        )

    def evaluate(self, element: int) -> int:
        return sum(v * character_value(k, element) for k, v in self.coeffs.items())

    def inner_with_character(self, chi: int) -> int:
        """Multiplicity of the irreducible character chi (orthonormality)."""
        return self.coeffs.get(chi, 0)


def induced_trivial(m: int, subgroup_generators: Sequence[int]) -> VirtualCharacter:
    """Induction of the trivial character of the subgroup up to (Z/2)^m.

    Equals the sum of all characters trivial on the subgroup, each once.
    """
    coeffs = {}
    for chi in range(1 << m):
        if all(character_value(chi, g) == 1 for g in subgroup_generators):
            coeffs[chi] = 1
    return VirtualCharacter(m, coeffs)


def restricted_trivial_on(chi: int, subgroup: Iterable[int]) -> bool:
    return all(character_value(chi, g) == 1 for g in subgroup)


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


def verify_prasad_identity(m: int) -> PrasadIdentityCertificate:
    """Brute-force check that
    sum over I of (-1)^(m-|I|) * (sum of characters trivial on A_I) = omega,
    where A_I is the coordinate subgroup on the complement of I.

    A character is trivial on A_I exactly when its support lies in I, so the
    coefficient of chi is the alternating superset sum over I containing
    supp(chi), which vanishes unless supp(chi) is everything.
    """
    coefficients = {chi: 0 for chi in range(1 << m)}
    full = (1 << m) - 1
    for i_mask in range(1 << m):
        sign = (-1) ** (m - bin(i_mask).count("1"))
        # characters trivial on A_I = characters supported inside I
        sub = i_mask
        while True:
            coefficients[sub] += sign
            if sub == 0:
                break
            sub = (sub - 1) & i_mask
    expected = {chi: (1 if chi == full else 0) for chi in range(1 << m)}
    ok = all(coefficients[chi] == expected[chi] for chi in range(1 << m))
    return PrasadIdentityCertificate(m, ok, coefficients, expected)


# -- omega and the Steinberg sum -------------------------------------------------


def characters_equal_on_subgroup(m: int, chi1: int, chi2: int, generators: Sequence[int]) -> bool:
    return all(character_value(chi1 ^ chi2, g) == 1 for g in generators)


def distinct_b_characters(preset: ThetaPreset) -> list[int]:
    """Ambient-mask representatives of the distinct characters of B."""
    gens = preset.b_generators
    reps: list[int] = []
    seen_signatures = set()
    for chi in range(1 << preset.m):
        sig = tuple(character_value(chi, g) for g in gens)
        if sig not in seen_signatures:
            seen_signatures.add(sig)
            reps.append(chi)
    return reps


def steinberg_multiplicity(preset: ThetaPreset, chi_b: int) -> int:
    """The alternating elliptic-Levi sum
    sum over I of sign(I) * ker1_size(I) * [chi_b trivial on B intersect A_I],
    computed as written.  ``chi_b`` is an ambient bitmask read as a character
    of B by restriction.
    """
    if chi_b < 0 or chi_b >= (1 << preset.m):
        raise ValueError("chi_b is not a character mask of the ambient two-group")
    b = preset.b_subgroup()
    total = 0
    # the data come in mask order, so datum i belongs to I with mask i
    for i_mask, datum in enumerate(enumerate_elliptic_levis(preset)):
        if all(character_value(chi_b, x) == 1 for x in b if x & i_mask == 0):
            total += datum.sign * datum.ker1_size
    return total


def steinberg_indicator(preset: ThetaPreset, chi_b: int) -> int:
    """The predicted value: 1 when chi_b agrees with omega on B, else 0."""
    m = preset.m
    return 1 if characters_equal_on_subgroup(m, chi_b, omega_mask(m), preset.b_generators) else 0


# -- small closed-form identities -------------------------------------------------


def composition_identity(n: int) -> int:
    """sum over compositions of n of (-1)^(n - parts) * 2^(parts - 1)."""
    total = 0
    for mask in range(1 << max(n - 1, 0)):
        k = bin(mask).count("1") + 1
        total += (-1) ** (n - k) * 2 ** (k - 1)
    return total


def gln_induction_identity() -> bool:
    """Induction of the trivial character from the index-two subgroup, minus
    the trivial character, equals the nontrivial character of Z/2."""
    m = 1
    ind = induced_trivial(m, [])  # induce from the trivial subgroup of Z/2
    lhs = ind - VirtualCharacter.trivial(m)
    rhs = VirtualCharacter.single(m, 1)
    pointwise = all(lhs.evaluate(e) == rhs.evaluate(e) for e in range(2))
    return lhs == rhs and pointwise
