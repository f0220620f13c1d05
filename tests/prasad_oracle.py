"""The literal character formulas, kept as the oracle of the subset transforms.

``galpairs.multiplicity`` and ``galpairs.presets`` compute the character
identities over (Z/2)^m by a superset-sum transform and by GF(2) elimination
on the generators of B.  These functions are the loops they replace, written
as the paper states them: the collapse walks every submask of every subset I,
the Levi data project every element of B once per I, and the Steinberg sum
tests every element of B in A_I.  The virtual-character ring below and the two
introduction identities (criterion 3) are written the same way.  They are slow
and only the tests call them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from galpairs.multiplicity import character_value
from galpairs.presets import EllipticLeviDatum, ThetaPreset


def span_masks(generators: Sequence[int]) -> set[int]:
    """Every element of the subgroup the bitmasks generate."""
    span = {0}
    for g in generators:
        span |= {x ^ g for x in span}
    return span


def superset_sums(values: Sequence[int]) -> list[int]:
    """out[S] = sum of values[I] over every I containing S, by the submask walk."""
    out = [0] * len(values)
    for i_mask, v in enumerate(values):
        sub = i_mask
        while True:
            out[sub] += v
            if sub == 0:
                break
            sub = (sub - 1) & i_mask
    return out


def prasad_coefficients(m: int) -> dict[int, int]:
    """Coefficient of each character chi in
    sum over I of (-1)^(m-|I|) * (sum of characters trivial on A_I),
    adding the sign of I to every character supported inside I (3^m steps)."""
    signs = [(-1) ** (m - bin(i_mask).count("1")) for i_mask in range(1 << m)]
    return dict(enumerate(superset_sums(signs)))


def elliptic_levis(preset: ThetaPreset) -> list[EllipticLeviDatum]:
    """One datum per subset I of the fixed simple roots, in mask order, with
    the index read off the projection of every element of B."""
    m = preset.m
    b = span_masks(preset.b_generators)
    out = []
    for mask in range(1 << m):
        subset = tuple(i for i in range(m) if mask >> i & 1)
        mab = len({x & mask for x in b})
        label = None
        if preset.metadata.get("family") == "U":
            bounds = [0] + [i + 1 for i in subset] + [preset.metadata["n"]]
            label = tuple(b2 - b1 for b1, b2 in zip(bounds, bounds[1:]))
        out.append(
            EllipticLeviDatum(
                subset=subset,
                sign=(-1) ** (m - len(subset)),
                ker1_size=(1 << len(subset)) // mab,
                mab_index=mab,
                label=label,
            )
        )
    return out


def steinberg_multiplicity(preset: ThetaPreset, chi_b: int) -> int:
    """sum over I of sign(I) * ker1_size(I) * [chi_b trivial on B intersect A_I],
    testing chi_b on every element of B that vanishes on I."""
    b = span_masks(preset.b_generators)
    total = 0
    for i_mask, datum in enumerate(elliptic_levis(preset)):
        if all(character_value(chi_b, x) == 1 for x in b if x & i_mask == 0):
            total += datum.sign * datum.ker1_size
    return total


# -- virtual characters and the introduction identities ---------------------------


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
