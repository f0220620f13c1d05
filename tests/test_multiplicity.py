"""Tests for virtual characters and the multiplicity identities."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galpairs.multiplicity import (
    PrasadIdentityCertificate,
    VirtualCharacter,
    character_value,
    characters_equal_on_subgroup,
    composition_identity,
    distinct_b_characters,
    gln_induction_identity,
    induced_trivial,
    omega_mask,
    restricted_trivial_on,
    steinberg_indicator,
    steinberg_multiplicity,
    verify_prasad_identity,
)
from galpairs.presets import _span_masks, builtin_preset


class TestCharacterArithmetic:
    def test_character_value(self):
        assert character_value(0b11, 0b01) == -1
        assert character_value(0b11, 0b11) == 1
        assert character_value(0, 0b101) == 1

    def test_virtual_character_ring(self):
        a = VirtualCharacter.single(2, 0b01)
        b = VirtualCharacter.single(2, 0b10)
        s = a + b
        assert s.evaluate(0) == 2
        assert (s - a) == b
        assert a.scaled(0) == VirtualCharacter(2, {})

    def test_inner_product(self):
        a = VirtualCharacter.single(3, 0b101, coeff=4)
        assert a.inner_with_character(0b101) == 4
        assert a.inner_with_character(0b001) == 0

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.integers(0, 7), st.integers(0, 7))
    def test_orthogonality(self, chi1, chi2):
        a = VirtualCharacter.single(3, chi1)
        assert a.inner_with_character(chi2) == (1 if chi1 == chi2 else 0)


class TestInducedTrivial:
    def test_from_trivial_subgroup(self):
        # inducing from {0} gives the full regular character
        v = induced_trivial(2, [])
        assert all(v.coeffs.get(chi, 0) == 1 for chi in range(4))

    def test_from_full_group(self):
        v = induced_trivial(2, [0b01, 0b10])
        assert v == VirtualCharacter.trivial(2)

    def test_frobenius(self):
        """(chi, Ind 1) equals [chi trivial on the subgroup] for every chi."""
        for m in range(0, 5):
            generators = [omega_mask(m) & 0b11]
            ind = induced_trivial(m, generators)
            sub = _span_masks(generators)
            for chi in range(1 << m):
                assert ind.inner_with_character(chi) == int(restricted_trivial_on(chi, sub)), (m, chi)


class TestPrasadIdentity:
    @pytest.mark.parametrize("m", range(0, 9))
    def test_collapses_to_omega(self, m):
        cert = verify_prasad_identity(m)
        assert isinstance(cert, PrasadIdentityCertificate)
        assert cert.ok
        assert cert.coefficients == cert.expected
        assert cert.coefficients[omega_mask(m)] == 1

    def test_omega_is_full_support(self):
        assert omega_mask(3) == 0b111
        assert character_value(omega_mask(3), 0b001) == -1


class TestSteinberg:
    @pytest.mark.parametrize("family,n", [("GL", n) for n in range(2, 9)]
                             + [("U", n) for n in range(2, 9)])
    def test_matches_indicator(self, family, n):
        """The alternating Levi sum equals the character indicator."""
        preset = builtin_preset(family, n)
        for chi in distinct_b_characters(preset):
            assert steinberg_multiplicity(preset, chi) == steinberg_indicator(preset, chi)

    def test_gl_even_values(self):
        preset = builtin_preset("GL", 4)
        chars = distinct_b_characters(preset)
        hits = [chi for chi in chars if steinberg_multiplicity(preset, chi) == 1]
        assert len(hits) == 1
        assert characters_equal_on_subgroup(
            preset.m, hits[0], omega_mask(preset.m), list(preset.b_generators)
        )

    def test_u_trivial_b_always_one(self):
        # B trivial: the indicator is 1 for the unique class
        preset = builtin_preset("U", 5)
        chars = distinct_b_characters(preset)
        assert chars == [0]
        assert steinberg_multiplicity(preset, 0) == 1

    def test_out_of_range_rejected(self):
        preset = builtin_preset("GL", 4)
        with pytest.raises(ValueError):
            steinberg_multiplicity(preset, 1 << preset.m)


class TestCombinatorialIdentities:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_composition_identity(self, n):
        assert composition_identity(n) == 1

    def test_gln_induction(self):
        assert gln_induction_identity()


class TestRestriction:
    def test_restricted_trivial(self):
        assert restricted_trivial_on(0b10, [0b01, 0b00])
        assert not restricted_trivial_on(0b10, [0b10])

    @staticmethod
    def character_of_b_from_values(preset, values):
        """An ambient bitmask restricting to the character of B with the given
        generator values, or None when no character has them."""
        gens = preset.b_generators
        for chi in range(1 << preset.m):
            if all(character_value(chi, g) == v for g, v in zip(gens, values)):
                return chi
        return None

    def test_character_of_b_from_values(self):
        preset = builtin_preset("GL", 6)
        chi = self.character_of_b_from_values(preset, (-1,))
        assert character_value(chi, preset.b_generators[0]) == -1
        assert self.character_of_b_from_values(preset, (2,)) is None
