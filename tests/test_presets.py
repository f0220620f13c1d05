"""Tests for diagram presets and elliptic twisted-Levi enumeration."""

import json
import time
import tracemalloc

import pytest

from galpairs.presets import (
    MAX_GL_N,
    MAX_M,
    EllipticLeviDatum,
    ThetaPreset,
    _span_masks,
    builtin_preset,
    enumerate_elliptic_levis,
    inner_form_fiber_count,
    preset_from_dict,
    preset_from_json,
    resolve_preset,
)


class TestThetaPreset:
    def test_gl_even(self):
        p = builtin_preset("GL", 4)
        assert p.m == 1
        # the full character group on one generator
        assert len(p.b_subgroup()) == 2

    def test_gl_odd_has_trivial_minus_set(self):
        p = builtin_preset("GL", 5)
        assert p.m == 0
        assert p.b_subgroup() == {0}

    def test_u_preset(self):
        p = builtin_preset("U", 4)
        assert p.m == 3
        assert p.b_subgroup() == {0}

    def test_so_not_validated(self):
        with pytest.raises(ValueError):
            builtin_preset("SO", 5)

    def test_involution_validation(self):
        with pytest.raises(ValueError):
            # not an involution
            ThetaPreset("bad", 3, (1, 2, 0), (), (), ())

    def test_delta_minus_must_be_fixed(self):
        with pytest.raises(ValueError):
            ThetaPreset("bad", 2, (1, 0), (0,), (), ())

    def test_generator_range(self):
        with pytest.raises(ValueError):
            ThetaPreset("bad", 2, (0, 1), (0, 1), (), (4,))


class TestEllipticLevis:
    def test_gl4_count_and_signs(self):
        p = builtin_preset("GL", 4)
        data = enumerate_elliptic_levis(p)
        assert len(data) == 2 ** p.m
        for d in data:
            assert d.sign == (-1) ** (p.m - len(d.subset))

    def test_u_composition_labels(self):
        p = builtin_preset("U", 4)
        labels = {d.label for d in enumerate_elliptic_levis(p)}
        # subsets of cut points <-> compositions of 4
        assert (4,) in labels
        assert (1, 1, 1, 1) in labels
        assert (2, 2) in labels
        assert len(labels) == 8
        assert all(sum(lab) == 4 for lab in labels)

    def test_product_invariant(self):
        for family, n in (("GL", 4), ("GL", 6), ("U", 3), ("U", 5)):
            p = builtin_preset(family, n)
            for d in enumerate_elliptic_levis(p):
                k = len(d.subset)
                assert d.product_invariant == 2**k

    def test_u_kernel_sizes(self):
        # with trivial B every subset of size k contributes kernel size 2^k
        p = builtin_preset("U", 5)
        for d in enumerate_elliptic_levis(p):
            assert d.ker1_size == 2 ** len(d.subset)


def a_subgroup(m, subset_mask):
    """The subgroup A_I of (Z/2)^m supported on the complement of I."""
    comp = ((1 << m) - 1) & ~subset_mask
    return _span_masks([1 << i for i in range(m) if comp >> i & 1])


class TestASubgroups:
    def test_a_subgroup_is_complement(self):
        assert a_subgroup(3, 0b001) == {0b000, 0b010, 0b100, 0b110}

    def test_lattice_property(self):
        """A_I + A_J = A_(I intersect J) for all pairs of subsets, by brute force."""
        for m in range(0, 5):
            for i_mask in range(1 << m):
                for j_mask in range(1 << m):
                    total = {x ^ y for x in a_subgroup(m, i_mask) for y in a_subgroup(m, j_mask)}
                    assert total == a_subgroup(m, i_mask & j_mask), (m, i_mask, j_mask)


class TestRankLimit:
    def test_limit_admits_its_own_value(self):
        assert builtin_preset("U", MAX_M + 1).m == MAX_M == 16

    def test_unitary_rank_above_the_limit_is_refused_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"at most {MAX_M} fixed simple roots"):
                builtin_preset("U", 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5  # no n-tuple was built

    def test_gl_limit_admits_its_own_value(self):
        assert builtin_preset("GL", MAX_GL_N).m == 1

    def test_gl_size_above_the_limit_is_refused_before_building(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"n at most {MAX_GL_N}, got {10**6}"):
                builtin_preset("GL", 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**5  # no n-tuple was built
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"n at most {MAX_GL_N}"):
            resolve_preset("GL:1000000")
        assert time.perf_counter() - start < 1


class TestFixtures:
    def test_resolve_spec_strings(self):
        assert resolve_preset("GL:6").m == 1
        assert resolve_preset("U:3").m == 2

    def test_json_round_trip(self, tmp_path):
        p = builtin_preset("GL", 4)
        data = {
            "name": p.name,
            "num_simple": p.num_simple,
            "iota": list(p.iota),
            "delta_minus": list(p.delta_minus),
            "s_choice": list(p.s_choice),
            "b_generators": list(p.b_generators),
        }
        path = tmp_path / "gl4.json"
        path.write_text(json.dumps(data))
        q = preset_from_json(str(path))
        assert q == p

    def test_num_simple_is_checked_against_iota_first(self):
        # a declared rank far beyond the data is rejected before range(num_simple) is built
        data = {"name": "huge", "num_simple": 10**18, "iota": [1, 0], "delta_minus": []}
        with pytest.raises(ValueError, match="iota is not a permutation"):
            preset_from_dict(data)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            resolve_preset("GL:")


class TestInnerFormFibers:
    def test_even_split(self):
        assert inner_form_fiber_count(8, 2) == 4
        assert inner_form_fiber_count(2, 2) == 1

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            inner_form_fiber_count(3, 2)
