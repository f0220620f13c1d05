"""The compiled indicator kernel against the literal formulas of the oracle.

Every drawn case compares ``gamma_family`` for every cone q, and
``partition_of_unity_value``, with ``tests/kernel_oracle.py``.  Orthogonal
sets are positive, non-positive, or swept from a small integral point, and
points are generic rationals, small integer points or integer points of a
cone's span, so that h and h - Y_r often land on walls, where the kernel's
boundary values are decided.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import OrthogonalSet
from galpairs.root_data import BUILTIN_NAMES, builtin_system


def orthogonal_sets(sys):
    n = sys.ambient_dim
    seeded = st.builds(random.Random, st.integers(0, 2**32))
    return st.one_of(
        seeded.map(lambda rng: sampling.random_positive_set(rng, sys)),
        seeded.map(lambda rng: sampling.random_nonpositive_set(rng, sys)),
        st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(
            lambda x: OrthogonalSet.special(sys, x)
        ),
    )


def points(sys):
    n = sys.ambient_dim
    generic = st.lists(st.fractions(-12, 12, max_denominator=4), min_size=n, max_size=n)
    small = st.lists(st.integers(-4, 4), min_size=n, max_size=n)

    @st.composite
    def on_span(draw):
        basis = [linalg.scale_to_integers(b) for b in draw(st.sampled_from(sys.cones)).span_basis]
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
        return linalg.combination(coeffs, basis, n)

    return st.one_of(generic, small, on_span())


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_compiled_kernel_matches_oracle(name):
    sys = builtin_system(name)

    @settings(max_examples=25, derandomize=True, deadline=None)
    @given(y=orthogonal_sets(sys), hs=st.lists(points(sys), min_size=1, max_size=3))
    def check(y, hs):
        for h in hs:
            for q in range(len(sys.cones)):
                assert fam.gamma_family(sys, q, h, y) == oracle.gamma_family(sys, q, h, y), (q, h)
            assert fam.partition_of_unity_value(sys, h, y) == oracle.partition_of_unity_value(
                sys, h, y
            ), h

    check()
