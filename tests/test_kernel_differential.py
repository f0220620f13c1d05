"""The compiled indicator kernel against the literal formulas of the oracle.

Every drawn case compares ``gamma_family`` for every cone q, and
``partition_of_unity_value``, with ``tests/kernel_oracle.py``.  Orthogonal
sets are positive, non-positive, or swept from a small integral point, and
points are generic rationals, small integer points or integer points of a
cone's span, so that h and h - Y_r often land on walls, where the kernel's
boundary values are decided.  Beside the built-ins, B3, C3 and BC3 are drawn
from fewer examples, and B4 and D4, whose masks are over 4,000 bits wide,
are compared at a handful of points, since the oracle takes seconds per point
there.  The boundary cases compare them where the threshold tests are decided, at
every chamber point Y_P, at the midpoint of each wall-adjacent pair and on the
planes of ``facet_rows``; a kernel that reads its thresholds with ``bisect_right``,
which is ``>=`` for ``>``, must fail them, as must a kernel with one bit of one term
mask flipped.
"""

import bisect
import random
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kernel_oracle as oracle
from root_oracle import sign_vector, span_basis
from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import OrthogonalSet
from galpairs.root_data import BUILTIN_NAMES, builtin_system, system_from_json
from test_fan_permutations import _build


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
        basis = [linalg.scale_to_integers(b) for b in span_basis(sys, draw(st.sampled_from(sys.cones)).index)]
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


def _agree(sys, y, h, cones):
    """gamma_family at each of the cones and the partition of unity, compiled and by the oracle."""
    for q in cones:
        assert fam.gamma_family(sys, q, h, y) == oracle.gamma_family(sys, q, h, y), (q, h)
    assert fam.partition_of_unity_value(sys, h, y) == oracle.partition_of_unity_value(sys, h, y), h


@pytest.mark.parametrize("name", ["B3", "C3", "BC3"])
def test_compiled_kernel_matches_oracle_in_rank_three(name):
    sys = _build(name)

    @settings(max_examples=5, derandomize=True, deadline=None)
    @given(y=orthogonal_sets(sys), hs=st.lists(points(sys), min_size=1, max_size=2))
    def check(y, hs):
        for h in hs:
            _agree(sys, y, h, range(len(sys.cones)))

    check()


def _span_point(sys, dim, coeffs):
    """An integer point of the span of the first cone of the given dimension."""
    cone = next(c for c in sys.cones if c.dim == dim)
    basis = [linalg.scale_to_integers(b) for b in span_basis(sys, cone.index)]
    return linalg.combination(coeffs, basis, sys.ambient_dim)


@pytest.mark.parametrize("name", ["B4", "D4"])
def test_compiled_kernel_matches_oracle_in_rank_four(name):
    """At one point against the oracle, on B4 a point of a plane spanned by a cone: gamma_family at
    the cone of h, and the partition of unity, whose sum holds gamma_family at G.  The compiled
    partition of unity alone is 1 at twenty more points, half of them on the spans of cones."""
    sys, rng = _build(name), random.Random(109)
    y = sampling.random_positive_set(rng, sys) if name == "B4" else sampling.random_nonpositive_set(rng, sys)
    n = sys.ambient_dim
    h = _span_point(sys, 2, (1, -2)) if name == "B4" else sampling.sample_points(rng, n, 1)[0]
    _agree(sys, y, h, [sys.cone_by_signs(sign_vector(sys.hyperplanes, h)).index])
    assert max(m.bit_length() for _, table in sys.kernel_tables.compiled for e in table for m, _ in e[2]) > 4000
    spans = [_span_point(sys, rng.randint(1, 3), [rng.randint(-3, 3) for _ in range(3)]) for _ in range(10)]
    for h in spans + sampling.sample_points(rng, n, 10):
        assert fam.partition_of_unity_value(sys, h, y) == 1, h


def test_a_flipped_term_bit_fails_the_differential(monkeypatch):
    """Clearing the lowest set bit of the first term of G's table drops one of that term's tests,
    and gamma_family at G then differs from the oracle on some point of a half-integer grid."""
    sys = builtin_system("A2")
    kernel, g = sys.kernel_tables, sys.full_cone().index
    sets = [sampling.random_positive_set(random.Random(5), sys), sampling.random_nonpositive_set(random.Random(6), sys)]
    cases = [(y, h) for y in sets for h in product([Fraction(k, 2) for k in range(-8, 9)], repeat=sys.ambient_dim)]
    want = [oracle.gamma_family(sys, g, h, y) for y, h in cases]
    assert [fam.gamma_family(sys, g, h, y) for y, h in cases] == want
    top, table = kernel.compiled[g]
    r, zeros, terms = table[0]
    (mask, sign), *rest = terms
    flipped = [(r, zeros, [(mask ^ mask & -mask, sign), *rest]), *table[1:]]
    monkeypatch.setattr(kernel, "compiled", [*kernel.compiled[:g], (top, flipped), *kernel.compiled[g + 1 :]])
    assert [fam.gamma_family(sys, g, h, y) for y, h in cases] != want


FIXTURES = Path(__file__).parent / "fixtures"
# a center (rank 1 in dimension 2), rational root data, a coarse normalization lattice
BOUNDARY_SYSTEMS = BUILTIN_NAMES + ("a1_dim2.json", "b2_half.json", "a2_lattice2.json")


def _boundary_system(name):
    return system_from_json(str(FIXTURES / name)) if name.endswith(".json") else builtin_system(name)


def _boundary_points(sys, y, rng):
    """Every Y_P, the midpoint of each wall-adjacent pair (P, P'), and per covector c of ``facet_rows`` and
    chamber P_i of its row a sampled point moved along c onto the plane <c, H> = <c, Y_P_i>."""
    pts = [y.points[p] for p in sys.chambers]
    mids = [tuple((a + b) / 2 for a, b in zip(pts[i], pts[j])) for i, j, _, _ in sys.walls]
    planes = []
    for c, positions in sys.facet_rows:
        for i in positions:
            z = sampling.sample_rational_point(rng, sys.ambient_dim)
            t = Fraction(linalg.dot(c, z) - linalg.dot(c, pts[i]), linalg.dot(c, c))
            planes.append(h := tuple(x - t * a for x, a in zip(z, c)))
            assert linalg.dot(c, h) == linalg.dot(c, pts[i])
    return pts, mids, planes


def _mismatches(sys, y, points):
    """The points where gamma_family at some cone or the partition of unity differs from the oracle."""
    cones = range(len(sys.cones))
    compiled = lambda mod, h: ([mod.gamma_family(sys, q, h, y) for q in cones], mod.partition_of_unity_value(sys, h, y))
    return [h for h in points if compiled(fam, h) != compiled(oracle, h)]


@pytest.mark.parametrize("name", BOUNDARY_SYSTEMS)
def test_compiled_kernel_matches_oracle_on_the_boundary(name):
    """A3 has 24 chambers, 36 walls and 72 facet planes, and the oracle takes about 0.08 s a point
    there, so it is compared at every Y_P and at eight of the other points, per set."""
    sys, rng = _boundary_system(name), random.Random(113)
    for y in (sampling.random_positive_set(rng, sys), sampling.random_nonpositive_set(rng, sys)):
        pts, mids, planes = _boundary_points(sys, y, rng)
        if name == "A3":
            mids, planes = rng.sample(mids, 4), rng.sample(planes, 4)
        assert _mismatches(sys, y, pts + mids + planes) == []


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "a1_dim2.json", "b2_half.json"])
def test_thresholds_read_with_bisect_right_fail_on_the_boundary(name, monkeypatch):
    """bisect_right counts the values <= ceil(<c, H> e / d), so at a point where <c, h> = <c, Y_P> the
    threshold bit is set: the kernel reads >= for >, which only the boundary sees."""
    sys, rng = _boundary_system(name), random.Random(113)
    y = sampling.random_positive_set(rng, sys)
    pts, mids, planes = _boundary_points(sys, y, rng)
    assert _mismatches(sys, y, pts + mids + planes) == []
    monkeypatch.setattr(fam, "bisect_left", bisect.bisect_right)
    assert _mismatches(sys, y, pts)
