"""Tests for orthogonal sets, indicator kernels, volumes and lattice counts."""

import random
import re
from fractions import Fraction
from itertools import product

import pytest

from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import (
    Hull,
    OrthogonalSet,
    check_kernel,
    fit_exp_polynomial,
    gamma_family,
    partition_of_unity_value,
    refinement_constant_term,
    support_bound_certificate,
    v_tilde_lattice,
    volume_analytic,
    volume_polytope,
)
from galpairs.root_data import BUILTIN_NAMES, RestrictedRootSystem, builtin_system, system_from_dict
from hull_oracle import cofactor_normal, hull_rows_in, hull_volume
from kernel_oracle import delta, gamma_cone_pair, parabolic_leq, projected, tau, tau_hat
import root_oracle
import set_oracle


def a1_segment():
    """The rank-one set with chamber points 3 and -1 (interval [-1, 3])."""
    sys = builtin_system("A1")
    pos, neg = _a1_chambers(sys)
    return sys, OrthogonalSet(sys, {pos: (Fraction(3),), neg: (Fraction(-1),)})


def _dilate(y, t):
    """The set t * Y, chamber by chamber."""
    return OrthogonalSet(y.system, {c: linalg.vscale(t, p) for c, p in y.points.items()})


def _a1_chambers(sys):
    pos = [ch for ch in sys.chambers if sys.cones[ch].signs == (1,)][0]
    neg = [ch for ch in sys.chambers if sys.cones[ch].signs == (-1,)][0]
    return pos, neg


class TestOrthogonalSet:
    def test_special_is_weyl_orbit(self):
        sys = builtin_system("A2")
        x = (Fraction(2), Fraction(1))
        y = OrthogonalSet.special(sys, x)
        for ch in sys.chambers:
            w = root_oracle.chamber_weyl(sys, ch)
            assert y.points[ch] == tuple(
                sum(w[i][j] * x[j] for j in range(2)) for i in range(2)
            )

    def test_wall_compatibility_enforced(self):
        sys = builtin_system("A2")
        good = OrthogonalSet.special(sys, (Fraction(2), Fraction(1)))
        bad = dict(good.points)
        ch = sys.chambers[0]
        bad[ch] = (bad[ch][0] + 1, bad[ch][1] + 7)
        with pytest.raises(ValueError):
            OrthogonalSet(sys, bad)

    def test_missing_chamber_rejected(self):
        sys = builtin_system("A1")
        pos, _ = _a1_chambers(sys)
        with pytest.raises(ValueError):
            OrthogonalSet(sys, {pos: (Fraction(3),)})

    def test_positivity(self):
        sys, y = a1_segment()
        assert y.is_positive
        pos, neg = _a1_chambers(sys)
        bad = OrthogonalSet(sys, {pos: (Fraction(-1),), neg: (Fraction(3),)})
        assert not bad.is_positive

    def test_add_translate_scale(self):
        sys, y = a1_segment()
        z = y.add(y)
        pos, neg = _a1_chambers(sys)
        assert z.points[pos] == (Fraction(6),)
        assert y.translate((Fraction(1),)).points[neg] == (Fraction(0),)
        assert _dilate(y, Fraction(1, 2)).points[pos] == (Fraction(3, 2),)

    def test_zero_set(self):
        sys = builtin_system("B2")
        z = set_oracle.zero(sys)
        assert z.is_positive
        assert all(p == (0, 0) for p in z.points.values())

    def test_projection_coherence(self):
        rng = random.Random(7)
        for name in ("A1", "A2", "B2"):
            sys = builtin_system(name)
            y = sampling.random_positive_set(rng, sys)
            assert _projections_agree(y)


def _projections_agree(y) -> bool:
    """Every chamber below a cone projects to the same point of the cone's span."""
    sys = y.system
    for cone in range(len(sys.cones)):
        proj = root_oracle.levi_projection(sys, cone)
        values = {
            linalg.matvec(proj, y.points[c]) for c in sys.chambers if parabolic_leq(sys, c, cone)
        }
        if len(values) != 1:
            return False
    return True


@pytest.mark.parametrize(
    "call",
    [
        lambda sys, y: gamma_family(sys, sys.full_cone().index, (0, 0, 99), y),
        lambda sys, y: gamma_family(sys, sys.full_cone().index, (1,), y),
        lambda sys, y: partition_of_unity_value(sys, (0, 0, 99), y),
        lambda sys, y: partition_of_unity_value(sys, [Fraction(1, 2)], y),
        lambda sys, y: check_kernel(sys, y, [(1, 2), (0, 0, 99)]),
        lambda sys, y: check_kernel(sys, y, [("1/2",)]),
        lambda sys, y: y.translate((1, 2, 3)),
        lambda sys, y: Hull([(0, 0), (1, 0), (0, 1)]).classify((0, 0, 5)),
        # a counting basis one coordinate too long, which zip once cut to (2, 0), (0, 1): 13 points
        lambda sys, y: v_tilde_lattice(y, [(2, 0, 9), (0, 1, 9)], 1, (1, 1)),
        lambda sys, y: v_tilde_lattice(y, [(2, 0, 9), (0, 1, 9)], 1, (1, 1), exact=True),
        lambda sys, y: hull_rows_in(y, [(2, 0, 9), (0, 1, 9)]),
        # roots of 3 coordinates in dimension 2, once built into a system
        lambda sys, y: RestrictedRootSystem(2, [(1, -1, 0), (-1, 1, 0)], [(1, -1, 0), (-1, 1, 0)], [0]),
    ],
    ids=[
        "gamma_family", "gamma_family-short", "partition_of_unity_value", "partition_of_unity_value-short",
        "check_kernel", "check_kernel-short", "translate", "classify",
        "v_tilde_lattice-basis", "v_tilde_lattice-exact-basis", "hull_rows_in-basis", "RestrictedRootSystem",
    ],
)
def test_point_of_wrong_length_is_rejected(call):
    sys = builtin_system("A2")
    y = OrthogonalSet.special(sys, (2, 1))
    with pytest.raises(ValueError, match="expected a point with 2 coordinates"):
        call(sys, y)


KERNEL_CALLS = {
    "gamma_family": lambda sys, h, y: gamma_family(sys, sys.full_cone().index, h, y),
    "partition_of_unity_value": lambda sys, h, y: partition_of_unity_value(sys, h, y),
    "check_kernel": lambda sys, h, y: check_kernel(sys, y, [(0, 0), h]),
}


@pytest.mark.parametrize("call", KERNEL_CALLS)
@pytest.mark.parametrize("h", [[1.5, 1], (True, 1), [1, "1/0"], ("x", 2), (1, "1/2/3"), "1,2", 5])
def test_point_that_is_not_rational_is_rejected(call, h):
    """A float, a bool, a bad "p/q" string or no list at all: the kernel reads its points as
    ``_parse_vec`` does, with its message."""
    sys = builtin_system("A2")
    y = OrthogonalSet.special(sys, (2, 1))
    with pytest.raises(ValueError, match=f"^not a rational vector: {re.escape(repr(h))}$"):
        KERNEL_CALLS[call](sys, h, y)


@pytest.mark.parametrize("call", KERNEL_CALLS)
def test_point_of_ints_fractions_and_strings_is_read_as_its_value(call):
    sys, rng = builtin_system("B2"), random.Random(11)
    y = sampling.random_nonpositive_set(rng, sys)
    for h in sampling.sample_points(rng, sys.ambient_dim, 20) + [y.points[c] for c in sys.chambers]:
        want = KERNEL_CALLS[call](sys, h, y)
        mixed = [x.numerator if x.denominator == 1 else x for x in h]  # ints where they are whole
        strings = [f"{x.numerator}/{x.denominator}" for x in h]
        assert KERNEL_CALLS[call](sys, mixed, y) == KERNEL_CALLS[call](sys, tuple(strings), y) == want, h


@pytest.mark.parametrize("first", [5, "1,2"])
def test_hull_first_point_that_is_not_a_list_is_rejected(first):
    """The first point sets the hull's dimension, so it is read as a list before its length is taken."""
    with pytest.raises(ValueError, match="expected a list, got"):
        Hull([first, (1, 0), (0, 1)])


class TestIndicators:
    def test_tau_a1(self):
        sys = builtin_system("A1")
        pos, _ = _a1_chambers(sys)
        g = sys.full_cone().index
        assert tau(sys, pos, g, (Fraction(1),)) == 1
        assert tau(sys, pos, g, (Fraction(0),)) == 0
        assert tau(sys, pos, g, (Fraction(-1),)) == 0

    def test_tau_hat_a1(self):
        sys = builtin_system("A1")
        pos, _ = _a1_chambers(sys)
        g = sys.full_cone().index
        assert tau_hat(sys, pos, g, (Fraction(1),)) == 1
        assert tau_hat(sys, pos, g, (Fraction(0),)) == 0
        assert tau_hat(sys, pos, g, (Fraction(-1),)) == 0

    def test_delta(self):
        sys = builtin_system("A2")
        ch = sys.chambers[0]
        # chambers span everything, so delta is identically 1 there
        assert delta(sys, ch, (Fraction(5), Fraction(-3))) == 1
        wall = [c for c in sys.cones if c.dim == 1][0]
        on_span = root_oracle.span_basis(sys, wall.index)[0]
        assert delta(sys, wall.index, on_span) == 1
        off = (on_span[0] + 1, on_span[1] + 1)
        if all(fam.linalg.dot(a, off) == 0 for a in root_oracle.zero_roots(sys, wall.index)):
            off = (on_span[0] + 1, on_span[1] - 1)
        assert delta(sys, wall.index, off) == 0

    def test_requires_parabolic_order(self):
        sys = builtin_system("A2")
        ch = sys.chambers[0]
        other = [c for c in sys.chambers if c != ch][0]
        with pytest.raises(ValueError):
            tau(sys, ch, other, (Fraction(0), Fraction(0)))


class TestGammaKernels:
    def test_a1_values(self):
        sys, y = a1_segment()
        g = sys.full_cone().index
        # interior, right boundary, outside
        assert gamma_family(sys, g, (Fraction(2),), y) == 1
        assert gamma_family(sys, g, (Fraction(3),), y) == 1
        assert gamma_family(sys, g, (Fraction(4),), y) == 0

    def test_pairwise_alternating_sum(self):
        sys, y = a1_segment()
        g = sys.full_cone().index
        pos, _ = _a1_chambers(sys)
        h = (Fraction(2),)
        x = projected(y, pos)
        assert gamma_cone_pair(sys, pos, g, h, x) in (0, 1)

    def test_matches_hull_generic_a2(self):
        sys = builtin_system("A2")
        rng = random.Random(11)
        y = sampling.random_positive_set(rng, sys)
        g = sys.full_cone().index
        hull = Hull([y.points[ch] for ch in sys.chambers])
        mism = 0
        for h in sampling.sample_points(rng, 2, 60):
            side = hull.classify(h)
            if side == 0:
                continue  # boundary convention differs; tested separately
            if gamma_family(sys, g, h, y) != (1 if side > 0 else 0):
                mism += 1
        assert mism == 0


class TestPartitionOfUnity:
    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_positive_set(self, name):
        sys = builtin_system(name)
        rng = random.Random(23)
        y = sampling.random_positive_set(rng, sys)
        for h in sampling.sample_points(rng, sys.ambient_dim, 40):
            assert partition_of_unity_value(sys, h, y) == 1

    @pytest.mark.parametrize("name", ["A1", "A2", "B2"])
    def test_nonpositive_set(self, name):
        """The identity holds for every orthogonal set, positive or not."""
        sys = builtin_system(name)
        rng = random.Random(29)
        y = sampling.random_nonpositive_set(rng, sys)
        for h in sampling.sample_points(rng, sys.ambient_dim, 40):
            assert partition_of_unity_value(sys, h, y) == 1

    def test_on_walls(self):
        sys, y = a1_segment()
        for h in [(Fraction(0),), (Fraction(3),), (Fraction(-1),)]:
            assert partition_of_unity_value(sys, h, y) == 1


class TestLeviCoherence:
    """The projected family on each Levi span is again an orthogonal set.

    For every linear span V arising as the span of a cone, the cones with span
    exactly V are the chambers of the induced fan on V, and
    ``root_oracle.induced_walls`` lists their wall-adjacent pairs.  Across
    each wall the coroot of the table must be the restricted coroot of the
    oracle, and the projected points must differ by a rational multiple of it.
    """

    @staticmethod
    def coherent(sys, y) -> bool:
        one_cone_per_span = {tuple(s == 0 for s in c.signs): c.index for c in sys.cones}
        for cone in one_cone_per_span.values():
            for p, q, a, av in root_oracle.induced_walls(sys, cone):
                if root_oracle.restricted_coroot(sys, p, a) != av:
                    return False
                d = linalg.vsub(projected(y, p), projected(y, q))
                if root_oracle.proportionality(d, av) is None:
                    return False
        return True

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtin(self, name):
        sys = builtin_system(name)
        rng = random.Random(31)
        y = sampling.random_positive_set(rng, sys)
        assert self.coherent(sys, y)

    def test_wrong_restricted_coroot_fails(self, monkeypatch):
        sys = builtin_system("A2")
        y = sampling.random_positive_set(random.Random(31), sys)
        monkeypatch.setattr(
            root_oracle, "restricted_coroot", lambda sys, cone, alpha: (Fraction(0),) * 2
        )
        assert not self.coherent(sys, y)


class TestHull:
    def test_segment(self):
        h = Hull([(Fraction(-1),), (Fraction(3),)])
        assert hull_volume(h) == 4
        assert h.classify((Fraction(1),)) == 1
        assert h.classify((Fraction(3),)) == 0
        assert h.classify((Fraction(4),)) == -1

    def test_unit_square(self):
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        h = Hull(pts)
        assert hull_volume(h) == 1
        assert h.classify((Fraction(1, 2), Fraction(1, 2))) == 1
        assert h.classify((Fraction(1, 2), Fraction(0))) == 0

    def test_interior_points_ignored(self):
        pts = [(0, 0), (4, 0), (0, 4), (4, 4), (2, 2), (1, 3)]
        assert hull_volume(Hull(pts)) == 16

    def test_cube(self):
        pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        h = Hull(pts)
        assert hull_volume(h) == 8
        assert h.classify((1, 1, 1)) == 1
        assert h.classify((2, 1, 1)) == 0
        assert h.classify((3, 1, 1)) == -1

    def test_cube_with_edge_and_face_points(self):
        corners = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        edges = (
            [(1, y, z) for y in (0, 2) for z in (0, 2)]
            + [(x, 1, z) for x in (0, 2) for z in (0, 2)]
            + [(x, y, 1) for x in (0, 2) for y in (0, 2)]
        )
        faces = [(0, 1, 1), (2, 1, 1), (1, 0, 1), (1, 2, 1), (1, 1, 0), (1, 1, 2)]
        assert hull_volume(Hull(edges + faces + corners)) == 8

    def test_simplex_volume(self):
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
        assert hull_volume(Hull(pts)) == Fraction(1, 6)

    def test_degenerate(self):
        # a planar polygon in 3-space has volume 0 but sound membership
        pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
        h = Hull(pts)
        assert hull_volume(h) == 0
        assert h.classify((Fraction(1, 2), Fraction(1, 2), 0)) == 0
        assert h.classify((Fraction(1, 2), Fraction(1, 2), 1)) == -1

    def test_four_cube(self):
        h = Hull(list(product((0, 2), repeat=4)))
        assert hull_volume(h) == 16
        assert h.classify((1, 1, 1, 1)) == 1
        assert h.classify((2, 1, Fraction(1, 2), 1)) == 0
        assert h.classify((1, 1, 1, Fraction(5, 2))) == -1
        assert len(h.facets) == 8

    def test_four_simplex_volume(self):
        pts = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        assert hull_volume(Hull(pts)) == Fraction(1, 24)

    def test_five_simplex_volume(self):
        pts = [tuple(int(i == j) for j in range(5)) for i in range(-1, 5)]
        assert hull_volume(Hull(pts)) == Fraction(1, 120)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_cofactor_normal_matches_minor_oracle(self, n):
        # random integer (n-1) x n matrices, sparse and dependent ones included
        rng = random.Random(n)
        dependent = 0
        for trial in range(80):
            zeros = rng.choice((0.0, 0.4, 0.7))
            rows = [
                [0 if rng.random() < zeros else rng.randint(-5, 5) for _ in range(n)]
                for _ in range(n - 1)
            ]
            if n > 2 and trial % 4 == 0:
                rows[-1] = [3 * x - 2 * y for x, y in zip(rows[0], rows[1])]
            expected = cofactor_normal(rows)
            dependent += expected is None
            assert fam._cofactor_normal(rows) == expected, rows
        assert n < 3 or dependent >= 20

    @pytest.mark.parametrize(
        "pts, k, n_facets, inside, outside",
        [
            ([(1, 2)], 0, 0, (1, 2), (1, 3)),
            ([(0, 0, 0), (2, 4, 6)], 1, 2, (1, 2, 3), (3, 6, 9)),
            (
                [(x, y, z, x + y) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                3,
                6,
                (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2), 1),
                (2, 0, 0, 2),
            ),
        ],
        ids=["point", "segment-in-3-space", "cube-in-4-space"],
    )
    def test_lower_dimensional(self, pts, k, n_facets, inside, outside):
        """Span equations in both orientations, then the facets within the span."""
        h = Hull(pts)
        assert h.affine_dim == k
        assert len(h.facets) == 2 * (h.dim - k) + n_facets
        assert hull_volume(h) == 0
        assert h.classify(inside) == 0
        assert h.classify(outside) == -1
        off_span = list(inside)
        off_span[-1] += Fraction(1, 3)
        assert h.classify(off_span) == -1

    def test_lower_dimensional_lattice_classifier_matches_classify(self):
        # a 4-simplex in 5-space, spanning x1 - x2 + x3 - x4 + x5 = 0
        pts = [(0, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0), (0, 0, 0, 1, 1)]
        h = Hull(pts)
        assert h.affine_dim == 4
        sides = {h.classify([Fraction(x, 2) for x in m]) for m in product(range(-1, 4), repeat=5)}
        assert sides == {0, -1}

    def test_points_of_different_lengths_are_rejected(self):
        with pytest.raises(ValueError, match="expected a point with 2 coordinates"):
            Hull([(0, 0), (1, 0), (0, 1), (1, 1, 7)])
        with pytest.raises(ValueError, match="expected a point with 3 coordinates"):
            Hull([(0, 0, 0), (1, 0)])


class TestVolumes:
    def test_a1_interval(self):
        sys, y = a1_segment()
        assert volume_polytope(y) == 4
        assert volume_analytic(y) == 4

    def test_a2_hexagon(self):
        sys = builtin_system("A2")
        y = OrthogonalSet.special(sys, (Fraction(2), Fraction(1)))
        y = y.add(OrthogonalSet.special(sys, (Fraction(1), Fraction(1))))
        assert volume_polytope(y) == volume_analytic(y)

    @pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "C2", "G2", "BC2"])
    def test_two_algorithms_agree(self, name):
        sys = builtin_system(name)
        rng = random.Random(41)
        for _ in range(3):
            y = sampling.random_positive_set(rng, sys)
            assert volume_polytope(y) == volume_analytic(y)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_chambers_share_coroot_covolume(self, name):
        # volume_analytic reads every chamber's coroot covolume off the base chamber
        sys = builtin_system(name)
        covolumes = {
            abs(linalg.det([
                linalg.coordinates_in_basis(sys.lattice.basis, av)
                for _, av in root_oracle.chamber_simple_pairs(sys, c)
            ]))
            for c in sys.chambers
        }
        assert covolumes == {2 if name.startswith("BC") else 1}

    def test_dilation_scaling(self):
        sys, y = a1_segment()
        v = volume_polytope(y)
        assert volume_polytope(_dilate(y, 3)) == 3 ** sys.ambient_dim * v

    def test_translation_invariance(self):
        sys = builtin_system("A2")
        rng = random.Random(43)
        y = sampling.random_positive_set(rng, sys)
        shifted = y.translate((Fraction(5, 3), Fraction(-2)))
        assert volume_polytope(shifted) == volume_polytope(y)
        assert volume_analytic(shifted) == volume_analytic(y)

    def test_requires_positive(self):
        sys = builtin_system("A1")
        pos, neg = _a1_chambers(sys)
        bad = OrthogonalSet(sys, {pos: (Fraction(-1),), neg: (Fraction(1),)})
        with pytest.raises(ValueError, match="polytope volume requires a positive orthogonal set"):
            volume_polytope(bad)


class TestSupportBound:
    def test_certificate_positive(self):
        for name in ("A1", "A2", "B2"):
            assert support_bound_certificate(builtin_system(name)) > 0

    def test_kernel_vanishes_outside_ball(self):
        sys = builtin_system("A2")
        rng = random.Random(47)
        y = sampling.random_positive_set(rng, sys)
        pts = [sampling.sample_rational_point(rng, 2, numerator_bound=60) for _ in range(50)]
        _, report = check_kernel(sys, y, pts)
        assert report.ok
        assert report.c_empirical <= report.c_bound

    def test_center_is_not_bounded(self):
        # rank 1 in dimension 2: moving Y and the points along the roots' common kernel
        # changes neither the kernel nor the report
        sys = system_from_dict(
            {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}
        )
        rng = random.Random(53)
        y = sampling.random_positive_set(rng, sys)
        pts = sampling.sample_points(rng, 2, 60)
        _, near = check_kernel(sys, y, pts)
        _, far = check_kernel(sys, y.translate((0, 1000)), [(a, b + 777) for a, b in pts])
        assert near.ok and far.ok and near.nonzero > 0
        assert (near.nonzero, near.c_empirical, near.c_bound) == (far.nonzero, far.c_empirical, far.c_bound)


class TestLatticeCounts:
    def test_a1_counts(self):
        sys, y = a1_segment()
        basis = [(1,)]
        x0 = (Fraction(1),)
        # the swept hull is [-1-k, 3+k], which holds 2k+5 integers
        for k in range(0, 5):
            n = v_tilde_lattice(y, basis, k, x0)
            assert n == 2 * k + 5

    def test_k_zero_is_unshifted_count(self):
        sys, y = a1_segment()
        assert v_tilde_lattice(y, [(1,)], 0, (Fraction(1),)) == 5

    def test_fast_equals_exact(self):
        sys = builtin_system("A2")
        rng = random.Random(53)
        y = sampling.random_positive_set(rng, sys)
        basis = [(1, 0), (0, 1)]
        x0 = (Fraction(0), Fraction(1))
        for k in range(0, 3):
            fast = v_tilde_lattice(y, basis, k, x0)
            exact = v_tilde_lattice(y, basis, k, x0, exact=True)
            assert fast == exact

    def test_rejects_negative_k(self):
        sys, y = a1_segment()
        with pytest.raises(ValueError):
            v_tilde_lattice(y, [(1,)], -1, (Fraction(0),))


class TestExpPolynomialFit:
    def test_pure_polynomial(self):
        samples = [Fraction(2 * k * k + 3 * k + 1) for k in range(8)]
        fit = fit_exp_polynomial(samples)
        assert fit.period == 1
        for k, s in enumerate(samples):
            assert fit.evaluate(k) == s
        assert fit.polynomial_part_constant == 1

    def test_period_two(self):
        samples = [Fraction(k + (2 if k % 2 else 5)) for k in range(12)]
        fit = fit_exp_polynomial(samples)
        assert fit.period == 2
        for k, s in enumerate(samples):
            assert fit.evaluate(k) == s
        # constant term averages the two residue-class constants
        assert fit.polynomial_part_constant == Fraction(7, 2)

    def test_minimal_period_preferred(self):
        samples = [Fraction(3 * k) for k in range(10)]
        assert fit_exp_polynomial(samples).period == 1

    def test_unfittable(self):
        samples = [Fraction(2) ** k for k in range(10)]
        with pytest.raises(ValueError):
            fit_exp_polynomial(samples, max_period=2, max_degree=3)


class TestRefinement:
    def test_a1_error_is_reciprocal(self):
        sys, y = a1_segment()
        x0 = (Fraction(1),)
        vol = volume_polytope(y)
        for k in (1, 2, 3, 4):
            c = refinement_constant_term(y, x0, k)
            assert abs(c - vol) == Fraction(1, k)

    def test_a2_errors_shrink(self):
        sys = builtin_system("A2")
        y = OrthogonalSet.special(sys, (Fraction(2), Fraction(1)))
        y = y.add(OrthogonalSet.special(sys, (Fraction(1), Fraction(1))))
        x0 = (Fraction(1), Fraction(1))
        vol = volume_polytope(y)
        ks = (1, 2, 3)
        errs = [abs(refinement_constant_term(y, x0, k) - vol) for k in ks]
        # error decays like c/k: the scaled errors k*err are non-increasing
        scaled = [k * e for k, e in zip(ks, errs)]
        assert scaled == sorted(scaled, reverse=True)
        c = scaled[0]
        assert all(e <= c / k for k, e in zip(ks, errs))
