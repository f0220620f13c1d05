"""The plane sweep of ``CountPlan.count`` against the line-by-line scan it replaced.

The last two lattice coordinates are counted a plane at a time: flat rows cut
m_j once, and every other row makes its floors for all m_j in one range/map
pipeline.  ``scan_oracle.line_count`` is the literal scan, one line per call;
the points are also counted by brute force over the box (hand-made plans) and by
the kernel at every point (``exact=True``, on small boxes of real sets).
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

import scan_oracle
from galpairs import linalg, sampling
from galpairs.families import CountPlan, OrthogonalSet, v_tilde_lattice
from galpairs.root_data import builtin_system


def _basis(sys, refine):
    return [linalg.vscale(Fraction(1, refine), linalg.vec(b)) for b in sys.lattice.basis]


@pytest.mark.parametrize("name", ["A2", "B2", "G2", "BC2", "A3"])
def test_plane_sweep_matches_line_scan_on_positive_sets(name):
    sys = builtin_system(name)
    rng = random.Random(131)
    r = sys.ambient_dim
    refines, dilations = ((1, 2), range(3)) if r == 3 else ((1, 2, 3), range(5))
    simple = [sys.roots[i] for i in sys.simple_indices]
    small = OrthogonalSet.special(sys, linalg.solve(simple, [Fraction(1, 2)] * r))
    sets = [(small.translate(sampling.sample_rational_point(rng, r, 2, 3)), linalg.solve(simple, [1] * r))]
    for _ in range(2):
        y = sampling.random_positive_set(rng, sys).translate(sampling.sample_rational_point(rng, r, 6, 5))
        sets.append((y, sampling.random_dominant_point(rng, sys)))
    exact = 0
    for y, x0 in sets:
        for refine in refines:
            basis = _basis(sys, refine)
            plan = y.count_plan(x0, basis)
            for j in dilations:
                count = plan.count(j)
                assert count == scan_oracle.line_count(plan, j), (y.points, x0, refine, j)
                assert v_tilde_lattice(y, basis, j, x0) == count
                if math.prod(map(len, plan.box(j))) <= 300:
                    assert v_tilde_lattice(y, basis, j, x0, exact=True) == count, (y.points, x0, refine, j)
                    exact += 1
    assert exact >= 3


# -- hand-made plans: rows a . m <= b that do not depend on k, over a given box -----------


def _plan(rows, bounds, box):
    return CountPlan(rows, [[(b, 0)] for b in bounds], [[(lo, 0), (hi, 0)] for lo, hi in box], 1)


def _brute(rows, bounds, box):
    points = product(*(range(lo, hi + 1) for lo, hi in box))
    return sum(all(linalg.dot(a, m) <= b for a, b in zip(rows, bounds)) for m in points)


def _check(rows, bounds, box):
    plan = _plan(rows, bounds, box)
    count = plan.count(0)
    assert count == scan_oracle.line_count(plan, 0) == _brute(rows, bounds, box), (rows, bounds, box)
    return count


BOX2, BOX3 = [(-4, 5), (-5, 6)], [(-2, 2), (-4, 5), (-5, 6)]

HAND_MADE = {  # name: (rows, bounds, box, count)
    # m_0 <= 5/2 and m_0 >= -4/3 from flat rows of each sign at m_j = m_0: floor 2, ceil -1, so
    # m_0 in {-1, 0, 1, 2} with m_1 in [max(-(3 + m_0) / 2, -5), min(6 - m_0, 6)]: 8 + 8 + 8 + 7
    "flat-each-sign": ([(2, 0), (-3, 0), (1, 1), (-1, -2)], [5, 4, 6, 3], BOX2, 31),
    "flat-each-sign-3d": ([(0, 2, 0), (1, -3, 0), (0, 1, 1), (1, -1, -2)], [5, 4, 6, 3], BOX3, 156),
    # flat in m_j too: 0 <= -1 holds nowhere; in 3-D m_0 <= 0 keeps 3 of the 5 planes, 84 points each
    "flat-zero-negative": ([(0, 0), (1, 1)], [-1, 3], BOX2, 0),
    "flat-zero-negative-3d": ([(1, 0, 0), (0, 1, 1)], [0, 3], BOX3, 252),
    # rising and falling rows with a zero step in m_j: m_1 in [-3/2, 7/3], then m_0 <= 4 - m_1
    "zero-step": ([(0, 3), (0, -2), (1, 1)], [7, 3, 4], BOX2, 34),
    "zero-step-3d": ([(1, 0, 3), (0, 0, -2), (0, 1, 1)], [7, 3, 4], BOX3, 169),
    # flat rows that cut m_j to nothing, or past the box
    "flat-empty": ([(1, 0), (-1, 0), (0, 1)], [1, -2, 3], BOX2, 0),
    "flat-below-box": ([(1, 0), (1, 1)], [-10, 3], BOX2, 0),
    "flat-above-box": ([(-1, 0), (1, 1)], [-10, 3], BOX2, 0),
    "flat-empty-3d": ([(0, 1, 0), (-1, -1, 0), (0, 0, 1)], [1, -4, 3], BOX3, 0),
    # flat rows that leave m_j one value: m_0 = 1 with m_1 in [-5, 3]; m_1 = 1 with 5 x 8 points
    "flat-one-value": ([(1, 0), (-1, 0), (0, 1)], [1, -1, 3], BOX2, 9),
    "flat-one-value-3d": ([(0, 2, 0), (0, -2, 0), (0, 1, 1)], [3, -1, 3], BOX3, 40),
}


@pytest.mark.parametrize("case", HAND_MADE)
def test_hand_made_plan(case):
    rows, bounds, box, count = HAND_MADE[case]
    assert _check(rows, bounds, box) == count


def test_one_line_box():
    # one coordinate: the base case, -2 <= m <= 7/2 within [-4, 5]
    assert _check([(2,), (-1,)], [7, 2], [(-4, 5)]) == 6
    assert _check([(0,), (1,)], [-1, 3], [(-4, 5)]) == 0


@pytest.mark.parametrize("dim", [2, 3])
def test_random_plans_match_brute_force(dim):
    rng = random.Random(137 + dim)
    for _ in range(150 if dim == 2 else 60):
        rows = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(1, 5))]
        bounds = [rng.randint(-6, 12) for _ in rows]
        box = [sorted((rng.randint(-5, 5), rng.randint(-5, 5))) for _ in range(dim)]
        _check(rows, bounds, box)


def test_bounds_move_with_k():
    # a . m <= b + k*v: the box [0, 3]^2 cut by m_0 + m_1 <= 2k - 1 and m_0 <= k
    plan = CountPlan([(1, 1), (1, 0)], [[(-1, 2)], [(0, 1)]], [[(0, 0), (3, 0)], [(0, 0), (3, 0)]], 1)
    for k in range(5):
        rows, bounds = [(1, 1), (1, 0)], [2 * k - 1, k]
        assert plan.count(k) == scan_oracle.line_count(plan, k) == _brute(rows, bounds, [(0, 3), (0, 3)])
