"""Row-by-row lattice counting against its literal references.

``hull_oracle.hull_rows`` reads the hull of a positive orthogonal set off the fan;
``Hull`` finds it by brute force over vertex subsets.  ``v_tilde_lattice``
counts each scan line's interval inside the rows, a plane of lines at a time,
since the kernel is 1 on the closed hull; with ``exact=True`` it runs the
kernel on every point of the box.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import Hull, OrthogonalSet, v_tilde_lattice
from galpairs.root_data import BUILTIN_NAMES, builtin_system
from hull_oracle import hull_rows, hull_rows_in
import set_oracle


def _basis(sys, k=1):
    return [linalg.vscale(Fraction(1, k), linalg.vec(b)) for b in sys.lattice.basis]


def _sweep(sys, targets):
    """special(x) with <a_i, x> = targets[i] on the simple roots a_i."""
    simple = [sys.roots[i] for i in sys.simple_indices]
    return OrthogonalSet.special(sys, linalg.solve(simple, targets))


def _sets(sys, seed):
    """Random positive sets, every sweep with <a_i, x> in {0, 1, 2} (singular
    ones included) and the zero set translated, which is a point hull."""
    rng = random.Random(seed)
    out = [sampling.random_positive_set(rng, sys) for _ in range(2)]
    out += [_sweep(sys, t) for t in product(range(3), repeat=sys.ambient_dim)]
    out.append(set_oracle.zero(sys).translate(sampling.sample_rational_point(rng, sys.ambient_dim, 4, 2)))
    return out


def _lattice_hull(y, basis):
    """The brute-force hull of Y in lattice coordinates, solved vertex by vertex."""
    return Hull([linalg.coordinates_in_basis(basis, p) for p in y.points.values()])


def _box(hull, margin):
    """Every integer point of the hull's bounding box, widened by ``margin``."""
    d = hull.dim
    lo = [min(v[i] for v in hull.vertices) for i in range(d)]
    hi = [max(v[i] for v in hull.vertices) for i in range(d)]
    return product(*[
        range(math.floor(Fraction(a, hull.scale)) - margin, math.ceil(Fraction(b, hull.scale)) + margin + 1)
        for a, b in zip(lo, hi)
    ])


def _side(hull, m):
    """``hull.classify(m)`` for an integer point, without its Fraction parsing."""
    return fam._facet_side(hull.facets, [x * hull.scale for x in m])


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_fan_rows_match_brute_force_hull(name):
    sys = builtin_system(name)
    basis = _basis(sys, 2 if sys.ambient_dim < 3 else 1)
    for y in _sets(sys, 61):
        rows = hull_rows_in(y, basis)
        hull = _lattice_hull(y, basis)
        for m in _box(hull, 1):
            assert fam._facet_side(rows, m) == _side(hull, m), (y.points, m)


def _closed_hull_points(hull):
    """Lattice points of a closed brute-force hull."""
    return sum(_side(hull, m) >= 0 for m in _box(hull, 0))


def _kernel(y, basis, m):
    sys = y.system
    h = linalg.combination(m, basis, sys.ambient_dim)
    return fam.gamma_family(sys, sys.full_cone().index, h, y)


def _integral_sweep(sys, targets):
    """``_sweep`` scaled to integer vertices, which lie on every refined lattice."""
    simple = [sys.roots[i] for i in sys.simple_indices]
    return OrthogonalSet.special(sys, linalg.clear_denominators(linalg.solve(simple, targets))[0])


def _boundary_cases(sys, seed):
    """Integral sweeps, regular and singular, a random positive set, a translated
    sweep and a point hull, on lattices refined by k = 1, 2, 3."""
    rng = random.Random(seed)
    r = sys.ambient_dim
    ones = _integral_sweep(sys, (1,) * r)
    singular = _integral_sweep(sys, (1,) + (0,) * (r - 1))
    point = set_oracle.zero(sys).translate(sampling.sample_rational_point(rng, r, 4, 2))
    refined = (1, 2, 3) if r < 3 else (1, 2)  # the kernel takes about 0.5 ms per A3 point
    cases = [(y, k) for y in (ones, singular) for k in refined] + [(point, 3), (singular, 3)]
    cases.append((sampling.random_positive_set(rng, sys), 2 if r < 3 else 1))
    cases.append((ones.translate(sampling.sample_rational_point(rng, r, 6, 3)), 1))
    return [(y, _basis(sys, k)) for y, k in cases]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_runs_exactly_on_boundary_points(name):
    """The real kernel, run on every lattice point where a hull row is tight,
    reads 1 there and 0 one step past either end of each scan line; the count
    equals the closed hull's lattice points."""
    sys = builtin_system(name)
    for y, basis in _boundary_cases(sys, 67):
        rows, hull = hull_rows_in(y, basis), _lattice_hull(y, basis)
        lines: dict[tuple, list[int]] = {}
        for m in _box(hull, 1):
            side = fam._facet_side(rows, m)
            if side == 0:
                assert _kernel(y, basis, m) == 1, (y.points, m)
            if side >= 0:
                lines.setdefault(m[:-1], []).append(m[-1])
        for prefix, xs in lines.items():
            for x in (min(xs) - 1, max(xs) + 1):
                assert _kernel(y, basis, prefix + (x,)) == 0, (y.points, prefix, x)
        zero = (0,) * sys.ambient_dim
        assert v_tilde_lattice(y, basis, 0, zero) == _closed_hull_points(hull), y.points


def test_lines_in_a_facet_plane():
    """On A2 the last lattice direction lies in two facet planes, so whole
    lines of the scan sit on the boundary; the kernel is 1 along them."""
    sys = builtin_system("A2")
    y, basis = _sweep(sys, (2, 2)), _basis(sys)
    rows = hull_rows_in(y, basis)
    flat = [(a, b) for a, b in rows if a[-1] == 0]
    assert flat
    hull = _lattice_hull(y, basis)
    on_flat = [
        m for m in _box(hull, 0)
        if _side(hull, m) == 0 and any(sum(x * c for x, c in zip(a, m)) == b for a, b in flat)
    ]
    # a line of the scan meets a flat row's plane in three points or more
    assert max(Counter(m[:-1] for m in on_flat).values()) >= 3
    assert all(_kernel(y, basis, m) == 1 for m in on_flat)
    assert v_tilde_lattice(y, basis, 0, (0, 0)) == _closed_hull_points(hull)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_count_runs_no_kernel(name, monkeypatch):
    """The row-by-row count never reaches the kernel, and still equals the
    kernel run on every box point."""
    sys = builtin_system(name)
    r = sys.ambient_dim
    y, basis, zero = _sweep(sys, (1,) * r), _basis(sys, 2 if r < 3 else 1), (0,) * r
    exact = v_tilde_lattice(y, basis, 0, zero, exact=True)

    def refuse(*args):
        raise AssertionError("the row-by-row count ran the kernel")

    monkeypatch.setattr(fam, "_gamma", refuse)
    monkeypatch.setattr(fam, "_Point", refuse)
    assert v_tilde_lattice(y, basis, 0, zero) == exact


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_row_by_row_count_matches_exact(name):
    sys = builtin_system(name)
    rng = random.Random(71)
    r = sys.ambient_dim
    sweep = _sweep(sys, (1,) * r)
    x0 = sweep.points[sys.base_chamber]
    refined = (1, 2) if r < 3 else (1,)
    cases = [(sweep, k) for k in refined]  # integral: many points on facets
    cases += [(sweep.translate(sampling.sample_rational_point(rng, r, 6, 3)), k) for k in refined]
    if r < 3:  # the exact scan of a random A3 set takes seconds
        cases.append((sampling.random_positive_set(rng, sys), 1))
    for y, k in cases:
        basis = _basis(sys, k)
        plans = len(y._plans)
        for j in (0, 1):
            fast = v_tilde_lattice(y, basis, j, x0)
            assert fast == v_tilde_lattice(y, basis, j, x0, exact=True), (y.points, k, j)
        assert len(y._plans) == plans + 1  # one count plan per (Y, x0, basis), whatever j


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_nonpositive_set_is_rejected(name):
    sys = builtin_system(name)
    y = sampling.random_nonpositive_set(random.Random(73), sys)
    zero = (0,) * sys.ambient_dim
    with pytest.raises(ValueError, match="positive"):
        v_tilde_lattice(y, _basis(sys), 0, zero)
    with pytest.raises(ValueError, match="positive"):
        v_tilde_lattice(y, _basis(sys), 0, zero, exact=True)
    with pytest.raises(ValueError, match="positive"):
        hull_rows(y)


def test_count_rejects_a_basis_that_misses_a_vertex():
    sys = builtin_system("A2")
    y = _sweep(sys, (1, 1))
    with pytest.raises(ValueError, match="span every vertex"):
        v_tilde_lattice(y, _basis(sys)[:1], 0, (0, 0))


def test_box_admits_the_scan_line_limit_and_refuses_one_more():
    # coordinate rows of the points (0, 0) and (n - 1, 5), then (n, 5), over denominator 1
    n = fam.MAX_SCAN_LINES
    assert len(fam._box([[0, n - 1], [0, 5]], 1)[0]) == n
    with pytest.raises(ValueError, match=f"scan {n + 1} lines, more than the limit of {n}"):
        fam._box([[0, n], [0, 5]], 1)
