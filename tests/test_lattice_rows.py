"""Row-by-row lattice counting against its literal references.

``hull_rows`` reads the hull of a positive orthogonal set off the fan;
``Hull`` finds it by brute force over vertex subsets.  ``v_tilde_lattice``
scans the box line by line and runs the kernel only where a row is tight;
with ``exact=True`` it runs the kernel on every point of the box.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import Hull, OrthogonalSet, hull_rows, v_tilde_lattice
from galpairs.root_data import BUILTIN_NAMES, builtin_system


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
    out.append(OrthogonalSet.zero(sys).translate(sampling.sample_rational_point(rng, sys.ambient_dim, 4, 2)))
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
        rows = hull_rows(y, basis)
        hull = _lattice_hull(y, basis)
        for m in _box(hull, 1):
            assert fam._facet_side(rows, m) == _side(hull, m), (y.points, m)


def _split_count(monkeypatch, y, basis):
    """(count, kernel calls) of the row-by-row count with a kernel that reads 0."""
    calls = []
    monkeypatch.setattr(fam, "_gamma", lambda *args: calls.append(args) or 0)
    count = v_tilde_lattice(y, basis, 0, (0,) * y.system.ambient_dim)
    monkeypatch.undo()
    return count, len(calls)


def _sides(y, basis):
    hull = _lattice_hull(y, basis)
    sides = [_side(hull, m) for m in _box(hull, 1)]
    return sides.count(1), sides.count(0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_kernel_runs_exactly_on_boundary_points(name, monkeypatch):
    """Strictly interior points count without the kernel; every boundary
    point, and nothing else, reaches it."""
    sys = builtin_system(name)
    rng = random.Random(67)
    cases = [(_sweep(sys, (1,) * sys.ambient_dim), _basis(sys, k)) for k in (1, 2, 3)]
    cases.append((sampling.random_positive_set(rng, sys), _basis(sys, 2)))
    cases.append((OrthogonalSet.zero(sys).translate(sys.lattice.basis[0]), _basis(sys)))
    for y, basis in cases:
        assert _split_count(monkeypatch, y, basis) == _sides(y, basis), y.points


def test_lines_in_a_facet_plane(monkeypatch):
    """On A2 the last lattice direction lies in two facet planes, so whole
    lines of the scan sit on the boundary."""
    sys = builtin_system("A2")
    y, basis = _sweep(sys, (2, 2)), _basis(sys)
    rows = hull_rows(y, basis)
    flat = [(a, b) for a, b in rows if a[-1] == 0]
    assert flat
    hull = _lattice_hull(y, basis)
    on_flat = [
        m for m in _box(hull, 0)
        if _side(hull, m) == 0 and any(sum(x * c for x, c in zip(a, m)) == b for a, b in flat)
    ]
    # a line of the scan meets a flat row's plane in three points or more
    assert max(Counter(m[:-1] for m in on_flat).values()) >= 3
    assert _split_count(monkeypatch, y, basis) == _sides(y, basis)


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
        for j in (0, 1):
            fast = v_tilde_lattice(y, basis, j, x0)
            assert fast == v_tilde_lattice(y, basis, j, x0, exact=True), (y.points, k, j)


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
        hull_rows(y, _basis(sys))


def test_count_rejects_a_basis_that_misses_a_vertex():
    sys = builtin_system("A2")
    y = _sweep(sys, (1, 1))
    with pytest.raises(ValueError, match="span every vertex"):
        v_tilde_lattice(y, _basis(sys)[:1], 0, (0, 0))
