"""The lattice ops that cache work per system or per (Y, x0), against their literal forms.

``volume_analytic`` reads chamber weights computed once per system
(``RestrictedRootSystem.volume_weights``); ``tests/volume_oracle.py`` sums the
Fractions term by term.  ``v_tilde_lattice`` builds Y + k*Y[x0] from one
validated sweep kept on Y; the reference builds and validates that set
explicitly and counts the points of its box that meet its ``hull_rows``.
"""

import math
import random
from fractions import Fraction
from itertools import product

import pytest

import volume_oracle
from galpairs import families as fam
from galpairs import linalg, sampling
from galpairs.families import OrthogonalSet, hull_rows, v_tilde_lattice
from galpairs.root_data import BUILTIN_NAMES, builtin_system, system_from_dict


def _point(sys, targets):
    """The x with <a_i, x> = targets[i] on the simple roots a_i."""
    return linalg.solve([sys.roots[i] for i in sys.simple_indices], targets)


def _sweep(sys, targets):
    return OrthogonalSet.special(sys, _point(sys, targets))


def _basis(sys, refine):
    return [linalg.vscale(Fraction(1, refine), linalg.vec(b)) for b in sys.lattice.basis]


# -- volume_analytic ----------------------------------------------------------------


def _volume_sets(sys, seed):
    """Positive, non-positive and translated sets, and singular sweeps."""
    rng = random.Random(seed)
    r = sys.ambient_dim
    positive = sampling.random_positive_set(rng, sys)
    return [
        positive,
        sampling.random_nonpositive_set(rng, sys),
        positive.translate(sampling.sample_rational_point(rng, r, 6, 5)),
        _sweep(sys, (1,) + (0,) * (r - 1)),
        _sweep(sys, (0,) * (r - 1) + (2,)).translate(sampling.sample_rational_point(rng, r, 3, 2)),
        OrthogonalSet.zero(sys),
    ]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_volume_matches_literal_sum(name):
    sys = builtin_system(name)
    for y in _volume_sets(sys, 81):
        assert fam.volume_analytic(y) == volume_oracle.volume_analytic(y), y.points


def test_corrupted_weight_breaks_direction_agreement(monkeypatch):
    sys = builtin_system("A2")
    y = sampling.random_positive_set(random.Random(83), sys)
    weights = list(sys.volume_weights)
    mu, ws, d = weights[1]
    i = next(i for i, c in enumerate(sys.chambers) if linalg.dot(mu, y.points[c]) != 0)
    weights[1] = (mu, ws[:i] + (ws[i] + 1,) + ws[i + 1 :], d)
    monkeypatch.setattr(sys, "volume_weights", weights)
    with pytest.raises(ArithmeticError, match="differs across directions"):
        fam.volume_analytic(y)


def test_rank_deficient_roots_are_refused():
    # A1 inside a plane: the roots span one dimension of two
    sys = system_from_dict(
        {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}
    )
    y = OrthogonalSet.special(sys, (1, 0))
    with pytest.raises(ValueError, match="full rank"):
        fam.volume_analytic(y)
    with pytest.raises(ValueError, match="full rank"):
        volume_oracle.volume_analytic(y)


# -- v_tilde_lattice: Y + k*Y[x0] from one sweep ------------------------------------------


def _explicit_count(y, basis, k, x0):
    """Lattice points of the box meeting every hull row of Y + k*Y[x0], built point by point."""
    sys = y.system
    xk = linalg.vscale(k, linalg.vec(x0))
    shifted = OrthogonalSet(
        sys, {c: linalg.vadd(p, linalg.matvec(sys.chamber_weyl(c), xk)) for c, p in y.points.items()}
    )
    rows = hull_rows(shifted, basis)  # ValueError unless positive
    coords = [linalg.coordinates_in_basis(basis, p) for p in shifted.points.values()]
    box = [range(math.floor(min(c)), math.ceil(max(c)) + 1) for c in zip(*coords)]
    return sum(fam._facet_side(rows, m) >= 0 for m in product(*box))


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_linear_shift_matches_explicit_set(name):
    sys = builtin_system(name)
    rng = random.Random(89)
    r = sys.ambient_dim
    sets = [_sweep(sys, (1,) * r), _sweep(sys, (1,) + (0,) * (r - 1))]
    sets.append(sets[0].translate(sampling.sample_rational_point(rng, r, 6, 3)))
    x0s = [_point(sys, (1,) * r), _point(sys, (0,) * (r - 1) + (1,))]
    for y, x0, refine in product(sets, x0s, (1, 2)):
        basis = _basis(sys, refine)
        for k in range(4):
            assert v_tilde_lattice(y, basis, k, x0) == _explicit_count(y, basis, k, x0), (y.points, x0, k)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_sweep_makes_a_nonpositive_set_positive(name):
    sys = builtin_system(name)
    r = sys.ambient_dim
    y = _sweep(sys, (-1,) * r).translate(sampling.sample_rational_point(random.Random(97), r, 4, 3))
    x0 = _point(sys, (2,) * r)
    basis = _basis(sys, 1)
    assert not y.is_positive
    with pytest.raises(ValueError, match="positive"):
        v_tilde_lattice(y, basis, 0, x0)
    for k in (1, 2):  # -1 + 2k >= 0 on every simple root
        assert v_tilde_lattice(y, basis, k, x0) == _explicit_count(y, basis, k, x0)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_nondominant_sweep_turns_negative(name):
    sys = builtin_system(name)
    r = sys.ambient_dim
    y = _sweep(sys, (2,) * r)
    x0 = _point(sys, (-1,) * r)
    basis = _basis(sys, 1)
    for k in (0, 1, 2):  # 2 - k >= 0
        assert v_tilde_lattice(y, basis, k, x0) == _explicit_count(y, basis, k, x0)
    for exact in (False, True):
        with pytest.raises(ValueError, match="lattice counting requires a positive orthogonal set"):
            v_tilde_lattice(y, basis, 3, x0, exact=exact)
    with pytest.raises(ValueError, match="positive"):
        _explicit_count(y, basis, 3, x0)


def test_one_set_with_two_sweep_points():
    sys = builtin_system("B2")
    y = _sweep(sys, (1, 1)).translate((Fraction(1, 7), Fraction(2, 11)))
    basis = _basis(sys, 2)
    x0s = [_point(sys, (1, 0)), _point(sys, (1, 2))]
    for x0 in x0s + x0s:
        for k in (1, 3):
            assert v_tilde_lattice(y, basis, k, x0) == _explicit_count(y, basis, k, x0), (x0, k)
    assert len(y._sweeps) == 2


def test_sweep_point_spellings_share_one_memo_entry():
    sys = builtin_system("A2")
    y = _sweep(sys, (1, 2))
    basis = _basis(sys, 1)
    spellings = [(2, 1), (Fraction(2), Fraction(1)), ("2", "1"), ("4/2", "1/1")]
    counts = {v_tilde_lattice(y, basis, 2, x0) for x0 in spellings}
    assert counts == {_explicit_count(y, basis, 2, (2, 1))}
    assert len(y._sweeps) == 1
