"""The integer orthogonal-set layer and the integer fit, against their Fraction oracles.

``OrthogonalSet`` keeps integer rows over one denominator: ``special`` multiplies
the cleared point by ``RestrictedRootSystem.chamber_weyl_rows``, ``add`` and
``translate`` combine rows, the walls are checked by cross-multiplication
against the ``integral_coroots`` rows that ``walls`` names, and ``volume_polytope`` reads the vertices' lattice
coordinates off one elimination of the rows.  ``set_oracle`` is the Fraction
layer this replaced, compared on every built-in, on B3, C3 and BC3 and on a
system with a center, with rational base points and translations.
``fit_exp_polynomial`` solves each residue class in integers; ``fit_oracle`` is
the Fraction Vandermonde solve.
"""

import random
from fractions import Fraction

import pytest

from galpairs import families as fam
from galpairs import linalg, root_data, sampling
from galpairs.families import OrthogonalSet
from galpairs.root_data import BUILTIN_NAMES
import fit_oracle
import root_oracle
import set_oracle
import volume_oracle

# entries <a_i, a_j^vee>, as in tests/test_fan_permutations.py
_CARTAN = {
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
}
# rank one in dimension two: a coroot with a zero entry, and no analytic volume
_CENTERED = {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}
NAMES = BUILTIN_NAMES + ("B3", "C3", "BC3", "centered")


def _system(name):
    if name in BUILTIN_NAMES:
        return root_data.builtin_system(name)
    if name == "BC3":
        return root_data._bc_system(3, name)
    if name == "centered":
        return root_data.system_from_dict(_CENTERED)
    return root_data._from_cartan(_CARTAN[name], name)


def _rational(rng, n, bound=6, den=5):
    return tuple(Fraction(rng.randint(-bound, bound), rng.randint(1, den)) for _ in range(n))


def _outcome(f):
    """f(), or the text of the ValueError it raises."""
    try:
        return f()
    except ValueError as exc:
        return f"ValueError: {exc}"


def _cases(sys, rng):
    """(set, oracle points) for each constructor: dominant and arbitrary sweeps, their
    sum, translations by rational points, a sum of dominant sweeps translated, the public
    constructor on the oracle's points, an antidominant sweep (a set that is not positive
    in every rank), the zero set and a sweep of "p/q" strings."""
    n, out = sys.ambient_dim, []
    for _ in range(2):
        x, z, u, v = (sampling.random_dominant_point(rng, sys), _rational(rng, n),
                      sampling.random_dominant_point(rng, sys), _rational(rng, n))
        sx, sz, su = (OrthogonalSet.special(sys, p) for p in (x, z, u))
        px, pz, pu = (set_oracle.special(sys, p) for p in (x, z, u))
        out += [(sx, px), (sz, pz), (sx.add(sz), set_oracle.add(px, pz)), (sz.translate(v), set_oracle.translate(pz, v))]
        shifted = set_oracle.translate(set_oracle.add(px, pu), v)
        out += [(sx.add(su).translate(v), shifted), (OrthogonalSet(sys, shifted), shifted)]
    anti = linalg.solve([sys.roots[i] for i in sys.simple_indices], [Fraction(-1, 2)] * sys.rank)
    out += [(OrthogonalSet.special(sys, anti), set_oracle.special(sys, anti))]
    out += [(set_oracle.zero(sys), set_oracle.special(sys, (0,) * n))]
    text = [str(c) for c in _rational(rng, n)]
    out += [(OrthogonalSet.special(sys, text), set_oracle.special(sys, text))]
    return out


@pytest.mark.parametrize("name", NAMES)
def test_sets_match_fraction_oracle(name):
    sys = _system(name)
    rng = random.Random(f"integer-sets/{name}")
    signs = set()
    for y, pts in _cases(sys, rng):
        assert y.points == pts
        assert y._integral == set_oracle.integral(sys, pts), pts
        want = set_oracle.validate(sys, pts)
        assert set_oracle.wall_coefficients(y) == want, pts
        assert y.is_positive == all(r >= 0 for r in want.values()), pts
        signs.add(y.is_positive)
        assert _outcome(lambda: fam.volume_polytope(y)) == _outcome(lambda: set_oracle.volume_polytope(sys, pts))
        assert _outcome(lambda: fam.volume_analytic(y)) == _outcome(lambda: volume_oracle.volume_analytic(y))
    assert signs == {True, False}


@pytest.mark.parametrize("name", NAMES)
def test_non_orthogonal_error_text(name):
    """One chamber point moved off its walls: the same first failing wall and the same text."""
    sys = _system(name)
    rng = random.Random(f"non-orthogonal/{name}")
    raised = 0
    for _ in range(6):
        pts = set_oracle.special(sys, _rational(rng, sys.ambient_dim))
        c = rng.choice(sys.chambers)
        pts[c] = root_oracle.vadd(pts[c], _rational(rng, sys.ambient_dim))
        want = _outcome(lambda: set_oracle.validate(sys, pts))
        assert _outcome(lambda: set_oracle.wall_coefficients(OrthogonalSet(sys, pts))) == want
        raised += isinstance(want, str)
    # in dimension one every difference is a multiple of the coroot
    assert raised if sys.ambient_dim > 1 else not raised


def _quasi_polynomial(rng, period, degree, kind, n):
    """n samples of a quasi-polynomial with random int or Fraction coefficients."""
    draw = (lambda: rng.randint(-9, 9)) if kind is int else (lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    polys = [[draw() for _ in range(degree + 1)] for _ in range(period)]
    return [sum(c * k**j for j, c in enumerate(polys[k % period])) for k in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_fit_matches_fraction_solve(seed):
    rng = random.Random(f"fit/{seed}")
    for period in range(1, 5):
        for kind in (int, Fraction):
            for max_degree in range(4):
                n = period * (max_degree + 2) + rng.randint(0, 4)
                samples = _quasi_polynomial(rng, period, rng.randint(0, max_degree), kind, n)
                for max_period in range(1, 5):
                    args = dict(max_period=max_period, max_degree=max_degree)
                    want = _outcome(lambda: fit_oracle.fit_exp_polynomial(samples, **args))
                    assert _outcome(lambda: fam.fit_exp_polynomial(samples, **args)) == want, (samples, args)
                    if max_period >= period:  # every class has max_degree + 2 samples
                        assert not isinstance(want, str), (samples, args)


@pytest.mark.parametrize("kind", (int, Fraction))
def test_unfittable_sequences_raise_the_same_text(kind):
    """Sequences that fit nothing: noise, too few samples per class, and 2^k."""
    rng = random.Random(f"unfittable/{kind.__name__}")
    noise = [kind(rng.randint(-10**6, 10**6)) for _ in range(24)]
    cases = [noise, noise[:4], [], [kind(2) ** k for k in range(12)]]
    for samples in cases:
        for max_period in range(1, 5):
            want = _outcome(lambda: fit_oracle.fit_exp_polynomial(samples, max_period=max_period))
            assert want.startswith("ValueError: no quasi-polynomial")
            assert _outcome(lambda: fam.fit_exp_polynomial(samples, max_period=max_period)) == want
