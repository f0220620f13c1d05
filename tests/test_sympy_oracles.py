"""Differential tests of the exact linear algebra against sympy.

sympy is used only here, as an independent oracle; the tests are skipped
when it is not installed.
"""

import random
from fractions import Fraction

import pytest

from galpairs import exact_linalg as el
from galpairs import linalg
from test_exact_linalg import tate_cases

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import invariant_factors  # noqa: E402


def _int_matrices(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            m[-1] = [2 * x - y for x, y in zip(m[0], m[1 % rows])]  # force a dependent row
        out.append(m)
    return out


def _rational_matrices(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            m[-1] = list(m[0])  # singular
        out.append(m)
    return out


def _to_sympy(m):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m])


def _from_sympy(x):
    x = sympy.Rational(x)
    return Fraction(int(x.p), int(x.q))


@pytest.mark.parametrize("m", _int_matrices(7, 60))
def test_smith_normal_form_invariant_factors(m):
    _, d, _ = el.smith_normal_form(m)
    expected = [int(f) for f in invariant_factors(sympy.Matrix(m), domain=sympy.ZZ)]
    assert el.diagonal_of(d) == expected


@pytest.mark.parametrize("m", _rational_matrices(11, 60))
def test_det_and_invert(m):
    sm = _to_sympy(m)
    det = _from_sympy(sm.det())
    assert linalg.det(m) == det
    if det == 0:
        with pytest.raises(ValueError):
            linalg.invert(m)
    else:
        inv = sm.inv()
        assert linalg.invert(m) == tuple(
            tuple(_from_sympy(inv[i, j]) for j in range(len(m))) for i in range(len(m))
        )


def _rectangular_rational_matrices(seed, count):
    """Rectangular rational matrices, about half of them rank-deficient."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        zeros = rng.choice((0.0, 0.5))
        m = [
            [Fraction(0) if rng.random() < zeros else Fraction(rng.randint(-9, 9), rng.randint(1, 4))
             for _ in range(cols)]
            for _ in range(rows)
        ]
        if rows > 1 and rng.random() < 0.5:
            m[-1] = [x / 2 - 3 * y for x, y in zip(m[0], m[1])]  # a dependent row
        out.append(m)
    return out


def _vec_from_sympy(v):
    return tuple(_from_sympy(x) for x in v)


def _sympy_solution(sm, b):
    """The solution with every free parameter 0, or None if inconsistent."""
    try:
        sol, params = sm.gauss_jordan_solve(_to_sympy([[x] for x in b]))
    except ValueError:
        return None
    return _vec_from_sympy(sol.subs({p: 0 for p in params}))


@pytest.mark.parametrize("m", _rectangular_rational_matrices(13, 80))
def test_rank_nullspace_and_solve(m):
    sm = _to_sympy(m)
    assert linalg.rank(m) == sm.rank()
    ncols = len(m[0])
    assert linalg.nullspace(m, ncols=ncols) == [_vec_from_sympy(v) for v in sm.nullspace()]
    rng = random.Random(str(m))
    inside = linalg.matvec(m, [Fraction(rng.randint(-5, 5)) for _ in range(ncols)])
    outside = [Fraction(rng.randint(-5, 5)) for _ in m]
    for b in (inside, outside):
        assert linalg.solve(m, b) == _sympy_solution(sm, b)
    assert linalg.solve(m, inside) is not None


def test_solve_sees_inconsistent_systems():
    matrices = _rectangular_rational_matrices(13, 80)
    rng = random.Random(5)
    inconsistent = 0
    for m in matrices:
        b = [Fraction(rng.randint(-5, 5)) for _ in m]
        inconsistent += _sympy_solution(_to_sympy(m), b) is None
        assert (linalg.solve(m, b) is None) == (_sympy_solution(_to_sympy(m), b) is None)
    assert inconsistent >= 10


@pytest.mark.parametrize("m", _rectangular_rational_matrices(17, 80))
def test_independent_subset_and_coordinates(m):
    vectors = [tuple(row) for row in m]
    greedy = []
    for v in vectors:
        if _to_sympy(greedy + [v]).rank() > len(greedy):
            greedy.append(v)
    assert linalg.independent_subset(vectors) == greedy
    if not greedy:
        return
    basis_cols = _to_sympy(greedy).T
    rng = random.Random(str(m))
    coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in greedy]
    targets = [linalg.combination(coeffs, greedy, len(m[0]))]
    targets.append(tuple(Fraction(rng.randint(-5, 5)) for _ in m[0]))
    for v in targets:
        assert linalg.coordinates_in_basis(greedy, v) == _sympy_solution(basis_cols, v)
    assert linalg.coordinates_in_basis(greedy, targets[0]) == tuple(coeffs)


def _invariant_chains(seed, count):
    """Random divisibility chains d_1 | d_2 | ... with every d_i >= 2 (some empty)."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        chain, d = [], rng.randint(2, 6)
        for _ in range(rng.randint(0, 3)):
            chain.append(d)
            d *= rng.randint(1, 4)
        out.append(tuple(chain))
    return out


@pytest.mark.parametrize("a, b", zip(_invariant_chains(19, 40), _invariant_chains(23, 40)))
def test_direct_sum_invariant_factors(a, b):
    g = el.FiniteAbelianGroup(a).direct_sum(el.FiniteAbelianGroup(b))
    fs = a + b
    expected = []
    if fs:
        diagonal = sympy.diag(*fs)
        expected = [int(f) for f in invariant_factors(diagonal, domain=sympy.ZZ) if f != 1]
    assert list(g.invariant_factors) == expected


@pytest.mark.parametrize("x", tate_cases(range(1)))
def test_tate_h_minus1_is_the_torsion_of_the_coinvariants(x):
    # sympy writes each action in the lattice basis and takes the invariant
    # factors of L / I_G L; the torsion is those factors >= 2
    basis = sympy.Matrix(x.lattice.basis).T
    r = basis.cols
    expected = []
    if r:
        blocks = []
        for g in x.actions:
            coords, params = basis.gauss_jordan_solve(sympy.Matrix(g) * basis)
            assert not params and all(c.is_integer for c in coords)
            blocks.append(coords - sympy.eye(r))
        factors = invariant_factors(sympy.Matrix.hstack(*blocks), domain=sympy.ZZ)
        expected = [int(f) for f in factors if f >= 2]
    assert list(el.tate_h_minus1(x).invariant_factors) == expected
