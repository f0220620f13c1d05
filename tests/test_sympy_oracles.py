"""Differential tests of the exact linear algebra against sympy.

sympy is used only here, as an independent oracle; the tests are skipped
when it is not installed.
"""

import random
from fractions import Fraction

import pytest

from galpairs import exact_linalg as el
from galpairs import linalg

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
