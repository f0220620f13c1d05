"""Exact linear algebra over the rationals.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Everything
is immutable and every computation is exact; no floating point appears
anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence

Vec = tuple
Mat = tuple


def vec(entries: Iterable) -> Vec:
    return tuple(Fraction(x) for x in entries)


def mat(rows: Iterable[Iterable]) -> Mat:
    return tuple(vec(r) for r in rows)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vscale(c, a: Vec) -> Vec:
    c = Fraction(c)
    return tuple(c * x for x in a)


def is_zero_vec(a: Vec) -> bool:
    return all(x == 0 for x in a)


def combination(coeffs: Sequence, vectors: Sequence[Vec], n: int) -> Vec:
    """sum(c_i * vectors_i) in dimension n."""
    out = zero_vec(n)
    for c, v in zip(coeffs, vectors):
        out = vadd(out, vscale(c, v))
    return out


def proportionality(a: Vec, b: Vec) -> Optional[Fraction]:
    """c with a = c * b (None if not proportional).  a = 0 gives c = 0."""
    if is_zero_vec(a):
        return Fraction(0)
    c = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return None
        else:
            ratio = Fraction(x) / y
            if c is None:
                c = ratio
            elif ratio != c:
                return None
    return c


def sign_vector(covectors: Sequence[Vec], v: Vec) -> tuple[int, ...]:
    """Signs (-1, 0, +1) of each covector at v."""
    out = []
    for h in covectors:
        x = dot(h, v)
        out.append(0 if x == 0 else (1 if x > 0 else -1))
    return tuple(out)


def matvec(m: Mat, v: Vec) -> Vec:
    return tuple(dot(row, v) for row in m)


def vecmat(v: Vec, m: Mat) -> Vec:
    """Row vector times matrix (covector pullback)."""
    n = len(m[0])
    return tuple(sum((v[i] * m[i][j] for i in range(len(m))), Fraction(0)) for j in range(n))


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def _echelon(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot column list)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(m: Sequence[Sequence]) -> int:
    rows = [[Fraction(x) for x in row] for row in m]
    _, pivots = _echelon(rows)
    return len(pivots)


def nullspace(m: Sequence[Sequence], ncols: Optional[int] = None) -> list[Vec]:
    """Basis of the right kernel of m (rows are linear functionals)."""
    rows = [[Fraction(x) for x in row] for row in m]
    if ncols is None:
        if not rows:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(rows[0])
    if not rows:
        return [tuple(identity(ncols)[i]) for i in range(ncols)]
    rows, pivots = _echelon(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[Vec]:
    """One solution x of m @ x = b, or None if inconsistent."""
    rows = [[Fraction(x) for x in row] + [Fraction(y)] for row, y in zip(m, b)]
    ncols = len(m[0]) if m else 0
    rows, pivots = _echelon(rows)
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        x[pc] = rows[r][ncols]
    return tuple(x)


def det(m: Sequence[Sequence]) -> Fraction:
    n = len(m)
    rows = [[Fraction(x) for x in row] for row in m]
    result = Fraction(1)
    for c in range(n):
        pivot_row = None
        for i in range(c, n):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return Fraction(0)
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            result = -result
        result *= rows[c][c]
        inv = 1 / rows[c][c]
        for i in range(c + 1, n):
            if rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return result


def invert(m: Sequence[Sequence]) -> Mat:
    n = len(m)
    rows = [[Fraction(x) for x in row] + list(identity(n)[i]) for i, row in enumerate(m)]
    rows, pivots = _echelon(rows)
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def independent_subset(vectors: Sequence[Vec]) -> list[Vec]:
    """Greedy maximal linearly independent subset, preserving order."""
    chosen: list[Vec] = []
    for v in vectors:
        if is_zero_vec(v):
            continue
        if rank(chosen + [v]) > len(chosen):
            chosen.append(v)
    return chosen


def coordinates_in_basis(basis: Sequence[Vec], v: Vec) -> Optional[Vec]:
    """Coefficients c with sum(c_i * basis_i) = v, or None if v is outside."""
    if not basis:
        return () if is_zero_vec(v) else None
    cols = transpose(tuple(basis))
    return solve(cols, v)


def projection_matrix(target_basis: Sequence[Vec], complement_basis: Sequence[Vec]) -> Mat:
    """Matrix of the projection onto span(target) along span(complement).

    The two spans must be complementary in the ambient space.
    """
    n = len(target_basis[0]) if target_basis else len(complement_basis[0])
    cols = list(target_basis) + list(complement_basis)
    if len(cols) != n:
        raise ValueError("bases are not complementary")
    b = transpose(tuple(cols))
    b_inv = invert(b)
    k = len(target_basis)
    # keep target coordinates, zero out complement coordinates
    selector = tuple(
        tuple(Fraction(1) if (i == j and i < k) else Fraction(0) for j in range(n))
        for i in range(n)
    )
    return matmul(b, matmul(selector, b_inv))


def clear_denominators(v: Sequence) -> tuple[tuple[int, ...], int]:
    """(N, d) with v = N / d, N integral and d > 0 the lcm of the denominators."""
    fracs = [Fraction(x) for x in v]
    d = math.lcm(*(x.denominator for x in fracs))
    return tuple(x.numerator * (d // x.denominator) for x in fracs), d


def scale_to_integers(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Smallest positive multiple of v with integer coprime entries."""
    ints, _ = clear_denominators(v)
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g else ints
