"""Exact linear algebra over the rationals.

Vectors are tuples and matrices are tuples of row tuples, of ints or
Fractions.  This module is the one home of the dot product, the matrix
products and the identity.  ``dot``, ``matvec``, ``vecmat`` and ``matmul``
keep the input's type: int entries give int results, and a Fraction anywhere
in a product gives a Fraction.  ``identity`` has int entries; ``vec`` makes
Fraction vectors.

Every elimination is the one fraction-free integer routine ``_bareiss``:
``rank``, ``nullspace``, ``solve``, ``invert``, ``det`` and
``independent_subset`` scale each row to integers once and read their answer
off its pivots, its rows and its final pivot d, and ``coordinate_matrix``
reads the coordinates of many vectors in one basis off a single elimination.
Integer hull normals use ``_bareiss`` directly.
Everything is exact; no floating point appears anywhere in this package.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable, Optional, Sequence

Vec = tuple
Mat = tuple


def vec(entries: Iterable) -> Vec:
    return tuple(x if type(x) is Fraction else Fraction(x) for x in entries)


def zero_vec(n: int) -> Vec:
    return (Fraction(0),) * n


def identity(n: int) -> Mat:
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def dot(a: Vec, b: Vec):
    return sum(map(mul, a, b))


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
    return tuple(dot(v, col) for col in zip(*m))


def matmul(a: Mat, b: Mat) -> Mat:
    bt = transpose(b)
    return tuple(tuple(dot(row, col) for col in bt) for row in a)


def transpose(m: Mat) -> Mat:
    return tuple(zip(*m)) if m else ()


def _bareiss(rows: list) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Returns (pivot columns, d).  Afterwards row i < rank has d at pivots[i]
    and 0 at every other pivot column: it is d times row i of the reduced row
    echelon form.  The rows from rank on are zero.  Each step replaces every
    other row by (p * row - row[c] * pivot row) / d_prev, a minor of the
    input, so every division is exact (Bareiss, Math. Comp. 1968).  A row
    swap negates the incoming pivot row, so d is the determinant of a
    full-rank square input (1 for no rows).
    """
    pivots: list[int] = []
    d = 1
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        i = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if i is None:
            continue
        if i != r:
            rows[r], rows[i] = [-x for x in rows[i]], rows[r]
        top = rows[r]
        p = top[c]
        for j, row in enumerate(rows):
            f = row[c]
            if j != r and (f or p != d):
                rows[j] = [(p * x - f * y) // d for x, y in zip(row, top)]
        pivots.append(c)
        d = p
    return pivots, d


def _integer_rows(m: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """The rows of m, each scaled to integers by the lcm of its denominators."""
    return [clear_denominators(row)[0] for row in m]


def _echelon(m: Sequence[Sequence]) -> tuple[list[list[Fraction]], list[int]]:
    """(nonzero rows of the reduced row echelon form of m, pivot columns)."""
    rows = _integer_rows(m)
    pivots, d = _bareiss(rows)
    return [[Fraction(x, d) for x in row] for row in rows[: len(pivots)]], pivots


def rank(m: Sequence[Sequence]) -> int:
    return len(_bareiss(_integer_rows(m))[0])


def nullspace(m: Sequence[Sequence], ncols: Optional[int] = None) -> list[Vec]:
    """Basis of the right kernel of m (rows are linear functionals)."""
    if ncols is None:
        if not m:
            raise ValueError("need ncols for an empty matrix")
        ncols = len(m[0])
    rows, pivots = _echelon(m)
    basis = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


def solve(m: Sequence[Sequence], b: Sequence) -> Optional[Vec]:
    """One solution x of m @ x = b, or None if inconsistent."""
    ncols = len(m[0]) if m else 0
    rows, pivots = _echelon([tuple(row) + (y,) for row, y in zip(m, b)])
    if ncols in pivots:
        return None  # pivot in the augmented column
    x = [Fraction(0)] * ncols
    for row, pc in zip(rows, pivots):
        x[pc] = row[ncols]
    return tuple(x)


def _require_square(m: Sequence[Sequence]) -> None:
    if any(len(row) != len(m) for row in m):
        raise ValueError("matrix is not square")


def det(m: Sequence[Sequence]) -> Fraction:
    _require_square(m)
    scaled = [clear_denominators(row) for row in m]
    pivots, d = _bareiss([row for row, _ in scaled])
    if len(pivots) < len(m):
        return Fraction(0)
    return Fraction(d, math.prod(s for _, s in scaled))


def invert(m: Sequence[Sequence]) -> Mat:
    _require_square(m)
    n = len(m)
    eye = identity(n)
    rows, pivots = _echelon([tuple(row) + eye[i] for i, row in enumerate(m)])
    if pivots != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(row[n:]) for row in rows)


def independent_subset(vectors: Sequence[Vec]) -> list[Vec]:
    """Greedy maximal linearly independent subset, preserving order: the pivot
    columns of one elimination with the vectors as columns."""
    pivots, _ = _bareiss(_integer_rows(transpose(tuple(vectors))))
    return [vectors[j] for j in pivots]


def coordinates_in_basis(basis: Sequence[Vec], v: Vec) -> Optional[Vec]:
    """Coefficients c with sum(c_i * basis_i) = v, or None if v is outside."""
    if not basis:
        return () if is_zero_vec(v) else None
    cols = transpose(tuple(basis))
    return solve(cols, v)


def coordinate_matrix(
    basis: Sequence[Vec], vectors: Sequence[Vec]
) -> Optional[tuple[list[list[int]], int]]:
    """(C, d), d > 0, with C[i][j] / d the i-th coordinate of vectors[j] in the basis.

    One ``_bareiss`` of [basis | vectors], taken as columns, serves every
    vector: row i < len(basis) then holds d times the i-th coordinates.  None
    when the basis is dependent or a vector lies outside its span (a pivot
    past the basis columns).
    """
    k = len(basis)
    rows = _integer_rows(transpose(tuple(basis) + tuple(vectors)))
    pivots, d = _bareiss(rows)
    if pivots != list(range(k)):
        return None
    sign = 1 if d > 0 else -1
    return [[sign * x for x in row[k:]] for row in rows[:k]], sign * d


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
    """(N, d) with v = N / d, N integral and d > 0 the lcm of the denominators.

    Entries are ints or Fractions.
    """
    d = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


def scale_to_integers(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Smallest positive multiple of v with integer coprime entries."""
    ints, _ = clear_denominators(v)
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g else ints
