"""The bordered Smith normal form over whole rows and columns, kept as the oracle of
``galpairs.exact_linalg.smith_normal_form``.

It searches the whole remaining block for every pivot and applies each row and
column operation across the full bordered width and height.  The library's
version stops its search at an entry of absolute value 1 and touches only the
entries where the pivot row or column is nonzero; both must return the same
(U, D, V).  Only the tests call this.
"""

from __future__ import annotations

import math
from typing import Sequence

from galpairs import linalg
from galpairs.exact_linalg import IntMat, _as_int_matrix


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular, and D diagonal
    with nonnegative entries forming a divisibility chain d_1 | d_2 | ... .

    The n x k matrix A = m is bordered as B = [[A, I_n], [I_k, 0]], its zero
    block left out: row operations act on the top rows [A | U] and column
    operations on the left columns [A ; V], so U and V ride along with A.  The
    pivot is the remaining entry of smallest absolute value, then the
    uppermost, then the leftmost, so identical inputs give identical (U, D, V).
    A remainder left in its row or column starts a new search; once both are
    clear, the first row holding an entry the pivot does not divide is added
    to its row.  Rows of unequal length raise ValueError.
    """
    a = _as_int_matrix(m)
    if len({len(row) for row in a}) > 1:
        raise ValueError("rows of unequal length do not form a matrix")
    n = len(a)
    k = len(a[0]) if a else 0
    b = [row + list(e) for row, e in zip(a, linalg.identity(n))]
    b += [list(e) for e in linalg.identity(k)]
    t = 0
    while t < min(n, k):
        best = None
        for i in range(t, n):
            for j in range(t, k):
                if b[i][j] and (best is None or abs(b[i][j]) < best):
                    best, pi, pj = abs(b[i][j]), i, j
        if best is None:
            break
        b[t], b[pi] = b[pi], b[t]
        if pj != t:
            for row in b:
                row[t], row[pj] = row[pj], row[t]
        if b[t][t] < 0:
            b[t] = [-x for x in b[t]]
        p = b[t][t]
        for i in range(t + 1, n):
            if b[i][t]:
                q = b[i][t] // p
                b[i] = [x - q * y for x, y in zip(b[i], b[t])]
        for j in range(t + 1, k):
            if b[t][j]:
                q = b[t][j] // p
                for row in b:
                    row[j] -= q * row[t]
        if any(b[i][t] for i in range(t + 1, n)) or any(b[t][t + 1 : k]):
            continue  # a remainder is left in the pivot's column or row
        # p divides every entry of the remaining block iff it divides each row's gcd
        bad = next((i for i in range(t + 1, n) if math.gcd(*b[i][t + 1 : k]) % p), None)
        if bad is None:
            t += 1
        else:
            b[t] = [x + y for x, y in zip(b[t], b[bad])]
    return [row[k:] for row in b[:n]], [row[:k] for row in b[:n]], b[n:]
