"""The eager fraction-free elimination, kept as the oracle of ``galpairs.linalg._bareiss``.

Each step rewrites every other row as (p * row - row[c] * pivot row) / d, also
a row whose entry in the pivot column is 0, which is then only scaled by
p / d.  The library leaves such a row stale and scales it once, when a pivot
column reads it or at the end; both must return the same (pivots, d) and
leave the same rows.  Only the tests call this.
"""

from __future__ import annotations


def bareiss(rows: list) -> tuple[list[int], int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place, every row
    rewritten at every step where it changes: (pivot columns, d) as ``_bareiss``."""
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
