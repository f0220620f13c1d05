"""The Fraction Vandermonde fit, kept as the oracle of ``families.fit_exp_polynomial``.

The library clears the samples once and solves each residue class's
Vandermonde system with one integer ``linalg._bareiss``, checking every sample
in integers.  This is the fit it replaced: Fraction rows k^j, one
``linalg.solve`` per class and a Fraction ``matvec`` over all of its samples.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from galpairs import linalg
from galpairs.families import ExpPolyFit


def fit_exp_polynomial(samples: Sequence, max_period: int = 4, max_degree: int = 3) -> ExpPolyFit:
    vals = [Fraction(v) for v in samples]
    n = len(vals)
    for period in range(1, max_period + 1):
        fits: list[tuple[Fraction, ...]] = []
        for cls in range(period):
            ks = range(cls, n, period)
            if len(ks) < max_degree + 2:
                break
            rows = [[Fraction(k) ** j for j in range(max_degree + 1)] for k in ks]
            coeffs = linalg.solve(rows[: max_degree + 1], [vals[k] for k in ks[: max_degree + 1]])
            if linalg.matvec(rows, coeffs) != tuple(vals[k] for k in ks):
                break
            fits.append(coeffs)
        else:
            return ExpPolyFit(period, fits)
    raise ValueError(
        f"no quasi-polynomial of period <= {max_period}, degree <= {max_degree} "
        f"fits the {n} samples"
    )
