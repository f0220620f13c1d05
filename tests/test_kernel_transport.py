"""The kernel compiled on pairs of standard faces and moved over the Weyl group,
against the compile written pair by pair (``kernel_oracle.one_pass_tables``).

The two compiles number their covectors differently, so tables are compared in
canonical form: every id is replaced by its covector, and the entries of a
table and the terms of an entry are compared as multisets.  The thresholds an
orthogonal set reads off its chamber points are compared, covector by covector
where the kernel reads them, with Y projected by the Levi projection.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import kernel_oracle as oracle
from galpairs import linalg, root_data, sampling
from galpairs.families import KernelTables
from galpairs.root_data import BUILTIN_NAMES

# entries <a_i, a_j^vee>, as in tests/test_volume_rows.py
_CARTAN = {
    **root_data._CARTAN,
    "B3": [[2, -1, 0], [-1, 2, -2], [0, -1, 2]],
    "C3": [[2, -1, 0], [-1, 2, -1], [0, -2, 2]],
}
# rank one in dimension two: a system with a center
_CENTERED = {"ambient_dim": 2, "roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]], "simple_indices": [0]}


def _build(name):
    """The system built anew, so neither compile sees the other's caches."""
    if name == "centered":
        return root_data.system_from_dict(_CENTERED)
    if name.startswith("BC"):
        return root_data._bc_system(int(name[2:]), name)
    return root_data._from_cartan(_CARTAN[name], name)


def canonical(covectors, compiled):
    """Per cone: (top covectors, multiset of (r, zero covectors, multiset of terms))."""

    def cv(ids):
        return tuple(sorted(covectors[i] for i in ids))

    def entry(r, zeros, terms):
        return r, cv(zeros), frozenset(Counter((cv(t), cv(h), s) for t, h, s in terms).items())

    return [(cv(top), Counter(entry(*e) for e in table)) for top, table in compiled]


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("B3", "C3", "BC3", "centered"))
def test_orbit_compile_matches_one_pass(name):
    kernel = KernelTables(_build(name))
    assert kernel.covectors and len(set(kernel.covectors)) == len(kernel.covectors)
    covectors, compiled = oracle.one_pass_tables(_build(name))
    assert sorted(kernel.covectors) == sorted(covectors)
    assert canonical(kernel.covectors, kernel.compiled) == canonical(covectors, compiled)


def _read_against(kernel, q):
    """Ids the kernel compares with thresholds[q]: tau^G_q, and the tau_hat of every entry r = q."""
    ids = set(kernel.compiled[q][0])
    for _, table in kernel.compiled:
        for r, _, terms in table:
            if r == q:
                ids.update(c for _, hat, _ in terms for c in hat)
    return ids


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("centered",))
def test_thresholds_match_levi_projection(name):
    sys = _build(name)
    kernel = sys.kernel_tables
    rng = random.Random(107)
    sets = [sampling.random_positive_set(rng, sys) for _ in range(2)]
    sets += [sampling.random_nonpositive_set(rng, sys) for _ in range(2)]
    read = [_read_against(kernel, q) for q in range(len(sys.cones))]
    assert any(read)
    for y in sets:
        for q, ids in enumerate(read):
            nums, den = y.thresholds[q]
            want, d = kernel.point(oracle.projected(y, q))
            for c in ids:
                assert Fraction(nums[c], den) == Fraction(want[c], d), (q, kernel.covectors[c], y.points)


def test_compile_inverts_no_chamber_weyl_element(monkeypatch):
    """w_P^-1 comes from the fan, one per chamber; the compile inverts no w_P."""
    sys = _build("A3")
    weyl = {sys.chamber_weyl(p) for p in sys.chambers}
    inverted, invert = [], linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda m: inverted.append(tuple(map(tuple, m))) or invert(m))
    KernelTables(sys)
    assert inverted and weyl.isdisjoint(inverted)
