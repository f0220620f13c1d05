"""The kernel compiled on pairs of standard faces and moved over the Weyl group,
against the compile written pair by pair (``kernel_oracle.one_pass_tables``).

The two compiles number their covectors differently, so tables are compared in
canonical form: the compiled masks are read back as id lists (``as_ids``), every
id is replaced by its covector, and the entries of a table and the terms of an
entry are compared as multisets.  The thresholds an orthogonal set reads off its
chamber points are compared, covector by covector where the kernel reads them,
with Y projected by the Levi projection.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import kernel_oracle as oracle
import root_oracle
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


def ids(mask, parity):
    """The ids c whose bit 2c + parity is set: their sign bits (0) or threshold bits (1)."""
    return [c for c in range(mask.bit_length()) if mask >> 2 * c + parity & 1]


def as_ids(sys, kernel):
    """``kernel.compiled`` read back into the oracle's form, (top ids, [(r, zero ids, [(tau ids,
    tau_hat ids, sign)])]), once each mask is seen to hold only the bits of its kind and each
    chamber to be ``chamber_below`` of its cone."""
    out = []
    for q, (p, top, table) in enumerate(kernel.compiled):
        assert p == sys.chamber_below(q) and not ids(top, 0)
        entries = []
        for r, pr, zeros, terms in table:
            assert pr == sys.chamber_below(r) and not ids(zeros, 1)
            entries.append((r, ids(zeros, 0), [(ids(m, 0), ids(m, 1), s) for m, s in terms]))
        out.append((ids(top, 1), entries))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("B3", "C3", "BC3", "centered"))
def test_orbit_compile_matches_one_pass(name):
    sys = _build(name)
    kernel = KernelTables(sys)
    assert kernel.covectors and len(set(kernel.covectors)) == len(kernel.covectors)
    covectors, compiled = oracle.one_pass_tables(_build(name))
    assert sorted(kernel.covectors) == sorted(covectors)
    assert canonical(kernel.covectors, as_ids(sys, kernel)) == canonical(covectors, compiled)


def _read_against(kernel, q):
    """Ids the kernel compares with Y_q: the threshold bits of tau^G_q and of the terms of every entry r = q."""
    read = set(ids(kernel.compiled[q][1], 1))
    for _, _, table in kernel.compiled:
        for r, _, _, terms in table:
            if r == q:
                read.update(c for m, _ in terms for c in ids(m, 1))
    return read


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("centered",))
def test_thresholds_match_levi_projection(name):
    sys = _build(name)
    kernel = sys.kernel_tables
    rng = random.Random(107)
    sets = [sampling.random_positive_set(rng, sys) for _ in range(2)]
    sets += [sampling.random_nonpositive_set(rng, sys) for _ in range(2)]
    read = [_read_against(kernel, q) for q in range(len(sys.cones))]
    assert any(read)
    for p in sys.chambers:  # a chamber's ids are those read against its cones' Y_q
        assert kernel.read[p] == sorted(set().union(*(c for q, c in enumerate(read) if sys.chamber_below(q) == p)))
    for y in sets:
        for q, want_ids in enumerate(read):
            p, den = sys.chamber_below(q), y._integral[1]
            row = dict(zip(kernel.read[p], y.thresholds[p]))
            want, d = kernel.point(oracle.projected(y, q))
            for c in want_ids:
                assert Fraction(row[c], den) == Fraction(want[c], d), (q, kernel.covectors[c], y.points)


def test_compile_inverts_no_chamber_weyl_element(monkeypatch):
    """w_P^-1 comes from the fan, one per chamber; the compile inverts no w_P."""
    sys = _build("A3")
    weyl = {root_oracle.chamber_weyl(sys, p) for p in sys.chambers}
    inverted, invert = [], linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda m: inverted.append(tuple(map(tuple, m))) or invert(m))
    KernelTables(sys)
    assert inverted and weyl.isdisjoint(inverted)
