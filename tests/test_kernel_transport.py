"""The kernel compiled on pairs of standard faces and moved over the Weyl group,
in simple-root coordinates, against the compile written pair by pair from the
literal per-cone Levi data (``kernel_oracle.one_pass_tables``).

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
from galpairs import linalg, sampling
from galpairs.families import KernelTables, _Point
from galpairs.root_data import BUILTIN_NAMES, RestrictedRootSystem
from test_fan_permutations import _build


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


# A1^4 is in dimension 16; B2-half has simple coordinates that are not integral
@pytest.mark.parametrize("name", BUILTIN_NAMES + ("B3", "C3", "BC3", "centered", "A1^4", "B2-half"))
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
            point = _Point(sys, oracle.projected(y, q), y)
            want, d = point.dots, point.d
            for c in want_ids:
                assert Fraction(row[c], den) == Fraction(want[c], d), (q, kernel.covectors[c], y.points)


@pytest.mark.parametrize("name", ["A3", "B3", "A1^4"])
def test_compile_reads_no_ambient_matrix(name, monkeypatch):
    """The compile works in simple-root coordinates: it reads no Weyl matrix, so it inverts
    no w_P, and it inverts nothing larger than rank x rank (A1^4 is in dimension 16)."""
    sys = _build(name)

    def refuse(*args, **kwargs):
        raise AssertionError("read a Weyl matrix")

    # the one Weyl table: a property of the class shadows the value each system stores
    monkeypatch.setattr(RestrictedRootSystem, "chamber_weyl_rows", property(refuse), raising=False)
    sizes, invert = [], linalg.invert
    monkeypatch.setattr(linalg, "invert", lambda m: sizes.append(len(m)) or invert(m))
    kernel = KernelTables(sys)
    assert sizes and max(sizes) <= sys.rank
    monkeypatch.undo()
    fresh = KernelTables(_build(name))
    assert canonical(kernel.covectors, as_ids(sys, kernel)) == canonical(fresh.covectors, as_ids(sys, fresh))
