"""The kernel compiled on pairs of standard faces and moved over the Weyl group,
in simple-root coordinates, against the compile written pair by pair from the
literal per-cone Levi data (``kernel_oracle.one_pass_tables``).

The two compiles number their covectors differently, so tables are compared in
canonical form: the compiled masks are read back as id lists (``as_ids``), every
id is replaced by its covector, and the entries of a table and the terms of an
entry are compared as multisets.  The thresholds an orthogonal set reads off its
chamber points are read back bit by bit and compared, covector by covector where
the kernel reads them, with Y projected by the Levi projection.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import kernel_oracle as oracle
from galpairs import linalg, sampling
from galpairs.families import KernelTables
from galpairs.root_data import BUILTIN_NAMES, RestrictedRootSystem
from test_fan_permutations import _build


def canonical(covectors, compiled):
    """Per cone: (top covectors, multiset of (r, zero covectors, multiset of terms))."""

    def cv(ids):
        return tuple(sorted(covectors[i] for i in ids))

    def entry(r, zeros, terms):
        return r, cv(zeros), frozenset(Counter((cv(t), cv(h), s) for t, h, s in terms).items())

    return [(cv(top), Counter(entry(*e) for e in table)) for top, table in compiled]


def as_ids(sys, kernel):
    """``kernel.compiled`` read back into the oracle's form, (top ids, [(r, zero ids, [(tau ids,
    tau_hat ids, sign)])]), once each mask is seen to hold only the bits of its kind, every threshold
    bit to lie in the block of the chamber it is read against, ``chamber_below`` of its cone, and the
    blocks to follow the sign bits, one per chamber in ``chambers`` order."""
    n, position = len(kernel.covectors), {p: i for i, p in enumerate(sys.chambers)}
    blocks = sorted((b, i, c) for c, slots in enumerate(kernel.slots) for i, b in slots)
    assert [b for b, _, _ in blocks] == list(range(n, kernel.full.bit_length()))
    assert [i for _, i, _ in blocks] == sorted(i for _, i, _ in blocks)
    assert len({(i, c) for _, i, c in blocks}) == len(blocks)  # one bit per (P, c)
    owner = {b: (i, c) for b, i, c in blocks}

    def signs(mask):
        return [c for c in range(n) if mask >> c & 1]

    def thresholds(mask, q):
        bits = [owner[b] for b in range(n, mask.bit_length()) if mask >> b & 1]
        assert all(i == position[sys.chamber_below(q)] for i, _ in bits), q
        return [c for _, c in bits]

    out = []
    for q, (top, table) in enumerate(kernel.compiled):
        assert not signs(top)
        entries = []
        for r, zeros, terms in table:
            assert zeros >> n == 0
            entries.append((r, signs(zeros), [(signs(m), thresholds(m, r), s) for m, s in terms]))
        out.append((thresholds(top, q), entries))
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


def _read_against(compiled, q):
    """Ids the kernel compares with Y_q: those of the threshold bits of tau^G_q and of the terms of every entry r = q,
    in ``as_ids`` form."""
    top, _ = compiled[q]
    return set(top).union(*(h for _, table in compiled for r, _, terms in table if r == q for _, h, _ in terms))


def _values(y, kernel):
    """bit -> <c, N_P> of its (P, c), read back off ``y.thresholds``, once each covector's values are seen to be
    sorted and its masks to add the bits of its slots one at a time."""
    values, masks = y.thresholds
    out = {}
    for c, slots in enumerate(kernel.slots):
        assert values[c] == sorted(values[c]) and masks[c][0] == 0 and len(masks[c]) == len(slots) + 1
        bits = [(masks[c][k + 1] ^ masks[c][k]).bit_length() - 1 for k in range(len(slots))]
        assert [1 << b for b in bits] == [masks[c][k + 1] ^ masks[c][k] for k in range(len(slots))]
        assert sorted(bits) == sorted(b for _, b in slots)
        out.update(zip(bits, values[c]))
    return out


@pytest.mark.parametrize("name", BUILTIN_NAMES + ("centered",))
def test_thresholds_match_levi_projection(name):
    sys = _build(name)
    kernel = sys.kernel_tables
    rng = random.Random(107)
    sets = [sampling.random_positive_set(rng, sys) for _ in range(2)]
    sets += [sampling.random_nonpositive_set(rng, sys) for _ in range(2)]
    compiled = as_ids(sys, kernel)
    read = [_read_against(compiled, q) for q in range(len(sys.cones))]
    assert any(read)
    slot = {(i, c): b for c, slots in enumerate(kernel.slots) for i, b in slots}
    for i, p in enumerate(sys.chambers):  # a chamber's ids are those read against its cones' Y_q
        want = set().union(*(c for q, c in enumerate(read) if sys.chamber_below(q) == p))
        assert {c for j, c in slot if j == i} == want
    for y in sets:
        values, den = _values(y, kernel), y._integral[1]
        for q, want_ids in enumerate(read):
            i, yq = sys.chambers.index(sys.chamber_below(q)), oracle.projected(y, q)
            for c in want_ids:
                want = linalg.dot(kernel.covectors[c], yq)
                assert Fraction(values[slot[i, c]], den) == want, (q, kernel.covectors[c], y.points)


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
