"""Integer lattices, Smith normal form and Tate-style cohomology of lattices.

The central computation is ``tate_h_minus1``: given a lattice with an action
of a finite integer matrix group, return the finite abelian group
ker(norm map) / (augmentation sublattice), presented by invariant factors and
read as the torsion of the coinvariants.
For cocharacter lattices of tori this group classifies the first Galois
cohomology of the torus.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Sequence

from . import linalg

IntMat = list[list[int]]


def _as_int(x) -> int:
    """The one reader of integer fields: an int or a whole Fraction, else ValueError
    (for a bool or a float too)."""
    if isinstance(x, Fraction) and x.denominator == 1:
        return x.numerator
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"non-integer entry {x!r}")
    return x


def _as_list(xs) -> Sequence:
    """xs itself when it is a list or tuple; ValueError naming it otherwise."""
    if not isinstance(xs, (list, tuple)):
        raise ValueError(f"expected a list, got {xs!r}")
    return xs


def _as_dict(data) -> dict:
    """data itself when it is a dict (a JSON object); ValueError naming it otherwise."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {data!r}")
    return data


def _as_ints(xs) -> tuple[int, ...]:
    return tuple(_as_int(x) for x in _as_list(xs))


def _as_int_matrix(m: Sequence[Sequence[int]]) -> IntMat:
    return [[_as_int(x) for x in _as_list(row)] for row in _as_list(m)]


def _integer_coordinate_matrix(basis: Sequence, vectors: Iterable, error: str) -> IntMat:
    """Matrix whose columns are the integer coordinates of the vectors in the basis.

    Raises ValueError(error) when a vector is not in the lattice the basis
    spans: outside its span, or with a coordinate that is not an integer.
    """
    coords = linalg.coordinate_matrix(basis, tuple(vectors))
    if coords is None:
        raise ValueError(error)
    cols, d = coords
    if any(x % d for row in cols for x in row):
        raise ValueError(error)
    return [[x // d for x in row] for row in cols]


def smith_normal_form(m: Sequence[Sequence[int]]) -> tuple[IntMat, IntMat, IntMat]:
    """Return (U, D, V) with U @ m @ V = D, U and V unimodular.

    D is diagonal with nonnegative entries forming a divisibility chain
    d_1 | d_2 | ... .  The pivot choice is deterministic: at each step the
    remaining entry of smallest absolute value is selected, ties broken by
    smallest row index then smallest column index, so identical inputs give
    identical (U, D, V).
    """
    a = _as_int_matrix(m)
    nrows = len(a)
    ncols = len(a[0]) if nrows else 0
    u = [list(row) for row in linalg.identity(nrows)]
    v = [list(row) for row in linalg.identity(ncols)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for row in a:
            row[dst] += c * row[src]
        for row in v:
            row[dst] += c * row[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(nrows, ncols):
        # deterministic pivot: smallest |value|, then uppermost, then leftmost
        pivot = None
        best = None
        for i in range(t, nrows):
            for j in range(t, ncols):
                if a[i][j] != 0:
                    key = abs(a[i][j])
                    if best is None or key < best:
                        best = key
                        pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)

        dirty = False
        for i in range(t + 1, nrows):
            if a[i][t] != 0:
                q = a[i][t] // a[t][t]
                add_row(t, i, -q)
                if a[i][t] != 0:
                    dirty = True
        for j in range(t + 1, ncols):
            if a[t][j] != 0:
                q = a[t][j] // a[t][t]
                add_col(t, j, -q)
                if a[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # row and column are clear; enforce divisibility of the remaining block
        bad = None
        for i in range(t + 1, nrows):
            for j in range(t + 1, ncols):
                if a[i][j] % a[t][t] != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        t += 1

    return u, a, v


def diagonal_of(d: IntMat) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


@dataclass(frozen=True)
class FiniteAbelianGroup:
    """Finite abelian group given by invariant factors d_1 | d_2 | ... (each >= 2)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = self.invariant_factors
        if any(f < 2 for f in fs):
            raise ValueError(f"invariant factors must be >= 2, got {fs}")
        for x, y in zip(fs, fs[1:]):
            if y % x != 0:
                raise ValueError(f"not a divisibility chain: {fs}")

    @property
    def order(self) -> int:
        n = 1
        for f in self.invariant_factors:
            n *= f
        return n

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def direct_sum(self, other: "FiniteAbelianGroup") -> "FiniteAbelianGroup":
        fs = self.invariant_factors + other.invariant_factors
        diagonal = [[f * x for x in row] for f, row in zip(fs, linalg.identity(len(fs)))]
        return cokernel_structure(diagonal, len(fs))

    def __str__(self) -> str:
        if self.is_trivial:
            return "1"
        return " x ".join(f"Z/{f}" for f in self.invariant_factors)


TRIVIAL_GROUP = FiniteAbelianGroup(())


def cokernel_structure(m: Sequence[Sequence[int]], ambient_rank: int) -> FiniteAbelianGroup:
    """Structure of Z^ambient_rank / (integer column span of m).

    Raises ValueError if the quotient is infinite.
    """
    if ambient_rank == 0:
        return TRIVIAL_GROUP
    if not m or not m[0]:
        raise ValueError("quotient is infinite (zero map onto positive rank)")
    _, d, _ = smith_normal_form(m)
    diag = diagonal_of(d)
    nonzero = [x for x in diag if x != 0]
    if len(nonzero) < ambient_rank:
        raise ValueError("quotient is infinite (sublattice has smaller rank)")
    return FiniteAbelianGroup(tuple(x for x in nonzero if x >= 2))


@dataclass(frozen=True)
class IntLattice:
    """Full sublattice data: an integer basis inside Z^ambient_dim."""

    ambient_dim: int
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        for b in self.basis:
            if len(b) != self.ambient_dim:
                raise ValueError("basis vector has wrong length")
        if self.basis and linalg.rank(self.basis) != len(self.basis):
            raise ValueError("basis vectors are dependent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    @staticmethod
    def standard(n: int) -> "IntLattice":
        return IntLattice(n, linalg.identity(n))


def _check_actions(actions: Sequence, n: int) -> None:
    """ValueError unless there are actions and each is an n x n matrix.

    Readers call it before they build anything of size n, so a declared size
    is bounded by the data.
    """
    if not actions:
        raise ValueError("action set does not contain the identity")
    if any(len(a) != n or any(len(row) != n for row in a) for a in actions):
        raise ValueError(f"every action must be a {n} x {n} matrix")


@dataclass(frozen=True)
class LatticeWithAction:
    """A lattice together with a finite group of integer matrices acting on it.

    ``actions`` must be closed under multiplication and contain the identity;
    this is verified eagerly, as is preservation of the lattice.  Matrices act
    on ambient column vectors.
    """

    lattice: IntLattice
    actions: tuple[tuple[tuple[int, ...], ...], ...]
    label: str = ""
    _in_basis: list[IntMat] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.lattice.ambient_dim
        _check_actions(self.actions, n)
        seen = set(self.actions)
        if linalg.identity(n) not in seen:
            raise ValueError("action set does not contain the identity")
        for a in self.actions:
            for b in self.actions:
                if linalg.matmul(a, b) not in seen:
                    raise ValueError("action set is not closed under multiplication")
        # each matrix must map the lattice to itself (onto, as the group has inverses)
        basis = self.lattice.basis
        error = "a group element does not preserve the lattice"
        mats = [
            _integer_coordinate_matrix(basis, (linalg.matvec(a, b) for b in basis), error)
            for a in self.actions
        ]
        object.__setattr__(self, "_in_basis", mats)

    @property
    def order(self) -> int:
        return len(self.actions)

    def in_basis_matrices(self) -> list[IntMat]:
        """The action matrices rewritten in lattice-basis coordinates.

        They are solved once, when the constructor checks that every element
        preserves the lattice.
        """
        return self._in_basis


def tate_h_minus1(x: LatticeWithAction) -> FiniteAbelianGroup:
    """Tate cohomology H^-1(G, L) = ker N / I_G L, read as the torsion of the
    coinvariants L / I_G L, where N is the sum of the group elements and I_G L
    the span of all (g - 1) images.

    The two agree on a lattice.  If m x lies in I_G L, then m N(x) = N(m x) = 0,
    so N(x) = 0 as L is torsion-free.  If N(x) = 0, then |G| x = sum of
    (x - g x) lies in I_G L.  So one Smith normal form of the (g - 1) columns,
    in lattice-basis coordinates, gives the group by its invariant factors.
    """
    r = x.lattice.rank
    eye = linalg.identity(r)
    mats = x.in_basis_matrices()
    augmentation = [[g[i][j] - eye[i][j] for g in mats for j in range(r)] for i in range(r)]
    _, d, _ = smith_normal_form(augmentation)
    return FiniteAbelianGroup(tuple(f for f in diagonal_of(d) if f >= 2))


def direct_sum_action(a: LatticeWithAction, b: LatticeWithAction) -> LatticeWithAction:
    """Block direct sum; requires the two action groups to be identified
    elementwise (same ordering), modelling one group acting on both factors."""
    if a.order != b.order:
        raise ValueError("direct sum needs matching group element lists")
    na, nb = a.lattice.ambient_dim, b.lattice.ambient_dim
    basis = tuple(tuple(v) + (0,) * nb for v in a.lattice.basis) + tuple(
        (0,) * na + tuple(v) for v in b.lattice.basis
    )
    acts = []
    for ga, gb in zip(a.actions, b.actions):
        top = tuple(tuple(row) + (0,) * nb for row in ga)
        bot = tuple((0,) * na + tuple(row) for row in gb)
        acts.append(top + bot)
    return LatticeWithAction(IntLattice(na + nb, basis), tuple(acts))


def lattice_with_action_from_dict(data: dict) -> LatticeWithAction:
    """Fixture schema: {"ambient_rank": n, "basis": [[...]], "actions": [[[...]]]}.

    Every entry is a JSON integer.  ``basis`` may be omitted, in which case the
    standard lattice Z^n is used.
    """
    data = _as_dict(data)
    n = _as_int(data["ambient_rank"])
    actions = tuple(tuple(map(tuple, _as_int_matrix(g))) for g in _as_list(data["actions"]))
    _check_actions(actions, n)
    if "basis" in data:
        lattice = IntLattice(n, tuple(map(tuple, _as_int_matrix(data["basis"]))))
    else:
        lattice = IntLattice.standard(n)
    return LatticeWithAction(lattice, actions, label=str(data.get("label", "")))


def lattice_with_action_from_json(path: str) -> LatticeWithAction:
    with open(path, "r", encoding="utf-8") as fh:
        return lattice_with_action_from_dict(json.load(fh))


# -- common constructions used by fixtures and tests -------------------------


def split_torus(rank: int, group_order: int = 1) -> LatticeWithAction:
    """Split torus of the given rank: every group element acts as the identity.

    ``group_order`` repeats the identity so the element list can be paired
    with another action of the same group in ``direct_sum_action``.
    """
    return LatticeWithAction(
        IntLattice.standard(rank), (linalg.identity(rank),) * group_order, label=f"split^{rank}"
    )


def norm_one_torus(k: int = 1) -> LatticeWithAction:
    """Product of k norm-one tori of a quadratic extension: Z^k with {1, -1}."""
    ident = linalg.identity(k)
    minus = tuple(tuple(-x for x in row) for row in ident)
    return LatticeWithAction(IntLattice.standard(k), (ident, minus), label=f"norm-one^{k}")


def regular_representation(group_table: Sequence[Sequence[int]]) -> LatticeWithAction:
    """Permutation action of a group on Z[group] from its multiplication table.

    ``group_table[i][j]`` is the index of g_i * g_j; index 0 must be the identity.
    """
    n = len(group_table)
    acts = []
    for i in range(n):
        # g_i sends basis vector e_j to e_{g_i g_j}
        m = [[0] * n for _ in range(n)]
        for j in range(n):
            m[group_table[i][j]][j] = 1
        acts.append(tuple(tuple(row) for row in m))
    return LatticeWithAction(IntLattice.standard(n), tuple(acts), label="regular")
