"""Integer lattices, Smith normal form and Tate-style cohomology of lattices.

The central computation is ``tate_h_minus1``: given a lattice with an action
of a finite integer matrix group, return the finite abelian group
ker(norm map) / (augmentation sublattice), presented by invariant factors and
read as the torsion of the coinvariants.
For cocharacter lattices of tori this group classifies the first Galois
cohomology of the torus.  The group's closure, its preservation of the lattice
and the augmentation columns are all read through a generating set T of the
group, which has at most log2 |G| elements.
``smith_normal_form`` eliminates on one bordered matrix [[A, I], [I, 0]]:
each row or column operation is written once and carries U and V along with
A.  Its pivot is the smallest |entry|, then the uppermost, then the leftmost,
so (U, D, V) depend only on the input; rows of unequal length are refused.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import linalg

IntMat = list[list[int]]


def _as_int(x) -> int:
    """The one reader of integer fields: an int or a whole Fraction, else ValueError
    (for a bool or a float too)."""
    if type(x) is int:
        return x
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


def read_json(path: str):
    """The JSON value in the file at ``path``: the one reader of fixture files."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


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
        return math.prod(self.invariant_factors)

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
    this is verified eagerly, as is preservation of the lattice, both through a
    generating set T: each action not yet reached is a generator, and reached
    elements are multiplied on the right by T, |G| * |T| products that must all
    be actions.  The reached set, the monoid generated by T, is then closed and
    holds every action.  If every generator maps the lattice into itself, so
    does every word in them.  Matrices act on ambient column vectors.
    """

    lattice: IntLattice
    actions: tuple[tuple[tuple[int, ...], ...], ...]
    label: str = ""
    # the generators in lattice-basis coordinates, side by side: r x r|T|
    _generator_columns: IntMat = field(init=False, repr=False, compare=False)
    _in_basis: Optional[list[IntMat]] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        n = self.lattice.ambient_dim
        _check_actions(self.actions, n)
        seen, reached, gens = set(self.actions), {linalg.identity(n)}, []
        if not reached <= seen:
            raise ValueError("action set does not contain the identity")
        for a in self.actions:
            if a not in reached:
                gens.append(a)
                todo = [(x, a) for x in reached]  # x * a, then each new y times every generator
                while todo:
                    y = linalg.matmul(*todo.pop())
                    if y not in seen:
                        raise ValueError("action set is not closed under multiplication")
                    if y not in reached:
                        reached.add(y)
                        todo += [(y, g) for g in gens]
        object.__setattr__(self, "_generator_columns", self._in_coordinates(gens))

    def _in_coordinates(self, matrices: Sequence) -> IntMat:
        """The matrices in lattice-basis coordinates, side by side, from one elimination."""
        basis = self.lattice.basis
        images = (linalg.matvec(a, b) for a in matrices for b in basis)
        error = "a group element does not preserve the lattice"
        return _integer_coordinate_matrix(basis, images, error)

    @property
    def order(self) -> int:
        return len(self.actions)

    def in_basis_matrices(self) -> list[IntMat]:
        """The action matrices rewritten in lattice-basis coordinates, solved on the first call."""
        if self._in_basis is None:
            r, cols = self.lattice.rank, self._in_coordinates(self.actions)
            mats = [[row[k * r : (k + 1) * r] for row in cols] for k in range(self.order)]
            object.__setattr__(self, "_in_basis", mats)
        return self._in_basis


def tate_h_minus1(x: LatticeWithAction) -> FiniteAbelianGroup:
    """Tate cohomology H^-1(G, L) = ker N / I_G L, read as the torsion of the
    coinvariants L / I_G L, where N is the sum of the group elements and I_G L
    the span of all (g - 1) images.

    The two agree on a lattice.  If m x lies in I_G L, then m N(x) = N(m x) = 0,
    so N(x) = 0 as L is torsion-free.  If N(x) = 0, then |G| x = sum of
    (x - g x) lies in I_G L.  And the (s - 1) images of the generators s in T
    span I_G L, as (gh - 1) x = (g - 1)(h x) + (h - 1) x.  So one Smith normal
    form of the r x r|T| matrix of (s - 1) columns, in lattice-basis
    coordinates, gives the group by its invariant factors.
    """
    r, cols = x.lattice.rank, x._generator_columns  # column k: generator k // r on b_(k % r)
    augmentation = [[v - (k % r == i) for k, v in enumerate(row)] for i, row in enumerate(cols)]
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
    return lattice_with_action_from_dict(read_json(path))


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
