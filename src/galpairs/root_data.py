"""Possibly non-reduced restricted root systems and their cone fans.

A system is given by root covectors on an ambient rational vector space,
together with a coroot for each root and a choice of simple roots.  The datum is
cleared once: the roots and the coroots to integer rows over one denominator each
(``integral_roots``, ``integral_coroots``), each root's coefficients over the simple
roots from one elimination (``simple_coordinates``), and the Cartan matrix
(``cartan``) with one integer inverse.  The Weyl group is built once, as the
permutations of root indices that the simple reflections generate; the fan (faces
indexed by sign vectors over the root hyperplanes) and every chamber's tables are
read off those permutations, and one integer dual-basis routine, the inverse Cartan
matrix times a chamber's simple roots, gives the Weyl matrices, the chamber duals and
the hull's facet rows.

Conventions:
  * roots are covectors (pairings ``<alpha, x>`` with ambient vectors x),
  * ``<alpha, alpha_covector_dual>`` = 2 for every root,
  * if both a and 2a are roots, the coroot of 2a is half the coroot of a,
  * the span of a cone is the intersection of the hyperplanes vanishing on it;
    cones of full dimension are the chambers.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, islice
from typing import Optional, Sequence

from . import linalg
from .exact_linalg import IntLattice, _as_dict, _as_int, _as_ints, _as_list, read_json
from .linalg import Mat, Vec, vec_str

_MAX_WEYL = 10000
# the fan visits |W| * 2^rank faces: B4 visits 6,144 and A1^8 65,536 (about 0.5 s)
MAX_FACE_VISITS = 100_000
# a fixture's ambient dimension n: the lattice and the fan eliminate n x n matrices,
# about 0.1 s at n = 16 and 34 s at n = 200
MAX_AMBIENT_DIM = 16


def _parse_vec(xs, dim: int) -> Vec:
    """Rational vector of ``dim`` coordinates from a list or tuple of ints, Fractions or "p/q"
    strings; ValueError on anything else (floats and bools too), or on another length."""
    if not isinstance(xs, (list, tuple)) or not {bool, float}.isdisjoint(map(type, xs)):
        raise ValueError(f"not a rational vector: {xs!r}")
    try:
        v = linalg.vec(xs)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational vector: {xs!r}") from exc
    if len(v) != dim:
        raise ValueError(f"expected a point with {dim} coordinates, got {len(v)}: {linalg.vec_str(v)}")
    return v


@dataclass(frozen=True)
class Cone:
    """One face of the root hyperplane arrangement; a face w(F_I) has dim ambient_dim - |I|."""

    index: int
    signs: tuple[int, ...]  # entry per hyperplane, values -1/0/+1
    dim: int


class RestrictedRootSystem:
    """A finite (possibly non-reduced) root datum, each root and coroot read with ``ambient_dim``
    coordinates, and its complete fan."""

    def __init__(
        self,
        ambient_dim: int,
        roots: Sequence[Sequence],
        coroots: Sequence[Sequence],
        simple_indices: Sequence[int],
        lattice: Optional[IntLattice] = None,
        name: str = "",
    ):
        self.ambient_dim = ambient_dim
        self.name = name
        roots, coroots = ([_parse_vec(v, ambient_dim) for v in _as_list(vs)] for vs in (roots, coroots))
        if len(roots) != len(coroots):
            raise ValueError("roots and coroots differ in length")
        order = sorted(range(len(roots)), key=roots.__getitem__)
        self.roots: list[Vec] = [roots[i] for i in order]
        self.coroots: list[Vec] = [coroots[i] for i in order]
        # roots[k] = R[k] / r and coroots[k] = C[k] / c: the one clearing every integer table reads
        self.integral_roots: tuple[list[tuple[int, ...]], int] = linalg.integer_basis(self.roots)
        self.integral_coroots: tuple[list[tuple[int, ...]], int] = linalg.integer_basis(self.coroots)
        old_to_new = {order[k]: k for k in range(len(order))}
        for i in simple_indices:
            if i not in old_to_new:
                raise ValueError(f"simple index {i} names no root: there are {len(roots)} roots")
        simple_new = sorted(old_to_new[i] for i in simple_indices)
        self.simple_indices = simple_new
        self.lattice = lattice if lattice is not None else IntLattice.standard(ambient_dim)
        if self.lattice.ambient_dim != ambient_dim:
            raise ValueError("normalization lattice has wrong ambient dimension")
        self._root_index = {a: k for k, a in enumerate(self.roots)}
        # (C, d), d > 0: each root a is sum_j C[a][j] / d * roots[simple_indices[j]]
        self.simple_coordinates, reflections = self._validate()
        # <a_i, a_j^vee> over the simple indices i, j, which every chamber shares (W keeps the pairing)
        pairs = [(self.roots[i], self.coroots[i]) for i in simple_new]
        self.cartan: Mat = tuple(tuple(linalg.dot(a, bv) for _, bv in pairs) for a, _ in pairs)
        self._build_fan(reflections)

    # -- validation ----------------------------------------------------------

    def _validate(self) -> tuple[tuple[dict[Vec, tuple[int, ...]], int], list[tuple[int, ...]]]:
        """Check the root datum; return ``simple_coordinates`` and each simple reflection
        as the permutation of root indices it induces."""
        index = self._root_index
        if len(index) != len(self.roots):
            raise ValueError("duplicate roots")
        for a, av in zip(self.roots, self.coroots):
            if linalg.dot(a, av) != 2:
                raise ValueError(f"<a, a_coroot> != 2 for root {vec_str(a)}")
            neg = tuple(-x for x in a)
            if neg not in index:
                raise ValueError(f"root set is not symmetric: missing {vec_str(neg)}")
            double = tuple(2 * x for x in a)
            if double in index:
                expected = linalg.vscale(Fraction(1, 2), av)
                if self.coroots[index[double]] != expected:
                    raise ValueError(f"coroot of {vec_str(double)} must be half the coroot of {vec_str(a)}")
        # every root must be a one-signed rational combination of the simples, read off one
        # elimination; if some root is outside their span, the roots before it are checked first
        simple, outside = [self.roots[i] for i in self.simple_indices], None
        if (found := linalg.coordinate_matrix(simple, self.roots)) is None:
            if linalg.rank(simple) < len(simple):
                raise ValueError("simple roots are dependent")
            k = next(k for k, a in enumerate(self.roots) if linalg.coordinate_matrix(simple, [a]) is None)
            found, outside = linalg.coordinate_matrix(simple, self.roots[:k]), self.roots[k]
        (rows, d), coords = found, {}
        g = math.gcd(d, *(x for row in rows for x in row))  # to the least common denominator
        for a, col in zip(self.roots, zip(*rows)):
            if not (all(x >= 0 for x in col) or all(x <= 0 for x in col)):
                raise ValueError(f"root {vec_str(a)} is not one-signed over the simple roots")
            coords[a] = tuple(x // g for x in col)
        if outside is not None:
            raise ValueError(f"root {vec_str(outside)} is outside the span of the simple roots")
        # closure under the simple reflections, and the coroot of s(b) must be s(b_coroot)
        perms = []
        for i in self.simple_indices:
            alpha, av = self.roots[i], self.coroots[i]
            perm = []
            for b, bv in zip(self.roots, self.coroots):
                img, img_v = _reflect(alpha, av, b, bv)
                if img not in index:
                    raise ValueError(f"roots are not closed under the reflection in {vec_str(alpha)}: "
                                     f"{vec_str(b)} -> {vec_str(img)}")
                if self.coroots[index[img]] != img_v:
                    raise ValueError(f"the reflection in {vec_str(alpha)} maps {vec_str(b)} to {vec_str(img)} "
                                     f"but its coroot to {vec_str(img_v)}")
                perm.append(index[img])
            perms.append(tuple(perm))
        return (coords, d // g), perms

    # -- fan construction ----------------------------------------------------

    def _build_fan(self, gens: list[tuple[int, ...]]) -> None:
        """W as permutations w of root indices, w(roots[k]) = roots[w[k]], and the faces
        w(F_I) of the chambers, F_I the face of the base chamber where the simples I vanish."""
        n, r, simples = self.ambient_dim, self.rank, self.simple_indices
        simple_coeffs = self.simple_coordinates[0].values()  # in root order
        # the sign of root k on F_I (I as a bit mask): that of its coefficients outside I
        face_sign = []
        for c in simple_coeffs:
            support = sum(1 << j for j, x in enumerate(c) if x)
            sign = 1 if any(x > 0 for x in c) else -1
            face_sign.append([sign if support & ~bits else 0 for bits in range(1 << r)])
        # reduced positive roots, in root order and so sorted
        planes = [
            k
            for k, c in enumerate(simple_coeffs)
            if all(x >= 0 for x in c)
            and linalg.vscale(Fraction(1, 2), self.roots[k]) not in self._root_index
        ]
        self.hyperplanes: list[Vec] = [self.roots[k] for k in planes]
        self._reflections = gens  # s_i, in the order of simple_indices

        ident = tuple(range(len(self.roots)))
        elements = {ident: ident}  # w -> w^-1
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    gw = tuple(g[k] for k in w)
                    if gw not in elements:
                        elements[gw] = tuple(elements[w][k] for k in g)  # w^-1 g, as g = g^-1
                        nxt.append(gw)
            frontier = nxt
            if len(elements) > _MAX_WEYL:
                raise ValueError("reflection group is too large or not finite")
        if (visits := len(elements) << r) > MAX_FACE_VISITS:
            size = f"{visits} faces ({len(elements)} Weyl elements times 2^{r})"
            raise ValueError(f"the fan would visit {size}, more than the limit of {MAX_FACE_VISITS}")

        # w moves the simple coroots to coroots[w[i]] and fixes the common kernel of the
        # roots: w(x) = x + sum_i <duals[i], x> (coroots[w[i]] - coroots[i]), in integers
        # over one denominator c D, with the coroots C / c and the base chamber's duals V / D
        self._inverse_cartan, e = linalg.integer_basis(linalg.invert(self.cartan))
        self._dual_den = e * self.integral_roots[1]
        duals, (coroots, c) = self._duals(ident), self.integral_coroots
        moved = lambda w: [linalg.vsub(coroots[w[i]], coroots[i]) for i in simples]
        self._weyl_den = c * self._dual_den
        self._weyl_rows = {w: _identity_plus(moved(w), duals, self._weyl_den) for w in elements}
        order = sorted(elements, key=self._weyl_rows.__getitem__)

        types = [frozenset(i for i in range(r) if bits >> i & 1) for bits in range(1 << r)]
        seen: dict[tuple[int, ...], int] = {}
        cones: list[Cone] = []
        self._chamber_perms: dict[int, tuple[int, ...]] = {}  # w_P
        self._chamber_faces: dict[int, dict[frozenset, int]] = {}
        for w in order:
            w_inv = elements[w]
            faces = {}  # zero set I -> the cone w(F_I), where a root b has the sign of w^-1(b) on F_I
            for bits, zero in enumerate(types):
                sv = tuple(face_sign[w_inv[k]][bits] for k in planes)
                if sv not in seen:  # span(w(F_I)) is cut out by the |I| independent roots w(a_i)
                    seen[sv] = len(cones)
                    cones.append(Cone(len(cones), sv, n - len(zero)))
                faces[zero] = seen[sv]
            p = faces[types[0]]
            self._chamber_faces[p] = faces
            self._chamber_perms[p] = w
        self.cones: list[Cone] = cones
        self._sign_index = seen
        self.chambers: list[int] = sorted(self._chamber_faces)
        # the least chamber whose closure holds the cone: smaller chambers overwrite larger
        below = ((c, p) for p in self.chambers[::-1] for c in self._chamber_faces[p].values())
        self._chamber_below = dict(below)
        self.base_chamber: int = seen[(1,) * len(planes)]

    # -- basic fan queries -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.simple_indices)

    def cone_by_signs(self, signs: tuple[int, ...]) -> Cone:
        return self.cones[self._sign_index[signs]]

    def weyl_rows(self, chamber: int) -> Mat:
        """D w_P as integer rows, D > 0 the one denominator of all the Weyl matrices."""
        return self._weyl_rows[self._chamber_perms[chamber]]

    @functools.cached_property
    def chamber_weyl_rows(self) -> tuple[list[tuple[int, ...]], int]:
        """(M, D), D > 0: w_P = M[i n : (i + 1) n] / D at the i-th chamber P, n = ``ambient_dim``,
        every chamber's Weyl matrix as integer rows over one denominator, stacked in chamber order."""
        return [row for p in self.chambers for row in self.weyl_rows(p)], self._weyl_den

    def chamber_faces(self, chamber: int) -> dict[frozenset, int]:
        """The faces w_P(F_I) of the closed chamber P, each keyed by the indices I
        of P's simple roots that vanish on it."""
        return self._chamber_faces[chamber]

    def chamber_simple_indices(self, chamber: int) -> list[int]:
        """The root indices w_P[i] of the chamber's simple roots, i over the simple indices."""
        w = self._chamber_perms[chamber]
        return [w[i] for i in self.simple_indices]

    def chamber_simple_pairs(self, chamber: int) -> list[tuple[Vec, Vec]]:
        """(root covector, coroot vector) pairs of the chamber's simple roots."""
        return [(self.roots[k], self.coroots[k]) for k in self.chamber_simple_indices(chamber)]

    def chamber_below(self, cone: int) -> int:
        """The least chamber P with P <= cone: the one chamber used per cone."""
        return self._chamber_below[cone]

    def full_cone(self) -> Cone:
        """The minimal cone of the fan (all signs zero)."""
        return self.cone_by_signs((0,) * len(self.hyperplanes))

    @functools.cached_property
    def kernel_tables(self):
        """The indicator kernel as ``families.KernelTables``, compiled on first use."""
        from .families import KernelTables  # families builds on this module

        return KernelTables(self)

    @functools.cached_property
    def walls(self) -> list[tuple[int, int, Vec, Vec]]:
        """The chamber wall table: (p, q, root, coroot) for each pair of chambers p < q
        that share a wall, in (p, q) order.  With w = w_P, P's neighbour across the wall
        of its simple root roots[w[i]] is the chamber of the permutation w s_i, and the
        row's pair is (roots[w[i]], coroots[w[i]]).  The scan of the fan induced on a
        cone's span is ``tests/root_oracle.py::induced_walls``."""
        chamber_of = {w: p for p, w in self._chamber_perms.items()}
        table = []
        for p in self.chambers:
            w = self._chamber_perms[p]
            across = sorted(
                (chamber_of[tuple(w[k] for k in s)], w[i])
                for i, s in zip(self.simple_indices, self._reflections)
            )
            table += [(p, q, self.roots[k], self.coroots[k]) for q, k in across if p < q]
        return table

    @functools.cached_property
    def wall_coroot_rows(self) -> tuple[list[tuple[int, int, tuple[int, ...], int]], int]:
        """(rows, c), c > 0: per row (p, q, root, coroot) of ``walls``, (i, j, K, m) with i, j the
        positions of p and q in ``chambers``, K = c * coroot in integers (c the one denominator
        of the coroots) and m the first index with K[m] != 0."""
        coroots, c = self.integral_coroots
        position = {p: i for i, p in enumerate(self.chambers)}
        rows = [(position[p], position[q], coroots[self._root_index[a]]) for p, q, a, _ in self.walls]
        return [(i, j, k, next(m for m, x in enumerate(k) if x)) for i, j, k in rows], c

    def _duals(self, w: tuple[int, ...]) -> list[tuple[int, ...]]:
        """D times the covectors dual to the coroots[w[i]] that vanish on the common kernel of
        the roots, i over the simple indices, D = ``_dual_den``: row i is sum_j inv[i][j] R[w[j]],
        with the inverse of ``cartan`` cleared to inv / e and the roots to R / r, D = e r."""
        roots = self.integral_roots[0]
        return [linalg.vecmat(row, [roots[w[j]] for j in self.simple_indices]) for row in self._inverse_cartan]

    @functools.cached_property
    def chamber_duals(self) -> tuple[dict[int, list[tuple[int, ...]]], int]:
        """(V, D), D > 0: per chamber P, V[P][i] / D is the dual basis of (P, G), the covectors
        dual to P's simple coroots that vanish on the common kernel of the roots (``_duals`` of w_P)."""
        return {p: self._duals(self._chamber_perms[p]) for p in self.chambers}, self._dual_den

    @functools.cached_property
    def facet_rows(self) -> list[tuple[tuple[int, ...], list[int]]]:
        """(c, positions i in ``chambers`` of the P_i with c a row of chamber_duals[P_i]), c made
        primitive; for a positive set Y, hull(Y) = {H : <c, H> <= <c, Y_P_i>} over these rows
        (Arthur, *The trace formula in invariant form*, 1981)."""
        rows: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self.chambers):
            for row in self.chamber_duals[0][p]:
                rows.setdefault(linalg.scale_to_integers(row), []).append(i)
        return list(rows.items())

    @functools.cached_property
    def coroot_lattice_rows(self) -> tuple[list[tuple[int, ...]], int]:
        """(L, d), d > 0: coroots[k] = sum_i L[k][i] / d * lattice.basis[i], the coroots'
        normalization-lattice coordinates from one ``coordinate_matrix`` of ``integral_coroots``;
        ValueError when the lattice does not span them."""
        (coroots, c), basis = self.integral_coroots, self.lattice.basis
        if (found := linalg.coordinate_matrix(basis, coroots)) is None:
            raise ValueError("the normalization lattice does not span the coroots")
        return list(zip(*found[0])), found[1] * c

    @functools.cached_property
    def volume_weights(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """(mu, W, D) for three generic integer covectors mu, where W[i] / D is
        covol(Z[coroots_P]) / (r! * prod <mu, coroot of P>) at the i-th chamber P.  P's
        coroots are coroots[w_P[i]], i simple: with the coroots cleared once to C / c, each
        mu pairs once with each C_k, and P's product is read at the w_P[i]."""
        if (r := self.ambient_dim) != self.rank:  # the simple roots span the roots
            raise ValueError("analytic volume requires roots of full rank")
        # every chamber's coroots are w(simple coroots) with det w = +-1, so all chambers share
        # the base chamber's coroot covolume, read off the coroots' lattice coordinates L / d
        rows, d = self.coroot_lattice_rows
        meas = abs(linalg.det([rows[k] for k in self.chamber_simple_indices(self.base_chamber)])) / d**r
        coroots, c = self.integral_coroots
        perms = [self.chamber_simple_indices(p) for p in self.chambers]
        orbit = {k for ks in perms for k in ks}
        # mu = (1, j, ..., j^(r-1)) pairs with a coroot to a nonzero polynomial in j of
        # degree < r, so each coroot rules out fewer than r values of j
        mus = (tuple(j**i for i in range(r)) for j in count(1))
        pairings = ((mu, [linalg.dot(mu, v) for v in coroots]) for mu in mus)
        generic = ((mu, dots) for mu, dots in pairings if all(dots[k] for k in orbit))
        scale = meas * c**r / math.factorial(r)
        weights = lambda d: linalg.clear_denominators([scale / math.prod(d[k] for k in ks) for ks in perms])
        return [(mu, *weights(dots)) for mu, dots in islice(generic, 3)]


def _reflect(a: Vec, av: Vec, b: Vec, bv: Vec) -> tuple[Vec, Vec]:
    """s_a on the pair (b, b^vee): (b - <b, a^vee> a, b^vee - <a, b^vee> a^vee)."""
    image = linalg.vsub(b, linalg.vscale(linalg.dot(b, av), a))
    return image, linalg.vsub(bv, linalg.vscale(linalg.dot(a, bv), av))


def _identity_plus(cols: Sequence[Vec], rows: Sequence[Vec], den: int) -> Mat:
    """den * I + sum_i cols[i] (x) rows[i], of integer vectors and covectors: den times
    I + sum_i cols[i] (x) rows[i] / den."""
    return tuple(
        tuple(den * (k == j) + x for j, x in enumerate(linalg.vecmat(col, rows)))
        for k, col in enumerate(zip(*cols))
    )


# -- built-in systems -------------------------------------------------------------


def _unit(n: int, i: int, c: int = 1) -> Vec:
    return linalg.vec([c * int(j == i) for j in range(n)])


def _closed_system(n: int, simple: list, extra: list, name: str) -> RestrictedRootSystem:
    """The system of the (root, coroot) pairs that the simple reflections (``_reflect``) make of
    the simple and the extra pairs."""
    roots: dict[Vec, Vec] = {}
    todo = simple + extra
    while todo:
        b, bv = todo.pop()
        if b not in roots:
            roots[b] = bv
            todo += [_reflect(a, av, b, bv) for a, av in simple]
    ordered = sorted(roots)
    simple_idx = [ordered.index(a) for a, _ in simple]
    return RestrictedRootSystem(n, ordered, [roots[a] for a in ordered], simple_idx, name=name)


def _from_cartan(cartan: list[list[int]], name: str) -> RestrictedRootSystem:
    """Build a reduced system in simple-coroot coordinates from a Cartan matrix.

    The i-th simple coroot is the i-th standard basis vector and the i-th
    simple root is the i-th row of the Cartan matrix, so <a_i, a_j^vee> is the
    Cartan entry.  Roots are generated by closing under simple reflections.
    """
    n = len(cartan)
    return _closed_system(n, [(linalg.vec(row), _unit(n, i)) for i, row in enumerate(cartan)], [], name)


def _bc_system(n: int, name: str) -> RestrictedRootSystem:
    """Non-reduced system of rank n: short roots e_i (coroot 2e_i), long roots +-e_i +- e_j and
    doubled short roots 2e_i (coroot e_i), closed from the simples e_i - e_(i+1), e_n and 2e_n."""
    simple = [(linalg.vsub(_unit(n, i), _unit(n, i + 1)),) * 2 for i in range(n - 1)]
    last = (_unit(n, n - 1), _unit(n, n - 1, 2))
    return _closed_system(n, simple + [last], [last[::-1]], name)


_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
}

# each built-in name and the builder of its system; BUILTIN_NAMES is read off this table
_BUILTINS = {
    **{name: functools.partial(_from_cartan, cartan) for name, cartan in _CARTAN.items()},
    "BC1": functools.partial(_bc_system, 1),
    "BC2": functools.partial(_bc_system, 2),
}
BUILTIN_NAMES = tuple(_BUILTINS)


@functools.cache
def builtin_system(name: str) -> RestrictedRootSystem:
    """The built-in system of that name, one of ``BUILTIN_NAMES``, built once."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown built-in system {name!r}")
    return _BUILTINS[name](name)


def system_from_dict(data: dict) -> RestrictedRootSystem:
    """Fixture schema: ambient_dim, roots, coroots, simple_indices, lattice_basis.

    ambient_dim, simple_indices and lattice_basis take JSON integers; root and
    coroot entries may be integers or "p/q" strings.  ambient_dim is at most
    ``MAX_AMBIENT_DIM`` and there is at least one root, checked before anything
    of that size is built.
    """
    data = _as_dict(data)
    n = _as_int(data["ambient_dim"])
    if not 1 <= n <= MAX_AMBIENT_DIM:
        raise ValueError(f"ambient_dim must be between 1 and {MAX_AMBIENT_DIM}, got {n}")
    if not _as_list(data["roots"]):
        raise ValueError("roots: a system needs at least one root")
    simple = _as_ints(data["simple_indices"])
    lattice = None
    if "lattice_basis" in data:
        lattice = IntLattice(n, tuple(map(_as_ints, _as_list(data["lattice_basis"]))))
    return RestrictedRootSystem(n, data["roots"], data["coroots"], simple, lattice, name=str(data.get("name", "")))


def system_from_json(path: str) -> RestrictedRootSystem:
    return system_from_dict(read_json(path))


def resolve_system(spec: str) -> RestrictedRootSystem:
    """Accept a built-in name or a path to a JSON fixture."""
    if spec in BUILTIN_NAMES:
        return builtin_system(spec)
    return system_from_json(spec)
