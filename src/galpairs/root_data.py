"""Possibly non-reduced restricted root systems and their cone fans.

A system is given by root covectors on an ambient rational vector space,
together with a coroot for each root and a choice of simple roots.  The full
hyperplane-arrangement fan (faces of all dimensions, indexed by sign vectors
over the root hyperplanes) is computed once at construction; chambers carry
the Weyl group element mapping the base chamber onto them.

Conventions:
  * roots are covectors (pairings ``<alpha, x>`` with ambient vectors x),
  * ``<alpha, alpha_covector_dual>`` = 2 for every root,
  * if both a and 2a are roots, the coroot of 2a is half the coroot of a,
  * the span of a cone is the intersection of the hyperplanes vanishing on it;
    cones of full dimension are the chambers.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, count, islice
from typing import Optional, Sequence

from . import linalg
from .exact_linalg import IntLattice, _as_dict, _as_int, _as_int_matrix, _as_ints, _as_list
from .linalg import Mat, Vec

_MAX_WEYL = 10000


def _parse_vec(xs, dim: Optional[int] = None) -> Vec:
    """Rational vector from a list or tuple of ints, Fractions or "p/q" strings; ValueError
    on anything else (floats and bools too), or on a length other than ``dim`` if given."""
    if not isinstance(xs, (list, tuple)) or not {bool, float}.isdisjoint(map(type, xs)):
        raise ValueError(f"not a rational vector: {xs!r}")
    try:
        v = linalg.vec(xs)
    except (TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational vector: {xs!r}") from exc
    if dim is not None and len(v) != dim:
        raise ValueError(f"expected a point with {dim} coordinates, got {len(v)}: {xs!r}")
    return v


@dataclass(frozen=True)
class Cone:
    """One face of the root hyperplane arrangement."""

    index: int
    signs: tuple[int, ...]  # entry per hyperplane, values -1/0/+1
    dim: int
    span_basis: tuple[Vec, ...]


class RestrictedRootSystem:
    """A finite (possibly non-reduced) root datum with its complete fan."""

    def __init__(
        self,
        ambient_dim: int,
        roots: Sequence[Vec],
        coroots: Sequence[Vec],
        simple_indices: Sequence[int],
        lattice: Optional[IntLattice] = None,
        name: str = "",
    ):
        self.ambient_dim = ambient_dim
        self.name = name
        if len(roots) != len(coroots):
            raise ValueError("roots and coroots differ in length")
        order = sorted(range(len(roots)), key=lambda i: tuple(roots[i]))
        self.roots: list[Vec] = [linalg.vec(roots[i]) for i in order]
        self.coroots: list[Vec] = [linalg.vec(coroots[i]) for i in order]
        old_to_new = {order[k]: k for k in range(len(order))}
        simple_new = sorted(old_to_new[i] for i in simple_indices)
        self.simple_indices = simple_new
        self.lattice = lattice if lattice is not None else IntLattice.standard(ambient_dim)
        if self.lattice.ambient_dim != ambient_dim:
            raise ValueError("normalization lattice has wrong ambient dimension")
        self._coroot_of = {self.roots[i]: self.coroots[i] for i in range(len(self.roots))}
        self._root_set = set(self.roots)
        self._build_fan(self._validate())
        self._cache: dict = {}

    # -- validation ----------------------------------------------------------

    def _validate(self) -> list[Vec]:
        """Check the root datum; return each root's coefficients over the simple roots."""
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("duplicate roots")
        for a, av in zip(self.roots, self.coroots):
            if linalg.dot(a, av) != 2:
                raise ValueError(f"<a, a_coroot> != 2 for root {a}")
            neg = tuple(-x for x in a)
            if neg not in self._root_set:
                raise ValueError(f"root set is not symmetric: missing {neg}")
            double = tuple(2 * x for x in a)
            if double in self._root_set:
                expected = linalg.vscale(Fraction(1, 2), av)
                if self._coroot_of[double] != expected:
                    raise ValueError(f"coroot of {double} must be half the coroot of {a}")
        simple = [self.roots[i] for i in self.simple_indices]
        # every root must be a one-signed rational combination of the simples
        all_coeffs = []
        for a in self.roots:
            coeffs = linalg.coordinates_in_basis(simple, a)
            if coeffs is None:
                raise ValueError(f"root {a} is outside the span of the simple roots")
            if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
                raise ValueError(f"root {a} is not one-signed over the simple roots")
            all_coeffs.append(coeffs)
        # closure under the simple reflections (acting on covectors)
        for i in self.simple_indices:
            av = self.coroots[i]
            alpha = self.roots[i]
            for b in self.roots:
                img = linalg.vsub(b, linalg.vscale(linalg.dot(b, av), alpha))
                if img not in self._root_set:
                    raise ValueError(
                        f"roots are not closed under the reflection in {alpha}: {b} -> {img}"
                    )
        return all_coeffs

    # -- fan construction ----------------------------------------------------

    def _reflection(self, root_index: int) -> Mat:
        """Reflection on ambient vectors: x -> x - <a, x> a_coroot."""
        a = self.roots[root_index]
        av = self.coroots[root_index]
        n = self.ambient_dim
        return tuple(
            tuple((1 if i == j else 0) - av[i] * a[j] for j in range(n)) for i in range(n)
        )

    def _build_fan(self, simple_coeffs: list[Vec]) -> None:
        n = self.ambient_dim
        simple = [self.roots[i] for i in self.simple_indices]
        simple_coroots = [self.coroots[i] for i in self.simple_indices]

        # reduced roots and their hyperplanes, positivity over the simples
        self.positive_roots = [a for a, c in zip(self.roots, simple_coeffs) if all(x >= 0 for x in c)]
        reduced_pos = [
            a for a in self.positive_roots if linalg.vscale(Fraction(1, 2), a) not in self._root_set
        ]
        self.hyperplanes: list[Vec] = sorted(reduced_pos)

        # Weyl group: close the simple reflections under multiplication
        gens = [self._reflection(i) for i in self.simple_indices]
        ident = linalg.identity(n)
        elements = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for w in frontier:
                for g in gens:
                    wg = linalg.matmul(g, w)
                    if wg not in elements:
                        elements.add(wg)
                        nxt.append(wg)
            frontier = nxt
            if len(elements) > _MAX_WEYL:
                raise ValueError("reflection group is too large or not finite")
        self.weyl_elements: list[Mat] = sorted(elements)

        # relative-interior points of the faces of the closed base chamber
        r = len(simple)
        face_points: list[tuple[frozenset, Vec]] = []
        for bits in range(1 << r):
            zero = frozenset(i for i in range(r) if bits >> i & 1)
            target = [Fraction(0) if i in zero else Fraction(1) for i in range(r)]
            point = linalg.solve(simple, target)
            if point is None:
                raise ValueError("simple roots are dependent")
            face_points.append((zero, point))

        seen: dict[tuple[int, ...], int] = {}
        cones: list[Cone] = []
        chamber_w: dict[int, Mat] = {}
        base_interior = face_points[0][1]
        for w in self.weyl_elements:
            for zero, p in face_points:
                img = linalg.matvec(w, p)
                sv = linalg.sign_vector(self.hyperplanes, img)
                if sv not in seen:
                    zero_rows = [self.hyperplanes[i] for i in range(len(sv)) if sv[i] == 0]
                    span = linalg.nullspace(zero_rows, ncols=n) if zero_rows else linalg.identity(n)
                    cone = Cone(len(cones), sv, len(span), tuple(span))
                    seen[sv] = cone.index
                    cones.append(cone)
                if not zero and seen[sv] not in chamber_w:
                    chamber_w[seen[sv]] = w
        self.cones: list[Cone] = cones
        self._sign_index = seen
        self.chambers: list[int] = sorted(
            c.index for c in cones if all(s != 0 for s in c.signs)
        )
        self._chamber_w = chamber_w

        # simple root/coroot pairs per chamber, transported from the base
        self._chamber_simples: dict[int, list[tuple[Vec, Vec]]] = {}
        for ci in self.chambers:
            w = chamber_w[ci]
            w_inv = linalg.invert(w)
            pairs = []
            for a, av in zip(simple, simple_coroots):
                pairs.append((linalg.vecmat(a, w_inv), linalg.matvec(w, av)))
            self._chamber_simples[ci] = pairs

        self.base_chamber: int = seen[linalg.sign_vector(self.hyperplanes, base_interior)]

    # -- basic fan queries -----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.simple_indices)

    def cone_by_signs(self, signs: tuple[int, ...]) -> Cone:
        return self.cones[self._sign_index[signs]]

    def parabolic_leq(self, p: int, q: int) -> bool:
        """True when the cone q is a face of the closure of the cone p.

        In the parabolic dictionary this is containment P <= Q: smaller cones
        correspond to larger parabolic subgroups.
        """
        sp = self.cones[p].signs
        sq = self.cones[q].signs
        for a, b in zip(sp, sq):
            if a == 0 and b != 0:
                return False
            if b != 0 and b != a:
                return False
        return True

    def cones_below(self, q: int) -> list[int]:
        """All cones R with R <= Q in the parabolic order (q a face of cl R)."""
        return [c.index for c in self.cones if self.parabolic_leq(c.index, q)]

    def chamber_weyl(self, chamber: int) -> Mat:
        return self._chamber_w[chamber]

    def chamber_simple_pairs(self, chamber: int) -> list[tuple[Vec, Vec]]:
        """(root covector, coroot vector) pairs of the chamber's simple roots."""
        return self._chamber_simples[chamber]

    def full_cone(self) -> Cone:
        """The minimal cone of the fan (all signs zero)."""
        return self.cone_by_signs((0,) * len(self.hyperplanes))

    @functools.cached_property
    def kernel_tables(self):
        """The indicator kernel as ``families.KernelTables``, compiled on first use."""
        from .families import KernelTables  # families builds on this module

        return KernelTables(self)

    @functools.cached_property
    def facet_rows(self) -> list[tuple[tuple[int, ...], list[int]]]:
        """(c, positions i in ``chambers`` of the P_i with c in dual_basis(P_i, G)), c made
        primitive integral; for a positive set Y, hull(Y) = {H : <c, H> <= <c, Y_P_i>} over
        these rows (Arthur, *The trace formula in invariant form*, 1981)."""
        g = self.full_cone().index
        rows: dict[tuple[int, ...], list[int]] = {}
        for i, p in enumerate(self.chambers):
            for w in self.dual_basis(p, g):
                rows.setdefault(linalg.scale_to_integers(w), []).append(i)
        return list(rows.items())

    @functools.cached_property
    def volume_weights(self) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """(mu, W, D) for three generic integer covectors mu, where W[i] / D is
        covol(Z[coroots_P]) / (r! * prod <mu, coroot of P>) at the i-th chamber P."""
        r = self.ambient_dim
        if linalg.rank(self.roots) != r:
            raise ValueError("analytic volume requires roots of full rank")
        # every chamber's coroots are w(simple coroots) with det w = +-1, so all
        # chambers share the base chamber's coroot covolume
        base = [av for _, av in self.chamber_simple_pairs(self.base_chamber)]
        meas = abs(linalg.det([linalg.coordinates_in_basis(self.lattice.basis, v) for v in base]))
        coroots = [[av for _, av in self.chamber_simple_pairs(c)] for c in self.chambers]
        # mu = (1, j, ..., j^(r-1)) pairs with a coroot to a nonzero polynomial in j of
        # degree < r, so each coroot rules out fewer than r values of j
        mus = (tuple(j**i for i in range(r)) for j in count(1))
        generic = (mu for mu in mus if all(linalg.dot(mu, v) for cs in coroots for v in cs))
        out = []
        for mu in islice(generic, 3):
            dens = [math.factorial(r) * math.prod(linalg.dot(mu, v) for v in cs) for cs in coroots]
            out.append((mu, *linalg.clear_denominators([meas / d for d in dens])))
        return out

    # -- per-cone structure ----------------------------------------------------

    def zero_roots(self, cone: int) -> list[Vec]:
        """Reduced positive roots vanishing on the span of the cone."""
        c = self.cones[cone]
        return [self.hyperplanes[i] for i in range(len(c.signs)) if c.signs[i] == 0]

    def levi_projection(self, cone: int) -> Mat:
        """Projection onto the span of the cone along the vanishing coroots."""
        key = ("proj", cone)
        if key not in self._cache:
            c = self.cones[cone]
            if c.dim == self.ambient_dim:
                self._cache[key] = linalg.identity(self.ambient_dim)
            else:
                complement = linalg.independent_subset(
                    [self._coroot_of[a] for a in self.zero_roots(cone)]
                )
                self._cache[key] = linalg.projection_matrix(c.span_basis, complement)
        return self._cache[key]

    def chamber_below(self, cone: int) -> int:
        """The least chamber P with P <= cone: the one chamber used per cone."""
        key = ("chamber", cone)
        if key not in self._cache:
            self._cache[key] = min(ch for ch in self.chambers if self.parabolic_leq(ch, cone))
        return self._cache[key]

    def cone_simple_pairs(self, cone: int) -> list[tuple[Vec, Vec]]:
        """Simple (root, coroot) pairs of the cone, as canonical extensions.

        Covectors are precomposed with the Levi projection and coroots are
        projected to the span of the cone; the result does not depend on the
        chamber used to compute it.
        """
        key = ("simples", cone)
        if key not in self._cache:
            c = self.cones[cone]
            if c.dim == self.ambient_dim:  # a chamber: the projection is the identity
                pairs = list(self._chamber_simples[cone])
            else:
                proj = self.levi_projection(cone)
                pairs = [
                    (linalg.vecmat(a, proj), linalg.matvec(proj, av))
                    for a, av in self._chamber_simples[self.chamber_below(cone)]
                    if any(linalg.dot(a, b) != 0 for b in c.span_basis)
                ]
            self._cache[key] = pairs
        return self._cache[key]

    def vanishing_indices(self, p: int, q: int) -> list[int]:
        """Indices into the simple pairs of cone p of roots vanishing on span(q)."""
        key = ("vanish", p, q)
        if key not in self._cache:
            span = self.cones[q].span_basis
            self._cache[key] = [
                i
                for i, (a, _) in enumerate(self.cone_simple_pairs(p))
                if all(linalg.dot(a, b) == 0 for b in span)
            ]
        return self._cache[key]

    def dual_basis(self, p: int, q: int) -> list[Vec]:
        """Covectors dual to the coroots of the simple roots of p inside q.

        Each covector pairs to delta with those coroots and vanishes both on the
        span of q and on the coroots of roots vanishing on the span of p.
        """
        key = ("dual", p, q)
        if key not in self._cache:
            pairs = self.cone_simple_pairs(p)
            roots = [pairs[i][0] for i in self.vanishing_indices(p, q)]
            coroots = [pairs[i][1] for i in self.vanishing_indices(p, q)]
            # those simple roots already vanish on both; invert their Cartan block
            inverse = linalg.invert([[linalg.dot(a, av) for av in coroots] for a in roots])
            self._cache[key] = [linalg.combination(row, roots, self.ambient_dim) for row in inverse]
        return self._cache[key]

    def walls(self, cone: int) -> list[tuple[int, int, Vec, Vec]]:
        """Wall table of the fan induced on the span of the cone.

        The cones with that span are the chambers of the induced fan (for a
        chamber, the chambers of the system).  Two of them are adjacent when
        their signs differ on exactly one class of hyperplanes whose
        restrictions to the span are proportional.  Each adjacent pair
        (p, q), p < q, is listed as (p, q, root, coroot) with the simple pair
        of ``cone_simple_pairs(p)`` along the shared wall.
        """
        zero = tuple(s == 0 for s in self.cones[cone].signs)
        key = ("walls", zero)
        if key not in self._cache:
            span = self.cones[cone].span_basis
            restricted = [tuple(linalg.dot(h, b) for b in span) for h in self.hyperplanes]
            classes: list[list[int]] = []
            for i in range(len(self.hyperplanes)):
                if zero[i]:
                    continue
                for cls in classes:
                    if linalg.proportionality(restricted[i], restricted[cls[0]]) is not None:
                        cls.append(i)
                        break
                else:
                    classes.append([i])
            same_span = [c for c in self.cones if tuple(s == 0 for s in c.signs) == zero]
            table = []
            for cp, cq in combinations(same_span, 2):
                differing = [
                    cls for cls in classes if any(cp.signs[i] != cq.signs[i] for i in cls)
                ]
                if len(differing) != 1:
                    continue
                wall = restricted[differing[0][0]]
                for a, av in self.cone_simple_pairs(cp.index):
                    if linalg.proportionality(tuple(linalg.dot(a, b) for b in span), wall) is not None:
                        table.append((cp.index, cq.index, a, av))
                        break
                else:
                    raise ValueError("no simple root along the shared wall")
            self._cache[key] = table
        return self._cache[key]


# -- built-in systems -------------------------------------------------------------


def _from_cartan(cartan: list[list[int]], name: str) -> RestrictedRootSystem:
    """Build a reduced system in simple-coroot coordinates from a Cartan matrix.

    The i-th simple coroot is the i-th standard basis vector and the i-th
    simple root is the i-th row of the Cartan matrix, so <a_i, a_j^vee> is the
    Cartan entry.  Roots are generated by closing under simple reflections.
    """
    n = len(cartan)
    simple_roots = [linalg.vec(row) for row in cartan]
    simple_coroots = [linalg.vec([1 if j == i else 0 for j in range(n)]) for i in range(n)]
    roots: dict[Vec, Vec] = {}
    frontier = list(zip(simple_roots, simple_coroots))
    for a, av in frontier:
        roots[a] = av
        roots[tuple(-x for x in a)] = tuple(-x for x in av)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            alpha, alpha_v = simple_roots[i], simple_coroots[i]
            for b, bv in list(roots.items()):
                img = linalg.vsub(b, linalg.vscale(linalg.dot(b, alpha_v), alpha))
                img_v = linalg.vsub(bv, linalg.vscale(linalg.dot(alpha, bv), alpha_v))
                if img not in roots:
                    roots[img] = img_v
                    changed = True
    ordered = sorted(roots)
    simple_idx = [ordered.index(a) for a in simple_roots]
    return RestrictedRootSystem(
        n, ordered, [roots[a] for a in ordered], simple_idx, name=name
    )


def _bc_system(n: int, name: str) -> RestrictedRootSystem:
    """Non-reduced system of rank n: short, long and doubled-short roots."""
    e = lambda i: tuple(Fraction(1 if j == i else 0) for j in range(n))
    roots: dict[Vec, Vec] = {}

    def put(a: Vec, av: Vec):
        roots[a] = av
        roots[tuple(-x for x in a)] = tuple(-x for x in av)

    for i in range(n):
        ei = e(i)
        put(ei, linalg.vscale(2, ei))  # short root e_i, coroot 2e_i
        put(linalg.vscale(2, ei), ei)  # doubled root 2e_i, coroot e_i
        for j in range(i + 1, n):
            ej = e(j)
            put(linalg.vadd(ei, ej), linalg.vadd(ei, ej))
            put(linalg.vsub(ei, ej), linalg.vsub(ei, ej))
    ordered = sorted(roots)
    if n == 1:
        simple = [e(0)]
    else:
        simple = [linalg.vsub(e(i), e(i + 1)) for i in range(n - 1)] + [e(n - 1)]
    simple_idx = [ordered.index(a) for a in simple]
    return RestrictedRootSystem(n, ordered, [roots[a] for a in ordered], simple_idx, name=name)


_CARTAN = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -1], [-2, 2]],
    "C2": [[2, -2], [-1, 2]],
    "G2": [[2, -1], [-3, 2]],
}

_BUILTIN_CACHE: dict[str, RestrictedRootSystem] = {}


def builtin_system(name: str) -> RestrictedRootSystem:
    """Built-in systems: A1, A2, A3, B2, C2, G2, BC1, BC2."""
    if name not in _BUILTIN_CACHE:
        if name in _CARTAN:
            _BUILTIN_CACHE[name] = _from_cartan(_CARTAN[name], name)
        elif name == "BC1":
            _BUILTIN_CACHE[name] = _bc_system(1, name)
        elif name == "BC2":
            _BUILTIN_CACHE[name] = _bc_system(2, name)
        else:
            raise ValueError(f"unknown built-in system {name!r}")
    return _BUILTIN_CACHE[name]


BUILTIN_NAMES = ("A1", "A2", "A3", "B2", "C2", "G2", "BC1", "BC2")


def system_from_dict(data: dict) -> RestrictedRootSystem:
    """Fixture schema: ambient_dim, roots, coroots, simple_indices, lattice_basis.

    ambient_dim, simple_indices and lattice_basis take JSON integers; root and
    coroot entries may be integers or "p/q" strings.
    """
    data = _as_dict(data)
    n = _as_int(data["ambient_dim"])
    roots = [_parse_vec(r, n) for r in _as_list(data["roots"])]
    coroots = [_parse_vec(r, n) for r in _as_list(data["coroots"])]
    simple = _as_ints(data["simple_indices"])
    lattice = None
    if "lattice_basis" in data:
        lattice = IntLattice(n, tuple(map(tuple, _as_int_matrix(data["lattice_basis"]))))
    return RestrictedRootSystem(n, roots, coroots, simple, lattice, name=str(data.get("name", "")))


def system_from_json(path: str) -> RestrictedRootSystem:
    with open(path, "r", encoding="utf-8") as fh:
        return system_from_dict(json.load(fh))


def resolve_system(spec: str) -> RestrictedRootSystem:
    """Accept a built-in name or a path to a JSON fixture."""
    if spec in BUILTIN_NAMES:
        return builtin_system(spec)
    return system_from_json(spec)
