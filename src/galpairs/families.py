"""Weighted orthogonal sets over a restricted root fan and their calculus.

An orthogonal set assigns a point Y_P to every chamber P so that points of
wall-adjacent chambers differ by a rational multiple of the wall's coroot.
This module implements the alternating-sum kernels of the indicators tau /
tau-hat / delta, compiled in one pass per system to integer sign tests, the
resulting partition of unity, exact hull volumes and lattice-point counting
with exponential-polynomial extrapolation.  A positive set's hull is read
off the fan as integer rows (``hull_rows``): the polytope volume
triangulates over them, and the count scans the lattice line by line against
them.  The rows and the analytic volume's weights are tables of the system
(``RestrictedRootSystem.facet_rows``, ``volume_weights``), so no count or
volume builds the kernel.  The analytic volume reads chamber data as well,
so the independent check of both is the brute-force ``Hull``, in the tests.

All boundary values are canonical: an indicator kernel evaluated on a wall is
whatever the alternating sum says.  For a positive set that is 1 on the whole
closed hull (proved in ``v_tilde_lattice``); for a non-positive set it may
differ from closed-hull membership on a measure-zero set.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Optional, Sequence

from . import linalg
from .linalg import Vec
from .root_data import RestrictedRootSystem, _parse_vec


# -- orthogonal sets ----------------------------------------------------------


class OrthogonalSet:
    """A chamber-indexed family of points with coroot-directed wall jumps.

    ``points`` maps chamber index -> ambient point.  Validation checks every
    wall-adjacent pair (P, P'): Y_P - Y_P' must be r * (wall coroot oriented
    into P), and records the rational wall coefficients r.  The set is
    *positive* when all coefficients are nonnegative.
    """

    def __init__(self, system: RestrictedRootSystem, points: dict[int, Sequence]):
        self.system = system
        if sorted(points) != sorted(system.chambers):
            raise ValueError("points must be indexed by exactly the chambers")
        self.points: dict[int, Vec] = {
            p: _parse_vec(v, system.ambient_dim) for p, v in points.items()
        }
        self.wall_coefficients: dict[tuple[int, int], Fraction] = {}
        self._sweeps: dict[Vec, tuple] = {}  # x0 -> ``sweep(x0)``
        self._validate()

    def _validate(self) -> None:
        for p, q, _, coroot in self.system.walls(self.system.base_chamber):
            diff = linalg.vsub(self.points[p], self.points[q])
            r = linalg.proportionality(diff, coroot)
            if r is None:
                raise ValueError(
                    f"chambers {p}, {q}: point difference {diff} is not a multiple "
                    f"of the wall coroot {coroot}"
                )
            self.wall_coefficients[(p, q)] = r
            self.wall_coefficients[(q, p)] = r

    @property
    def is_positive(self) -> bool:
        return all(r >= 0 for r in self.wall_coefficients.values())

    def projected(self, cone: int) -> Vec:
        """Y projected onto the span of the cone (independent of the chamber)."""
        sys = self.system
        y = self.points[sys.chamber_below(cone)]
        if sys.cones[cone].dim < sys.ambient_dim:  # a chamber's projection is the identity
            y = linalg.matvec(sys.levi_projection(cone), y)
        return y

    @functools.cached_property
    def thresholds(self) -> list[tuple[list[int], int]]:
        """Per cone q, integers nums, den > 0 with <c, Y_q> = nums[i] / den over the covectors c."""
        kernel = self.system.kernel_tables
        return [kernel.point(self.projected(q)) for q in range(len(self.system.cones))]

    @functools.cached_property
    def _integral(self) -> tuple[list[tuple[int, ...]], int]:
        """(N, e), e > 0, with Y_P = N[i] / e for the i-th chamber P of the system."""
        return _integer_basis([self.points[c] for c in self.system.chambers])

    @functools.cached_property
    def _facet_values(self) -> list[list[int]]:
        """<c, N[i]> for each hull covector c and chamber position i of ``facet_rows``."""
        n, _ = self._integral
        return [[linalg.dot(c, n[i]) for i in pos] for c, pos in self.system.facet_rows]

    def sweep(self, x0: Vec) -> tuple["OrthogonalSet", list[tuple[Fraction, Fraction]]]:
        """(special(x0), (r_Y, r_X) at the walls where r_Y + k*r_X can be negative), made once."""
        if x0 not in self._sweeps:
            sweep = OrthogonalSet.special(self.system, x0)
            pairs = [(r, sweep.wall_coefficients[w]) for w, r in self.wall_coefficients.items()]
            self._sweeps[x0] = sweep, [(r, rx) for r, rx in pairs if min(r, rx) < 0]
        return self._sweeps[x0]

    # -- constructors and arithmetic -----------------------------------------

    @classmethod
    def special(cls, system: RestrictedRootSystem, x: Sequence) -> "OrthogonalSet":
        """The set Y_P = w_P(x) obtained by sweeping one point around the fan."""
        xv = _parse_vec(x, system.ambient_dim)
        pts = {
            c: linalg.matvec(system.chamber_weyl(c), xv) for c in system.chambers
        }
        return cls(system, pts)

    @classmethod
    def zero(cls, system: RestrictedRootSystem) -> "OrthogonalSet":
        return cls(system, {c: linalg.zero_vec(system.ambient_dim) for c in system.chambers})

    def add(self, other: "OrthogonalSet") -> "OrthogonalSet":
        if other.system is not self.system:
            raise ValueError("orthogonal sets live on different systems")
        return OrthogonalSet(
            self.system,
            {c: linalg.vadd(self.points[c], other.points[c]) for c in self.points},
        )

    def translate(self, v: Sequence) -> "OrthogonalSet":
        vv = _parse_vec(v, self.system.ambient_dim)
        return OrthogonalSet(self.system, {c: linalg.vadd(p, vv) for c, p in self.points.items()})

# -- the indicator kernel, compiled to integer sign tests ------------------------


class KernelTables:
    """The alternating kernel of one system as integer sign tests, compiled in one pass.

    ``covectors`` are distinct primitive integer covectors, each a positive
    multiple of the root, dual-basis covector or hyperplane it stands for, so
    comparisons keep their truth values.  ``compiled[q]`` is (ids of tau^G_q,
    table): an entry (r, ids of delta^r, terms) per cone r <= q, and a term
    (ids of tau^R_r, ids of tau_hat^q_R, (-1)^(dim R - dim q)) per r <= R <= q.
    """

    def __init__(self, sys: RestrictedRootSystem):
        self.system = sys
        ids: dict[tuple[int, ...], int] = {}

        def cids(covectors) -> list[int]:
            return [ids.setdefault(linalg.scale_to_integers(c), len(ids)) for c in covectors]

        def tau(p: int, q: int) -> list[int]:
            pairs = sys.cone_simple_pairs(p)
            return cids(pairs[i][0] for i in sys.vanishing_indices(p, q))

        g, dims = sys.full_cone().index, [c.dim for c in sys.cones]
        self.compiled: list[tuple[list[int], list]] = []
        for q in range(len(sys.cones)):
            below, table = sys.cones_below(q), []
            for r in below:
                terms = [
                    (tau(r, rr), cids(sys.dual_basis(rr, q)), (-1) ** ((dims[rr] - dims[q]) % 2))
                    for rr in below
                    if sys.parabolic_leq(r, rr)
                ]
                table.append((r, cids(sys.zero_roots(r)), terms))
            self.compiled.append((tau(q, g), table))
        self.covectors: list[tuple[int, ...]] = list(ids)

    def point(self, h: Sequence) -> tuple[list[int], int]:
        """(<c, H> for every covector c, D) where h = H / D, H integral, D > 0."""
        hi, d = linalg.clear_denominators(_parse_vec(h, self.system.ambient_dim))
        return list(linalg.matvec(self.covectors, hi)), d


def _gamma(table: list, dots: list[int], d: int, y: OrthogonalSet) -> int:
    total, thresholds = 0, y.thresholds
    for r, zeros, terms in table:
        if any(dots[z] for z in zeros):
            continue
        nums, den = thresholds[r]
        for tau_ids, hat_ids, sign in terms:
            if all(dots[c] > 0 for c in tau_ids) and all(
                dots[c] * den > d * nums[c] for c in hat_ids
            ):
                total += sign
    return total


def gamma_family(sys: RestrictedRootSystem, q: int, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over cones R <= q whose span contains h of the kernel at Y's projection."""
    kernel = sys.kernel_tables
    return _gamma(kernel.compiled[q][1], *kernel.point(h), y)


def partition_of_unity_value(sys: RestrictedRootSystem, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over all cones Q of gamma_family * tau^G_Q(h - Y_Q); must be 1."""
    kernel = sys.kernel_tables
    dots, d = kernel.point(h)
    total = 0
    for (top, table), (nums, den) in zip(kernel.compiled, y.thresholds):
        if all(dots[c] * den > d * nums[c] for c in top):
            total += _gamma(table, dots, d, y)
    return total


def partition_of_unity_check(
    sys: RestrictedRootSystem, y: OrthogonalSet, points: Sequence[Sequence]
) -> list[tuple[Vec, int]]:
    """Evaluate the partition of unity at each point; return the violations."""
    bad = []
    for h in points:
        v = partition_of_unity_value(sys, h, y)
        if v != 1:
            bad.append((_parse_vec(h), v))
    return bad


# -- lattice coordinates ------------------------------------------------------


def lattice_coords(sys: RestrictedRootSystem, points: Sequence[Vec]) -> list[Vec]:
    """Coordinates of each point in the normalization lattice basis, from one elimination."""
    coords = linalg.coordinate_matrix(sys.lattice.basis, points)
    if coords is None:
        raise ValueError("point is outside the span of the normalization lattice")
    cols, d = coords
    return [tuple(Fraction(x, d) for x in col) for col in zip(*cols)]


def _sup_norm(v: Vec) -> Fraction:
    return max((abs(x) for x in v), default=Fraction(0))


# -- exact convex hulls -------------------------------------------------------


class Hull:
    """Exact convex hull of rational points, as a list of integer inequalities.

    Points are rescaled to integers first, so every later test is integer
    arithmetic.  ``facets`` lists pairs (normal, rhs), read as
    normal . x <= rhs on scaled points: the integer equations of the affine
    span in both orientations, then one inequality per facet.  A hull of
    affine dimension k finds its facets from its k-point subsets, in any
    dimension: a subset's normal is the cofactor normal of its differences
    together with the span equations, and its plane is a facet when no two
    points lie on opposite sides.  ``classify`` returns +1 (interior),
    0 (boundary) or -1 (outside); a hull of less than full dimension has no
    interior, so its points read 0.

    The subset search is the brute-force reference for ``hull_rows``; no
    volume or count of this module uses it.
    """

    def __init__(self, points: Sequence[Sequence]):
        pts = list(points)
        if not pts:
            raise ValueError("hull of no points")
        self.dim = len(_parse_vec(pts[0]))
        ints, self.scale = _integer_basis([_parse_vec(p, self.dim) for p in pts])
        self.vertices: list[tuple[int, ...]] = sorted(set(ints))
        base = self.vertices[0]
        diffs = [linalg.vsub(p, base) for p in self.vertices[1:]]
        span = [linalg.scale_to_integers(e) for e in linalg.nullspace(diffs, ncols=self.dim)]
        self.affine_dim = self.dim - len(span)
        self.facets: list[tuple[tuple[int, ...], int]] = []
        for e in span:
            rhs = linalg.dot(e, base)
            self.facets += [(e, rhs), (tuple(-x for x in e), -rhs)]
        self.facets += self._find_facets(span)

    def _find_facets(self, span: list[tuple[int, ...]]) -> list[tuple[tuple[int, ...], int]]:
        pts, k = self.vertices, self.affine_dim
        decided = set()
        facets = []
        for subset in combinations(pts, k) if k else ():
            base = subset[0]
            normal = _cofactor_normal([linalg.vsub(p, base) for p in subset[1:]] + span)
            if normal is None:
                continue
            rhs = linalg.dot(normal, base)
            if (normal, rhs) in decided:
                continue
            decided.add((normal, rhs))
            above = below = False
            for p in pts:
                v = linalg.dot(normal, p) - rhs
                above = above or v > 0
                below = below or v < 0
                if above and below:
                    break
            else:
                facets.append((tuple(-x for x in normal), -rhs) if above else (normal, rhs))
        return sorted(facets)

    def classify(self, point: Sequence) -> int:
        p = _parse_vec(point, self.dim)
        return _facet_side(self.facets, tuple(x * self.scale for x in p))


def _facet_side(facets: Sequence[tuple[tuple[int, ...], int]], p: Sequence) -> int:
    """+1 strictly inside every facet inequality n . p <= rhs, 0 on one, -1 outside."""
    boundary = False
    for nrm, rhs in facets:
        v = linalg.dot(nrm, p)
        if v > rhs:
            return -1
        if v == rhs:
            boundary = True
    return 0 if boundary else 1


def _cofactor_normal(rows: list[Sequence[int]]) -> Optional[tuple[int, ...]]:
    """Primitive integer normal to n - 1 integer vectors in n-space, first nonzero
    entry positive; None if they are dependent.

    It is the kernel vector read off ``linalg._bareiss``: d at the one free
    column f and -row[f] at each row's pivot, which is (up to the sign and
    content fixed here) the vector of signed maximal minors.
    """
    rows = list(rows)
    pivots, d = linalg._bareiss(rows)
    if len(pivots) < len(rows):
        return None
    (free,) = set(range(len(rows) + 1)).difference(pivots)
    normal = [0] * (len(rows) + 1)
    normal[free] = d
    for row, pc in zip(rows, pivots):
        normal[pc] = -row[free]
    g = math.gcd(*normal)
    if normal < [0] * len(normal):
        g = -g
    return tuple(x // g for x in normal)


# -- volumes ------------------------------------------------------------------


def triangulated_volume(
    vertices: Sequence[tuple[int, ...]], rows: Sequence[tuple[tuple[int, ...], int]]
) -> Fraction:
    """Euclidean volume of the convex hull of integer points, given integer rows
    a . x <= b that hold at every point and include a row for every facet.

    Sums |det| / d! over a pulling triangulation: each face is coned from
    its least point (a vertex, being lexicographically least) over its
    facets that miss that point, down to single points.  The facets of a
    face are the inclusion-maximal proper cuts of it by the point sets tight
    on the rows.  A redundant row cuts out a face, which lies in a facet, so
    it adds no simplex.  A hull of affine rank below d has volume 0.
    """
    pts = sorted(set(vertices))
    dim = len(pts[0])
    if linalg.rank([linalg.vsub(p, pts[0]) for p in pts[1:]]) < dim:
        return Fraction(0)
    cuts = [frozenset(i for i, p in enumerate(pts) if linalg.dot(a, p) == b) for a, b in rows]

    def simplices(face: frozenset) -> list[tuple[int, ...]]:
        apex = min(face)
        if len(face) == 1:
            return [(apex,)]
        sub = {face & c for c in cuts} - {face, frozenset()}
        return [
            (apex,) + rest
            for f in sub
            if apex not in f and not any(f < g for g in sub)
            for rest in simplices(f)
        ]

    total = Fraction(0)
    for simplex in simplices(frozenset(range(len(pts)))):
        base = pts[simplex[0]]
        total += abs(linalg.det([linalg.vsub(pts[i], base) for i in simplex[1:]]))
    return total / math.factorial(dim)


def volume_polytope(y: OrthogonalSet) -> Fraction:
    """Volume of the hull of the chamber points, in normalization-lattice units.

    The chamber points, in lattice coordinates N / e over one denominator,
    are the vertices, and the hull's rows are read off the fan
    (``hull_rows``); ``triangulated_volume`` runs over both scaled by e.
    """
    if not y.is_positive:
        raise ValueError("polytope volume requires a positive orthogonal set")
    sys = y.system
    basis = sys.lattice.basis
    n, e = _integer_basis(lattice_coords(sys, [y.points[c] for c in sys.chambers]))
    rows = [(a, b * e) for a, b in hull_rows(y, basis)]
    return triangulated_volume(n, rows) / e ** len(basis)


def volume_analytic(y: OrthogonalSet) -> Fraction:
    """Volume as the leading coefficient of the chamber exponential sum
    (Lawrence, *Math. Comp.* 1991).

    For each generic covector mu the value is
    sum_P covol(Z[coroots_P]) * <mu, Y_P>^r / (r! * prod <mu, coroot>), which
    is independent of mu; three directions are evaluated and must agree
    exactly.  All but <mu, Y_P> is fixed per system: those chamber weights
    are computed once, as integers over one denominator
    (``RestrictedRootSystem.volume_weights``).  With Y = N / e cleared once, each
    direction is one integer sum and one Fraction.
    """
    sys, (n, e) = y.system, y._integral
    r = sys.ambient_dim
    values = [
        Fraction(sum(w * linalg.dot(mu, p) ** r for w, p in zip(ws, n)), d * e**r)
        for mu, ws, d in sys.volume_weights
    ]
    if any(v != values[0] for v in values[1:]):
        raise ArithmeticError(f"analytic volume differs across directions: {values}")
    return values[0]


# -- support bound -------------------------------------------------------------


@dataclass
class SupportBoundReport:
    samples: int
    nonzero: int
    c_empirical: Fraction
    c_bound: Fraction
    ok: bool


def support_bound_certificate(sys: RestrictedRootSystem) -> Fraction:
    """A Y-independent constant bounding support points of the hull kernel.

    Derived from the dual bases: any supported point decomposes over some
    chamber's coroots with coefficients read off by the dual covectors.
    """
    g = sys.full_cone().index
    best = Fraction(0)
    basis = [linalg.vec(b) for b in sys.lattice.basis]
    for c in sys.chambers:
        pairs = sys.cone_simple_pairs(c)
        duals = sys.dual_basis(c, g)
        total = Fraction(0)
        for (a, av), w in zip(
            [pairs[i] for i in sys.vanishing_indices(c, g)], duals
        ):
            av_c = linalg.coordinates_in_basis(basis, av)
            w_norm = sum(abs(x) for x in w)
            total += _sup_norm(av_c) * w_norm * max(
                _sup_norm(linalg.vec(b)) for b in sys.lattice.basis
            )
        best = max(best, total)
    return best * sys.ambient_dim


def support_bound_check(
    sys: RestrictedRootSystem,
    y: OrthogonalSet,
    points: Sequence[Sequence],
) -> SupportBoundReport:
    """Empirically bound |H| / sup|Y_P| over sampled points with nonzero kernel."""
    g = sys.full_cone().index
    sup_y = max(map(_sup_norm, lattice_coords(sys, list(y.points.values()))), default=Fraction(0))
    supported = [_parse_vec(h) for h in points if gamma_family(sys, g, h, y) != 0]
    c_emp = Fraction(0)
    ok = True
    for hn in map(_sup_norm, lattice_coords(sys, supported)):
        if sup_y == 0:
            if hn != 0:
                ok = False
            continue
        c_emp = max(c_emp, hn / sup_y)
    c_bound = support_bound_certificate(sys)
    if c_emp > c_bound:
        ok = False
    return SupportBoundReport(len(points), len(supported), c_emp, c_bound, ok)


# -- lattice counting and exponential-polynomial extrapolation -----------------


def v_tilde_lattice(
    y: OrthogonalSet,
    lattice_basis: Sequence[Sequence],
    k: int,
    x0: Sequence,
    exact: bool = False,
) -> int:
    """Count lattice points H with gamma_family(G, H, Y + Y[k*x0]) == 1.

    The counting lattice is spanned by ``lattice_basis`` (independent rational
    vectors).  With ``exact`` the kernel is evaluated at every point of the
    vertices' bounding box.  Otherwise the box is scanned line by line along
    the last lattice coordinate: the hull rows read off the fan (``hull_rows``)
    cut each line to an integer interval, and all of it counts, since for a
    positive Y the kernel Gamma^G(H) is 1 at every H meeting every row.  A
    box of more than ``MAX_SCAN_LINES`` scan lines is refused before either scan.

    Without ``exact``, Y[x0] = ``special(x0)`` is built and validated once
    per Y and parsed x0 (``OrthogonalSet.sweep``).  The wall relation is linear, so
    Y + k*Y[x0] is orthogonal with wall coefficients r_Y + k*r_X and needs no
    check.  Its vertices and hull thresholds are affine in k: integers read
    off rows cached once per set (Y = N / e_Y, Y[x0] = M / e_X).  With
    ``exact`` Y + Y[k*x0] is built and validated literally.

    Proof, in the conventions of ``KernelTables``: Y_Q = ``projected(Q)``,
    the roots of tau^G_Q are those of ``cone_simple_pairs(Q)`` (canonical
    extensions through ``levi_projection(Q)``) and the sign is
    (-1)^(dim R - dim Q).  Every step is a sign test, so it covers the
    non-reduced BC systems, whose fan and chamber simple roots are those of
    their indivisible roots.
    (i) With delta_r(H) = [H in span r], delta_r tau^G_r is the indicator of
    the relative interior of the cone r, so sum_r delta_r(H) tau^G_r(H) = 1.
    (ii) For r <= Q, levi_projection(Q) maps Y_r to Y_Q, so
    tau^G_Q(H - Y_Q) = tau^G_Q(H - Y_r).  Exchanging the sums of the
    partition of unity sum_Q Gamma^Q(H) tau^G_Q(H - Y_Q) and applying
    Langlands' combinatorial lemma, sum over R <= Q <= G of
    (-1)^(dim R - dim Q) tau_hat^Q_R(X) tau^G_Q(X) = [R = G] at
    X = H - Y_r, turns it into (i): it is 1 at every H.
    (iii) Let H meet every row, Q != G and P = ``chamber_below(Q)``.  Each w
    of ``dual_basis(Q, G)`` is in ``dual_basis(P, G)`` and vanishes on the
    kernel of ``levi_projection(Q)``, so by its row
    <w, H - Y_Q> = <w, H - Y_P> <= 0.  The inverse Cartan matrix of P's simple
    roots is nonnegative (a finite reflection group's Cartan matrix is a
    nonsingular M-matrix), so w is a nonzero nonnegative combination of the
    roots of ``cone_simple_pairs(Q)``, which cannot all be positive at
    H - Y_Q, where w is not: tau^G_Q(H - Y_Q) = 0.  Only Q = G is left in
    (ii): Gamma^G(H) = 1.
    That Gamma^G(H) is not 1 where a row fails is Arthur's hull statement
    (*The trace formula in invariant form*, 1981), as in ``hull_rows``.
    """
    if k < 0:
        raise ValueError("dilation must be nonnegative")
    sys = y.system
    xv = _parse_vec(x0, sys.ambient_dim)
    if exact:
        shifted = y.add(OrthogonalSet.special(sys, linalg.vscale(k, xv)))
        if not shifted.is_positive:
            raise ValueError("lattice counting requires a positive orthogonal set")
        basis, g = [_parse_vec(b) for b in lattice_basis], sys.full_cone().index
        box = product(*_box(basis, *shifted._integral))
        points = (linalg.combination(m, basis, sys.ambient_dim) for m in box)
        return sum(gamma_family(sys, g, h, shifted) == 1 for h in points)
    sweep, signed = y.sweep(xv)
    if any(r + k * rx < 0 for r, rx in signed):
        raise ValueError("lattice counting requires a positive orthogonal set")
    basis = [_parse_vec(b) for b in lattice_basis]
    (ny, ey), (nx, ex) = y._integral, sweep._integral
    vertices = [[a * ex + k * b * ey for a, b in zip(p, q)] for p, q in zip(ny, nx)]
    values = zip(y._facet_values, sweep._facet_values)
    bounds = [min(a * ex + k * b * ey for a, b in zip(u, v)) for u, v in values]
    box = _box(basis, vertices, ey * ex)
    last = len(box) - 1
    rows = [(a[:last], a[last], b) for a, b in _rows(sys, bounds, ey * ex, basis)]
    count = 0
    for prefix in product(*box[:last]):
        lo, hi = box[last].start, box[last].stop - 1
        for a, t, b in rows:
            s = b - linalg.dot(a, prefix)
            if t > 0:
                hi = min(hi, s // t)
            elif t < 0:
                lo = max(lo, -(s // -t))
            elif s < 0:
                break
        else:
            count += max(0, hi - lo + 1)
    return count


def _integer_basis(basis: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """(B, e) with basis[i] = B[i] / e, B integral and e > 0."""
    n = len(basis[0])
    flat, e = linalg.clear_denominators([x for b in basis for x in b])
    return [flat[i * n : (i + 1) * n] for i in range(len(basis))], e


def hull_rows(y: OrthogonalSet, basis: Sequence[Vec]) -> list[tuple[tuple[int, ...], int]]:
    """Integer rows (a, b) with hull(Y) = {sum m_i basis_i : a . m <= b for every row}.

    Read off the fan for a positive set Y: <c, H> <= <c, Y_P> for every
    chamber P and every covector c of ``RestrictedRootSystem.facet_rows``,
    keeping the least bound of each covector.  The kernel is not built.
    """
    if not y.is_positive:
        raise ValueError("hull rows from the fan require a positive orthogonal set")
    return _rows(y.system, [min(v) for v in y._facet_values], y._integral[1], basis)


def _rows(sys: RestrictedRootSystem, bounds: list[int], den: int, basis: Sequence[Vec]):
    """The rows of <c, H> <= bounds[i] / den over the covectors c of ``facet_rows``."""
    ints, e = _integer_basis(basis)
    pairing = linalg.matmul([c for c, _ in sys.facet_rows], linalg.transpose(ints))
    return [(tuple(x * den for x in row), b * e) for row, b in zip(pairing, bounds)]


# A count costs one step per scan line; the largest count of a README command
# scans 95,053 lines.
MAX_SCAN_LINES = 200_000


def _box(basis: list[Vec], points: Sequence[Sequence], scale: int) -> list[range]:
    """The integer box of lattice coordinates around the points / scale, refused
    before any scan when it has more than ``MAX_SCAN_LINES`` scan lines."""
    coords = linalg.coordinate_matrix(basis, points) if basis else None
    if coords is None:
        raise ValueError("the counting basis must be independent and span every vertex")
    cols, den = coords[0], coords[1] * scale
    box = [range(min(row) // den, -(-max(row) // den) + 1) for row in cols]
    lines = math.prod(map(len, box[:-1]))
    if lines > MAX_SCAN_LINES:
        raise ValueError(f"the count would scan {lines} lines, more than the limit of {MAX_SCAN_LINES}")
    return box


@dataclass
class ExpPolyFit:
    """A quasi-polynomial fit f(k) = p_{k mod T}(k) to integer samples."""

    period: int
    class_polys: list[tuple[Fraction, ...]]  # coefficient tuples, low degree first

    def evaluate(self, k: int) -> Fraction:
        coeffs = self.class_polys[k % self.period]
        out = Fraction(0)
        for c in reversed(coeffs):
            out = out * k + c
        return out

    @property
    def polynomial_part_constant(self) -> Fraction:
        """Constant term of the purely polynomial component of the fit.

        Writing the quasi-polynomial as a sum of root-of-unity exponentials
        times polynomials, the polynomial attached to the trivial exponential
        is the average of the per-class polynomials.
        """
        return sum(coeffs[0] for coeffs in self.class_polys) / self.period


def fit_exp_polynomial(
    samples: Sequence, max_period: int = 4, max_degree: int = 3
) -> ExpPolyFit:
    """Fit the minimal-period quasi-polynomial reproducing all samples exactly.

    Each residue class gets the interpolant of degree <= max_degree on its first
    max_degree + 1 samples, which must reproduce all of its samples.
    """
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


def refinement_constant_term(
    y: OrthogonalSet,
    x0: Sequence,
    k: int,
    max_period: int = 4,
) -> Fraction:
    """Normalized constant term of the lattice-count family at refinement 1/k.

    Counts points of (1/k) times the normalization lattice inside the shifted
    hulls Y + Y[j*x0] for j = 0, 1, ..., fits an exponential polynomial in j,
    and returns its polynomial-part constant scaled by the refined covolume.
    """
    sys = y.system
    r = sys.ambient_dim
    basis = [linalg.vscale(Fraction(1, k), linalg.vec(b)) for b in sys.lattice.basis]
    # largest dilation first: for a dominant x0 its box is the largest, refused before any scan
    counts = [v_tilde_lattice(y, basis, j, x0) for j in reversed(range(max_period * (r + 2) + 2))]
    fit = fit_exp_polynomial(counts[::-1], max_period=max_period, max_degree=r)
    return fit.polynomial_part_constant * Fraction(1, k**r)
