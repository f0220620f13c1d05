"""Weighted orthogonal sets over a restricted root fan and their calculus.

An orthogonal set assigns a point Y_P to every chamber P so that points of
wall-adjacent chambers differ by a rational multiple of the wall's coroot.  This module
implements the alternating-sum kernels of the indicators tau / tau-hat / delta,
compiled once per system, over W's orbits of face pairs, to integer bitmasks with a sign
bit per covector id c (<c, h> > 0) and after them a block per chamber P with a threshold
bit per id c read against Y_P (<c, h> > <c, Y_P>), one AND per term, the resulting
partition of unity, exact hull volumes and lattice-point counting with
exponential-polynomial extrapolation.  Every system table it reads comes from the root
datum as ``RestrictedRootSystem`` clears it once: the kernel compile reads ``cartan``,
``simple_coordinates`` and the integer simple-root rows of ``integral_roots``.  A set is
stored as integer rows over one denominator, and is built, added, translated and validated
in integers against system tables (``chamber_weyl_rows``, ``walls``); its
Fraction ``points`` are a view.  A positive set's hull is read off the fan as integer rows
(``CountPlan``): the covectors are ``facet_rows``, the primitive rows of the integer
``chamber_duals``, paired with a basis by the one ``_pairing``, kept per system and basis;
``tests/hull_oracle.py::hull_rows`` reads the same rows for the tests.  A count sweeps the
lattice against them a plane of its last two coordinates at a time, from a ``CountPlan``
kept per (set, sweep point, basis), whose sweep set special(x0) is kept per system and x0
(``_sweep``).  The polytope volume is a signed sum of simplex determinants over one pulling
triangulation of the hull, labelled by chambers and compiled once per system
(``hull_simplices``), exact on every positive set.  The rows, the triangulation and the analytic volume's weights
(``volume_weights``) are system tables, so no count or volume builds the kernel.  A
``_Point`` reads a point as ``_parse_vec`` does, clears it to integers with no Fraction made, pairs it with the kernel's covectors once and sets its bits for
every chamber in one mask, each covector's threshold bits by one bisection of the set's sorted
``thresholds``, and refuses a set of another system; ``check_kernel`` makes one per sampled
point for both checks of ``ortho check``: the partition of unity and, from its full-cone
term Gamma^G, the support bound, in integers through the coroots' lattice coordinates
(``coroot_lattice_rows``, which ``support_bound_certificate`` and ``volume_weights`` read
too) and ``chamber_duals``.  The analytic volume reads chamber data too, so the independent
check of both volumes is the brute-force ``Hull``, in the tests.  The fit of the counts
solves its Vandermonde systems in integers; Fractions are made only for results that are
rational numbers: volumes, coefficients and constants.  Every vector handed in (points, sweep
points, counting bases) is read by ``_parse_vec`` (a kernel point by ``_parse_integral``, which
clears it) where it is used, with the ambient dimension
(a ``Hull``'s with its first point's length), so one of another length is refused, not cut by ``zip``.

All boundary values are canonical: an indicator kernel evaluated on a wall is
whatever the alternating sum says.  For a positive set that is 1 on the whole
closed hull (proved in README.md, "The kernel is 1 on the closed hull"); for a
non-positive set it may differ from closed-hull membership on a measure-zero set.
"""

from __future__ import annotations

import contextlib
import functools
import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, combinations, compress, product, repeat
from typing import Iterator, Optional, Sequence

from . import linalg
from .exact_linalg import _as_list
from .linalg import Vec
from .root_data import RestrictedRootSystem, _parse_integral, _parse_vec


# -- orthogonal sets ----------------------------------------------------------


class OrthogonalSet:
    """A chamber-indexed family of points with coroot-directed wall jumps.

    The stored form is ``_integral`` = (N, e): integer rows N in ``system.chambers``
    order over the least common denominator e > 0, so Y_P = N[i] / e at the i-th
    chamber P.  ``points`` maps chamber index -> Y_P as a Fraction tuple, a view made
    from (N, e) on first use.  Validation checks every wall-adjacent pair (P, P') of
    the chamber wall table ``RestrictedRootSystem.walls``: Y_P - Y_P' must be r * (the
    coroot of P's simple root along the wall), tested by integer cross-multiplication
    against its ``integral_coroots`` row, and r has the sign of the integer kept per
    wall in ``_wall_values``.  The set is *positive* when all of them are nonnegative.
    """

    def __init__(self, system: RestrictedRootSystem, points: Optional[dict[int, Sequence]] = None,
                 *, integral: Optional[tuple[Sequence[tuple[int, ...]], int]] = None):
        """From ``points`` (chamber -> rational point) or, as stored, from ``integral`` = (N, e)."""
        self.system = system
        if integral is None:
            if sorted(points) != sorted(system.chambers):
                raise ValueError("points must be indexed by exactly the chambers")
            integral = linalg.integer_basis([_parse_vec(points[c], system.ambient_dim) for c in system.chambers])
        elif (g := math.gcd(integral[1], *(x for row in integral[0] for x in row))) > 1:
            integral = [tuple(x // g for x in row) for row in integral[0]], integral[1] // g
        self._integral: tuple[Sequence[tuple[int, ...]], int] = integral
        self._plans: dict[tuple, CountPlan] = {}  # _value_key(x0, *basis) -> ``count_plan(x0, basis)``
        self._validate()

    def _validate(self) -> None:
        """Per wall, D = N[i] - N[j] must be a multiple of K, the integer coroot row: D[x] K[m]
        == D[m] K[x] for every x.  Then r = D[m] c / (e K[m]) has the sign of t = D[m] K[m]."""
        sys, (n, e), coroots = self.system, self._integral, self.system.integral_coroots[0]
        self._wall_values: list[int] = []  # t per row of ``walls``
        for i, j, a, m in sys.walls:
            diff, k = [x - y for x, y in zip(n[i], n[j])], coroots[a]
            if any(x * k[m] != diff[m] * y for x, y in zip(diff, k)):
                raise ValueError(
                    f"chambers {sys.chambers[i]}, {sys.chambers[j]}: point difference "
                    f"{linalg.vec_str(Fraction(x, e) for x in diff)} "
                    f"is not a multiple of the wall coroot {linalg.vec_str(sys.coroots[a])}"
                )
            self._wall_values.append(diff[m] * k[m])
        self.is_positive = all(t >= 0 for t in self._wall_values)

    @functools.cached_property
    def points(self) -> dict[int, Vec]:
        """Chamber -> Y_P = N[i] / e as a Fraction tuple."""
        n, e = self._integral
        return {c: tuple(Fraction(x, e) for x in row) for c, row in zip(self.system.chambers, n)}

    @functools.cached_property
    def thresholds(self) -> tuple[list[list[int]], list[list[int]]]:
        """(values, masks): per covector id c of the kernel, the values <c, N[i]> of c's threshold bits
        ``slots[c]``, sorted, and the ORs of their bits in that order, masks[c][k] those of the k least, so
        the bits of the values below t are masks[c][bisect_left(values[c], t)].  Over e, <c, N[i]> is the
        <c, Y_P> a threshold bit compares with.  The covectors of tau^G_q and of the tau_hat^Q_R of entries q,
        the a_j o proj_I and varpi^J_j of ``_standard_covectors`` moved by w_P to q = w_P(F_I), vanish on the
        coroots of I, the kernel of q's Levi projection (step 2 of README.md, "The kernel is 1 on the closed
        hull"), so at P = ``chamber_below(q)`` they read <c, Y_q> = <c, Y_P>."""
        kernel, (n, _) = self.system.kernel_tables, self._integral
        values, masks = [], []
        for c, slots in zip(kernel.covectors, kernel.slots):
            pairs = sorted((linalg.dot(c, n[i]), b) for i, b in slots)
            values.append([v for v, _ in pairs])
            masks.append(list(accumulate((1 << b for _, b in pairs), operator.or_, initial=0)))
        return values, masks

    @functools.cached_property
    def _facet_values(self) -> list[list[int]]:
        """<c, N[i]> for each hull covector c and chamber position i of ``facet_rows``."""
        n, _ = self._integral
        return [[linalg.dot(c, n[i]) for i in pos] for c, pos in self.system.facet_rows]

    def count_plan(self, x0: Sequence, basis: Sequence[Sequence]) -> "CountPlan":
        """The ``CountPlan`` of the counts of Y + k*Y[x0] in the basis, made once per value of the two:
        kept under their ``_value_key``, so they are parsed (and "p/q" strings read) only on a miss."""
        vectors = (x0, *basis)  # the basis read once, as the parse reads it again
        if (plan := self._plans.get(_value_key(*vectors))) is None:
            xv, *parsed = (_parse_vec(v, self.system.ambient_dim) for v in vectors)
            if (plan := self._plans.get(key := _value_key(xv, *parsed))) is None:
                plan = self._plans[key] = CountPlan.of(self, xv, parsed)
        return plan

    # -- constructors and arithmetic -----------------------------------------

    @classmethod
    def special(cls, system: RestrictedRootSystem, x: Sequence) -> "OrthogonalSet":
        """The set Y_P = w_P(x) obtained by sweeping one point around the fan: with x = X / d
        and w_P = M_P / D (``chamber_weyl_rows``), N[i] = M_P X over e = D d."""
        n = system.ambient_dim
        xi, d = _parse_integral(x, n)
        rows, den = system.chamber_weyl_rows
        flat = linalg.matvec(rows, xi)
        return cls(system, integral=([flat[i : i + n] for i in range(0, len(flat), n)], den * d))

    def add(self, other: "OrthogonalSet") -> "OrthogonalSet":
        if other.system is not self.system:
            raise ValueError("orthogonal sets live on different systems")
        (n, e), (m, f) = self._integral, other._integral
        rows = [tuple(a * f + b * e for a, b in zip(u, v)) for u, v in zip(n, m)]
        return OrthogonalSet(self.system, integral=(rows, e * f))

    def translate(self, v: Sequence) -> "OrthogonalSet":
        (n, e), (t, d) = self._integral, _parse_integral(v, self.system.ambient_dim)
        rows = [tuple(a * d + x * e for a, x in zip(row, t)) for row in n]
        return OrthogonalSet(self.system, integral=(rows, e * d))

# -- the indicator kernel, compiled to integer bitmasks ---------------------------

# The compile moves the 3^rank standard face pairs to each of |W| chambers, in rank x rank
# integers: B4 moves 31,104 in 0.15-0.2 s, A1^6 in dimension 16 moves 46,656 in 0.3-0.5 s
# and A1^7 279,936 in about 3 s (113 MB).
MAX_KERNEL_MOVES = 50_000


def _standard_covectors(sys: RestrictedRootSystem):
    """(tau, tau_hat) at the standard faces F_I <= F_K <= F_J, as primitive integer rows in simple-root
    coordinates, read off the Cartan matrix A = <a_i, a_j^vee>, with varpi^I_i the rows of A_II^-1 (the
    duals of the coroots of I in the span of their roots): tau(I, J) are the roots of tau^J_I, the
    canonical extensions a_j o proj_I = e_j - sum_(i in I) A[j][i] varpi^I_i, j in J - I, through the
    Levi projection proj_I = 1 - sum_(i in I) a_i^vee (x) varpi^I_i, and tau_hat(K, J) the dual basis
    of tau_hat^J_K, the varpi^J_j, j in J - K.  The literal per-cone forms are in ``tests/root_oracle.py``."""
    cartan, r = sys.cartan, sys.rank

    @functools.cache
    def duals(i: frozenset) -> dict[int, list]:  # I -> {i: varpi^I_i}, in simple coordinates
        block = sorted(i)
        inverse = linalg.invert([[cartan[a][b] for b in block] for a in block])
        return {a: [dict(zip(block, row)).get(m, 0) for m in range(r)] for a, row in zip(block, inverse)}

    def tau(i: frozenset, j: frozenset) -> tuple[tuple[int, ...], ...]:
        varpi = duals(i)
        rows = ([int(m == k) - sum(cartan[k][a] * varpi[a][m] for a in i) for m in range(r)] for k in j - i)
        return tuple(map(linalg.scale_to_integers, rows))

    def tau_hat(k: frozenset, j: frozenset) -> tuple[tuple[int, ...], ...]:
        return tuple(linalg.scale_to_integers(duals(j)[a]) for a in j - k)

    return tau, tau_hat


class KernelTables:
    """The alternating kernel of one system as integer bitmasks, one bit per test.

    ``covectors`` are distinct primitive integer covectors, each a positive
    multiple of the root, dual-basis covector or hyperplane it stands for, so
    comparisons keep their truth values.  Bit c of a mask, c below the number of
    ids, is id c's sign bit (``signs[c]``), set at a point h with <c, h> > 0.
    After the sign bits each chamber P, in ``chambers`` order, owns a block of
    threshold bits, one per id c read against Y_P, set where <c, h> > <c, Y_P>;
    ``slots[c]`` lists c's threshold bits as (P's position in ``chambers``, bit),
    and ``full`` has every bit of the layout set.  ``compiled[q]`` is (top, table):
    top has the threshold bits of tau^G_q, in the block of ``chamber_below(q)``,
    and the table has an entry (r, zeros, terms) per cone r <= q, zeros the sign
    bits of the hyperplanes of delta^r, and a term (mask, (-1)^(dim R - dim q)) per
    r <= R <= q, mask the sign bits of tau^R_r and the threshold bits of
    tau_hat^q_R in the block of ``chamber_below(r)``.  A test holds at h when its
    mask lies in h's bits, which ``_Point`` sets once per point.

    Every covector the kernel tests is a combination of the simple roots, so the
    compile works in simple-root coordinates, vectors of length rank.  Terms are
    read off Cartan blocks for the 3^rank pairs of standard faces F_I <= F_J of the
    base chamber (``_standard_covectors``) and moved to each pair r <= q, since the
    kernel is W-equivariant (Arthur, 1981): r and q are faces w_P(F_I), w_P(F_J) of
    P = ``chamber_below(r)`` (``chamber_faces``) with the w_P(F_K), I <= K <= J,
    between them, and w_P maps cones, simple roots, Levi projections and dual bases
    to those of the image and keeps dimensions.  So c becomes c o w_P^-1 = sum_j c_j
    w_P(a_j), and w_P(a_j) is P's j-th simple root: c times the rank x rank integer
    rows of those roots' ``simple_coordinates``, made primitive once per (c, P).  The
    covectors are moved first, so that every sign bit precedes the blocks; then each
    standard indicator's sign and threshold masks are made once per P; signs stay.
    ``covectors`` are the ids' primitive ambient forms, c times the simple roots.
    The pair-by-pair compile of the literal per-cone data is
    ``kernel_oracle.one_pass_tables``.
    """

    def __init__(self, sys: RestrictedRootSystem):
        weyl = len(sys.chambers)  # one chamber per Weyl element
        if (moves := weyl * 3**sys.rank) > MAX_KERNEL_MOVES:
            size = f"{moves} face pairs ({weyl} Weyl elements times 3^{sys.rank})"
            raise ValueError(f"the kernel compile would move {size}, more than the limit of {MAX_KERNEL_MOVES}")
        ids: dict[tuple[int, ...], int] = {}  # primitive simple coordinates -> id
        coords = sys.simple_coordinates[0]
        std = sys.chamber_faces(sys.base_chamber)  # type I -> the standard face F_I
        tau, tau_hat = _standard_covectors(sys)
        indicators: dict[tuple, int] = {}  # the covectors of one standard indicator -> its number
        number = lambda covectors: indicators.setdefault(covectors, len(indicators))
        standard = {  # (I, J) -> the terms (tau^K_I, tau_hat^J_K, sign) over I <= K <= J, by number
            (i, j): [  # dim F_K - dim F_J = |J| - |K|
                (number(tau(i, k)), number(tau_hat(k, j)), (-1) ** (len(j) - len(k)))
                for k in std if i <= k <= j
            ]
            for i in std for j in std if i <= j
        }
        top = {i: number(tau(i, frozenset(range(sys.rank)))) for i in std}  # tau^G_I
        above = {i: [j for j in std if i <= j] for i in std}
        numbered = list(indicators)
        uses = {}  # I -> the standard covectors of the terms and top of a cone of type I
        for i in std:
            numbers = [top[i], *(n for j in above[i] for t, h, _ in standard[i, j] for n in (t, h))]
            uses[i] = set().union(*(numbered[n] for n in numbers))
        planes = [1 << ids.setdefault(linalg.scale_to_integers(coords[a]), len(ids)) for a in sys.hyperplanes]
        zeros = [sum(b for b, s in zip(planes, c.signs) if not s) for c in sys.cones]  # delta^r
        below = [sys.chamber_below(q) for q in range(len(sys.cones))]
        moved = []  # per chamber: (its faces, the types of those it is chamber_below of, {c: id of c o w_P^-1})
        for p in sys.chambers:
            simple = [coords[sys.roots[k]] for k in sys.chamber_simple_indices(p)]  # a multiple of w_P(a_j), per j
            faces = sys.chamber_faces(p)
            own = [i for i, r in faces.items() if below[r] == p]
            move = lambda c: ids.setdefault(linalg.scale_to_integers(linalg.vecmat(c, simple)), len(ids))
            moved.append((faces, own, {c: move(c) for c in sorted(set().union(*map(uses.get, own)))}))
        tops, tables = [0] * len(sys.cones), [[] for _ in sys.cones]
        self.slots: list[list[tuple[int, int]]] = [[] for _ in ids]
        width = len(ids)  # the first bit of the next chamber's block
        for position, (faces, own, move) in enumerate(moved):
            block: dict[int, int] = {}  # id -> its threshold bit in P's block

            @functools.cache
            def sign(n: int) -> int:  # the sign bits of the n-th standard indicator's covectors moved
                return sum(1 << move[c] for c in numbered[n])

            @functools.cache
            def threshold(n: int) -> int:  # their threshold bits against Y_P
                return sum(1 << block.setdefault(move[c], width + len(block)) for c in numbered[n])

            for i in own:  # once per cone r
                r = faces[i]
                for j in above[i]:
                    terms = [(sign(t) | threshold(h), s) for t, h, s in standard[i, j]]
                    tables[faces[j]].append((r, zeros[r], terms))
                tops[r] = threshold(top[i])
            for c, b in block.items():
                self.slots[c].append((position, b))
            width += len(block)
        self.compiled: list[tuple[int, list]] = list(zip(tops, tables))
        self.full, self.signs = (1 << width) - 1, [1 << c for c in range(len(ids))]
        roots = [sys.integral_roots[0][i] for i in sys.simple_indices]
        self.covectors: list[tuple[int, ...]] = [linalg.scale_to_integers(linalg.vecmat(c, roots)) for c in ids]
        self.columns = list(zip(*self.covectors))


def _same_system(sys: RestrictedRootSystem, y: OrthogonalSet) -> None:
    """Refuse a set of another system, whose chambers and walls are not this system's."""
    if y.system is not sys:
        raise ValueError("the orthogonal set lives on a different system")


class _Point:
    """One point h = H / d, read as ``_parse_vec`` reads it and cleared to integers, against one set Y = N / e of
    the same system: its bits, set once, in two masks.  ``nonzero`` has the sign bits of the kernel's covectors c
    with <c, h> != 0, and ``bad`` the bits h lacks: the sign bits of the c with <c, h> <= 0 and the threshold bits
    (P, c) with <c, h> <= <c, Y_P>.  H is paired once with each c, and <c, h> > <c, Y_P> is <c, H> e > d <c, N_P>,
    so the threshold bits h has are those of the values <c, N_P> below ceil(<c, H> e / d): one ``bisect_left``
    per covector over Y's sorted ``thresholds``.  A test holds at h iff its mask & bad == 0."""

    def __init__(self, sys: RestrictedRootSystem, h: Sequence, y: OrthogonalSet):
        _same_system(sys, y)
        self.h, self.d = _parse_integral(h, sys.ambient_dim)
        self.kernel = kernel = sys.kernel_tables
        products = map(map, repeat(operator.mul), kernel.columns, map(repeat, self.h))  # a column of c times H[j]
        dots = list(functools.reduce(functools.partial(map, operator.add), products))  # <c, H> per c
        (values, masks), e = y.thresholds, y._integral[1]
        # ceil(<c, H> e / d) per c
        ceil = map(operator.neg, map(operator.floordiv, map(operator.mul, dots, repeat(-e)), repeat(self.d)))
        good = sum(map(operator.getitem, masks, map(bisect_left, values, ceil)))
        good += sum(compress(kernel.signs, map(operator.gt, dots, repeat(0))))
        self.nonzero = sum(compress(kernel.signs, dots))
        self.bad = good ^ kernel.full


def _gamma(table: list, point: _Point) -> int:
    total, nonzero, bad = 0, point.nonzero, point.bad
    for _, zeros, terms in table:
        if not zeros & nonzero:
            for mask, sign in terms:
                if not mask & bad:
                    total += sign
    return total


def gamma_family(sys: RestrictedRootSystem, q: int, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over cones R <= q whose span contains h of the kernel at Y's projection."""
    point = _Point(sys, h, y)
    return _gamma(point.kernel.compiled[q][1], point)


def _cone_terms(point: _Point) -> list[int]:
    """Per cone Q, Gamma_Q(h, Y) * tau^G_Q(h - Y_Q): the terms of the partition of unity."""
    bad = point.bad
    return [0 if top & bad else _gamma(table, point) for top, table in point.kernel.compiled]


def partition_of_unity_value(sys: RestrictedRootSystem, h: Sequence, y: OrthogonalSet) -> int:
    """Sum over all cones Q of gamma_family * tau^G_Q(h - Y_Q); must be 1."""
    return sum(_cone_terms(_Point(sys, h, y)))


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

    The subset search is the brute-force reference for the hull rows read
    off the fan (``tests/hull_oracle.py::hull_rows``); no volume or count of
    this module uses it.
    """

    def __init__(self, points: Sequence[Sequence]):
        if not (pts := list(points)):
            raise ValueError("hull of no points")
        self.dim = len(_as_list(pts[0]))
        ints, self.scale = linalg.integer_basis([_parse_vec(p, self.dim) for p in pts])
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


def pulling_simplices(
    points: Sequence[tuple[int, ...]], rows: Sequence[tuple[tuple[int, ...], int]]
) -> list[tuple[int, ...]]:
    """The pulling triangulation of the hull of integer points, as tuples of their indices, given integer
    rows a . x <= b that hold at every point and include a row for every facet.

    Each face is coned from its least index over its facets that miss that point, down to single points;
    the least index of every face must be a vertex of it, as the lexicographically least point is, or any
    point when all are vertices.  The facets of a face are the inclusion-maximal proper cuts of it by the
    index sets tight on the rows; a redundant row cuts out a face, which lies in a facet, so it adds no
    simplex.  The simplices of a full-dimensional hull have dim + 1 points and tile it.
    """
    cuts = [frozenset(i for i, p in enumerate(points) if linalg.dot(a, p) == b) for a, b in rows]

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

    return simplices(frozenset(range(len(points))))


def _simplex_det(points: Sequence[tuple[int, ...]], simplex: tuple[int, ...]) -> int:
    """The determinant of the simplex's edges from its first point, from one ``linalg._bareiss``; 0 when
    they are dependent."""
    pivots, d = linalg._bareiss([linalg.vsub(points[i], points[simplex[0]]) for i in simplex[1:]])
    return d if len(pivots) == len(simplex) - 1 else 0


def hull_simplices(sys: RestrictedRootSystem) -> list[tuple[tuple[int, ...], int]]:
    """The pulling triangulation of every positive set's hull: (simplex, sign) with the simplex as chamber
    positions in ``chambers``, apex the least, and sign that of its determinant in lattice coordinates on
    one strictly positive reference set, ``special(x)`` at x the sum of the positive coroots' integer rows
    (regular and dominant: a positive multiple of the sum of the positive coroots, with which each simple
    root pairs to 2, or 3 when its double is a root).  Empty for a system
    with a center or a normalization lattice of rank below the ambient dimension, whose hulls are not
    full-dimensional.

    Exact on every positive set: a set with every wall coefficient > 0 is a deformation of the Weyl
    permutohedron with the Weyl fan as its normal fan (Ardila, Castillo, Eur and Postnikov, *Coxeter
    submodular functions and deformations of Coxeter permutahedra*, 2020), so on the open cone of such
    sets the hull's face lattice, labelled by chambers, is that of the reference set and its pulling
    triangulation tiles each of them; no simplex degenerates there, and the cone is convex, so each
    determinant keeps its sign.  The signed sum of the determinants is a polynomial in the set and the
    volume is continuous, so the two agree on the closed cone too, on sets with a zero wall.
    """
    n = sys.ambient_dim
    if sys.rank < n or sys.lattice.rank < n:
        return []
    (coroots, _), coords = sys.integral_coroots, sys.simple_coordinates[0]
    positive = [row for a, row in zip(sys.roots, coroots) if min(coords[a]) >= 0]
    ref = OrthogonalSet.special(sys, [sum(col) for col in zip(*positive)])
    points = ref._integral[0]
    rows = [(c, min(v)) for (c, _), v in zip(sys.facet_rows, ref._facet_values)]
    cols, _ = _coordinates(sys.lattice.basis, points)
    lattice = list(zip(*cols))
    return [(s, 1 if _simplex_det(lattice, s) > 0 else -1) for s in pulling_simplices(points, rows)]


def volume_polytope(y: OrthogonalSet) -> Fraction:
    """Volume of the hull of the chamber points, in normalization-lattice units.

    With Y = N / e, one elimination gives the lattice coordinates of N as C / d, so the vertices are
    C / (d e), and the volume is the signed sum of the determinants of the system's hull triangulation
    (``RestrictedRootSystem.hull_simplices``, one ``_bareiss`` of C's rows per simplex) over r! (d e)^r:
    no facet, cut or recursion per set.  It is 0 on a system whose table is empty.
    """
    if not y.is_positive:
        raise ValueError("polytope volume requires a positive orthogonal set")
    sys, (n, e) = y.system, y._integral
    cols, d = _coordinates(sys.lattice.basis, n, "point is outside the span of the normalization lattice")
    points = list(zip(*cols))
    total = sum(sign * _simplex_det(points, s) for s, sign in sys.hull_simplices)
    return Fraction(total, math.factorial(len(cols)) * (d * e) ** len(cols))


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


# -- the kernel at sampled points: partition of unity and support bound ---------


@dataclass
class SupportBoundReport:
    samples: int
    nonzero: int
    c_empirical: Fraction
    c_bound: Fraction
    ok: bool


def support_bound_certificate(sys: RestrictedRootSystem) -> Fraction:
    """A Y-independent constant bounding support points of the hull kernel.

    Derived from the dual bases: any supported point decomposes over some chamber's coroots with
    coefficients read off by the dual covectors (``chamber_duals``, V / D).  The bound is the largest
    chamber sum of |a_i^vee|, read in ``coroot_lattice_rows`` (L / d) at w_P[i], times |V[P][i]|_1,
    over D d, times the lattice basis' sup norm and the dimension."""
    (rows, d), (duals, den) = sys.coroot_lattice_rows, sys.chamber_duals
    best = max(
        sum(max(map(abs, rows[k])) * sum(map(abs, v)) for k, v in zip(sys.chamber_simple_indices(p), duals[p]))
        for p in sys.chambers
    )
    width = max(abs(x) for b in sys.lattice.basis for x in b)
    return Fraction(best * width * sys.ambient_dim, den * d)


def check_kernel(
    sys: RestrictedRootSystem, y: OrthogonalSet, points: Sequence[Sequence]
) -> tuple[list[tuple[Vec, int]], SupportBoundReport]:
    """(the points h where the partition of unity is not 1, with its value; the support bound), from one
    ``_Point`` per point.  tau^G_G is empty, so the full cone's term is Gamma^G(h), and where it is not 0,
    |h| / sup|Y_P| is bounded on the parts sum_i <varpi_i, .> a_i^vee in the coroots' span (the kernel does
    not see the roots' common kernel): with the base chamber's duals V_i / D and coroots L_i / d in the lattice
    (``coroot_lattice_rows``), h = H / D_h has part T H / (D d D_h), T = sum_i L_i (x) V_i in integers, so
    with Y = N / e each ratio is e max|T H| / (D_h max|T N|)."""
    _same_system(sys, y)
    g, base = sys.full_cone().index, sys.base_chamber
    (rows, _), (duals, _) = sys.coroot_lattice_rows, sys.chamber_duals
    t = linalg.matmul(linalg.transpose([rows[k] for k in sys.chamber_simple_indices(base)]), duals[base])
    (n, e), c_bound = y._integral, support_bound_certificate(sys)
    sup_y = max(max(map(abs, linalg.matvec(t, row))) for row in n)
    violations, nonzero, c_emp, ok = [], 0, Fraction(0), True
    for h in points:
        point = _Point(sys, h, y)
        terms = _cone_terms(point)
        if (value := sum(terms)) != 1:
            violations.append((tuple(Fraction(x, point.d) for x in point.h), value))
        if terms[g]:
            nonzero += 1
            hn = max(map(abs, linalg.matvec(t, point.h)))
            if sup_y:
                c_emp = max(c_emp, Fraction(hn * e, point.d * sup_y))
            elif hn:
                ok = False
    return violations, SupportBoundReport(len(points), nonzero, c_emp, c_bound, ok and c_emp <= c_bound)


# -- lattice counting and exponential-polynomial extrapolation -----------------


def v_tilde_lattice(
    y: OrthogonalSet, lattice_basis: Sequence[Sequence], k: int, x0: Sequence, exact: bool = False
) -> int:
    """Count lattice points H with gamma_family(G, H, Y + Y[k*x0]) == 1.

    The counting lattice is spanned by ``lattice_basis`` (independent rational
    vectors).  With ``exact`` the kernel is evaluated at every point of the
    vertices' bounding box.  Otherwise the hull rows read off the fan
    (``CountPlan``) cut each scan line along the last lattice coordinate to an
    integer interval, and all of it counts, since for a positive Y the kernel
    Gamma^G(H) is 1 at every H meeting every row; the lines are counted a plane
    of the last two coordinates at a time (``CountPlan.count``).  A box of more
    than ``MAX_SCAN_LINES`` scan lines is refused before either count.

    Without ``exact``, Y[x0] = ``special(x0)`` is built and validated once
    per system and value of x0 (``_sweep``).  The wall relation is linear, so
    Y + k*Y[x0] is orthogonal with wall coefficients r_Y + k*r_X and needs no
    check.  Its box and its rows are affine in k, read off integers kept once per
    (Y, x0, basis) (``OrthogonalSet.count_plan``).  With ``exact`` Y + Y[k*x0] is
    built and validated literally.

    That the kernel of a positive set is 1 at every H meeting every hull row is
    proved in three steps in README.md, "The kernel is 1 on the closed hull".
    That it is not 1 where a row fails is Arthur's hull statement (*The trace
    formula in invariant form*, 1981).
    """
    if k < 0:
        raise ValueError("dilation must be nonnegative")
    sys = y.system
    if exact:
        xv = _parse_vec(x0, sys.ambient_dim)
        shifted = y.add(OrthogonalSet.special(sys, linalg.vscale(k, xv)))
        if not shifted.is_positive:
            raise ValueError("lattice counting requires a positive orthogonal set")
        basis, g = [_parse_vec(b, sys.ambient_dim) for b in lattice_basis], sys.full_cone().index
        cols, d = _coordinates(basis, shifted._integral[0])
        box = product(*_box(cols, d * shifted._integral[1]))
        points = (linalg.combination(m, basis, sys.ambient_dim) for m in box)
        return sum(gamma_family(sys, g, h, shifted) == 1 for h in points)
    return y.count_plan(x0, lattice_basis).count(k)


def _value_key(*vectors: Sequence) -> Optional[tuple]:
    """Each entry's (numerator, denominator), per vector, equal exactly when the values are; None unless
    each vector is a list or tuple of ints and Fractions (no bool), as ``_parse_vec`` takes them."""
    if all(isinstance(v, (list, tuple)) for v in vectors) and bool not in map(type, chain(*vectors)):
        with contextlib.suppress(AttributeError):  # "p/q" strings, floats
            return tuple(tuple(map(operator.attrgetter("numerator", "denominator"), v)) for v in vectors)
    return None


class CountPlan:
    """The integers of every count of Y + k*Y[x0] in one basis: rows a with bounds b = min(u + k*v over
    ``bounds``), the box around coordinates u + k*v over ``den`` (``coords``, per coordinate), and
    ``signed``, the walls' (a, b) where a + k*b, a positive multiple of r_Y + k*r_X, can be negative.
    The rows and the box's two along the last coordinate m_l split by the sign of a_l: rising rows bound
    m_l above, falling ones below, flat ones the rest."""

    def __init__(self, rows: list, bounds: list, coords: list, den: int, signed: Sequence = ()):
        self.rows, self.bounds, self.coords, self.den, self.signed = rows, bounds, coords, den, signed
        last, unit = len(coords) - 1, (0,) * (len(coords) - 1) + (1,)
        rows = [*rows, unit, tuple(-x for x in unit)]
        sides = (operator.gt, operator.lt, operator.eq)  # rising, falling, flat along m_l
        self.groups = [[i for i, a in enumerate(rows) if side(a[last], 0)] for side in sides]
        self.slopes = [[abs(rows[i][last]) for i in g] for g in self.groups[:2]]
        self.steps = [[[rows[i][j] for i in g] for g in self.groups] for j in range(last)]

    @classmethod
    def of(cls, y: OrthogonalSet, x0: Vec, basis: Sequence[Vec]) -> "CountPlan":
        """With Y = N / e_Y and Y[x0] = M / e_X (``_sweep``), the vertices' coordinates (one
        ``coordinate_matrix``) and the bounds (the least <c, N> e_X + k <c, M> e_Y) of Y + k*Y[x0] are
        u + k*v over e_Y e_X, and with t_Y and t_X per wall of ``_wall_values``, a = t_Y e_X and
        b = t_X e_Y are one positive multiple of r_Y and r_X."""
        sweep = _sweep(y.system, x0)
        (ny, ey), (nx, ex) = y._integral, sweep._integral
        pairs = [(t * ex, tx * ey) for t, tx in zip(y._wall_values, sweep._wall_values)]
        cols, d = _coordinates(basis, ny + nx)
        coords = [[(u * ex, v * ey) for u, v in zip(col[: len(ny)], col[len(ny) :])] for col in cols]
        pairing, e = _pairing(y.system, basis)
        values = zip(y._facet_values, sweep._facet_values)
        bounds = [[(u * ex * e, v * ey * e) for u, v in zip(fy, fx)] for fy, fx in values]
        rows = [tuple(x * ey * ex for x in row) for row in pairing]
        return cls(rows, bounds, coords, d * ey * ex, [(a, b) for a, b in pairs if min(a, b) < 0])

    def box(self, k: int) -> list[range]:
        """The box of Y + k*Y[x0], refused unless that set is positive."""
        if any(r + k * rx < 0 for r, rx in self.signed):
            raise ValueError("lattice counting requires a positive orthogonal set")
        return _box([[u + k * v for u, v in col] for col in self.coords], self.den)

    def count(self, k: int) -> int:
        """The points m of ``box(k)`` with a . m <= b on every row.  With slack = b - a . m over the other m
        and slope |a_l|, a line along m_l is [-min(falling slack // slope), min(rising slack // slope)],
        empty if a flat slack is negative; each rising slack carries one more slope, so the line holds
        max(0, the sum of the two mins).  The last two m are swept a plane at a time (``_plane``)."""
        box, last = self.box(k), len(self.steps)
        bounds = [min(u + k * v for u, v in b) for b in self.bounds] + [box[-1].stop - 1, -box[-1].start]
        (up, down, flat), (ups, _) = self.groups, self.slopes
        slack = [[bounds[i] + t for i, t in zip(up, ups)], [bounds[i] for i in down], [bounds[i] for i in flat]]
        if not last:  # one line
            if min(slack[2], default=0) < 0:
                return 0
            return max(0, sum(min(map(operator.floordiv, s, t)) for s, t in zip(slack, self.slopes)))

        def scan(j: int, slack: list[list[int]]) -> int:  # slack: rising, falling, flat
            if j == last - 1:
                return self._plane(slack, box[j])
            steps, total = self.steps[j], 0
            slack = [[x - a * box[j].start for x, a in zip(s, step)] for s, step in zip(slack, steps)]
            for _ in box[j]:
                total += scan(j + 1, slack)
                slack = [list(map(operator.sub, s, step)) for s, step in zip(slack, steps)]
            return total

        return scan(0, slack)

    def _plane(self, slack: list[list[int]], values: range) -> int:
        """The points with m_j, j = l - 1, in ``values``, from the slacks at m_j = 0, which fall by a_j per step
        of m_j: each flat row cuts m_j once, and each other row's floors on every line are one pipeline."""
        (up, down, flat), (aup, adown, aflat) = slack, self.steps[-1]
        lo, hi = values.start, values.stop - 1
        for s, a in zip(flat, aflat):
            if a > 0:
                hi = min(hi, s // a)
            elif a < 0:
                lo = max(lo, -(s // -a))
            elif s < 0:
                return 0
        if lo > hi:
            return 0
        n, groups = hi - lo + 1, ((up, aup, self.slopes[0]), (down, adown, self.slopes[1]))
        ends = [[_floors(s - a * lo, a, t, n) for s, a, t in zip(*group)] for group in groups]
        lines = [map(min, *f) if len(f) > 1 else f[0] for f in ends]  # map(min, f) would min each int
        return sum(map(max, repeat(0, n), map(operator.add, *lines)))


def _floors(x: int, a: int, t: int, n: int) -> Iterator[int]:
    """(x - a*i) // t for i in range(n)."""
    return map(operator.floordiv, range(x, x - a * n, -a), repeat(t)) if a else repeat(x // t, n)


class LatticeMemo:
    """What the counts of every set of one system share, made on first use: ``pairings``, per value of a
    basis, the ``_pairing`` of ``facet_rows`` with it, and ``sweeps``, per value of a sweep point x0, the
    set ``special(x0)`` (``_sweep``)."""

    def __init__(self):
        self.pairings: dict[tuple, tuple[list[tuple[int, ...]], int]] = {}
        self.sweeps: dict[Vec, OrthogonalSet] = {}


def _pairing(sys: RestrictedRootSystem, basis: Sequence[Vec]) -> tuple[list[tuple[int, ...]], int]:
    """(A, e) with <c, basis_i> = A[m][i] / e for the m-th covector c of ``facet_rows``, made once per
    system and value of the basis (read vectors, so equal values are equal keys), in
    ``RestrictedRootSystem.lattice_memo``."""
    pairings = sys.lattice_memo.pairings
    if (found := pairings.get(key := tuple(basis))) is None:
        ints, e = linalg.integer_basis(basis)
        found = pairings[key] = linalg.matmul([c for c, _ in sys.facet_rows], linalg.transpose(ints)), e
    return found


def _sweep(sys: RestrictedRootSystem, x0: Vec) -> OrthogonalSet:
    """Y[x0] = ``special(x0)``, built and validated once per system and value of the read point x0, in
    ``RestrictedRootSystem.lattice_memo``."""
    sweeps = sys.lattice_memo.sweeps
    if (found := sweeps.get(x0)) is None:
        found = sweeps[x0] = OrthogonalSet.special(sys, x0)
    return found


# A count takes one Python step per plane of its last two coordinates and one C-level
# pipeline item per scan line and row; the largest count of a README command scans
# 95,053 lines (A3, 0.04-0.09 s on a shared 2-core VM, Python 3.11).
MAX_SCAN_LINES = 200_000


def _coordinates(
    basis: Sequence[Sequence],
    points: Sequence[Sequence],
    refusal: str = "the counting basis must be independent and span every vertex",
) -> tuple[list[list[int]], int]:
    """``linalg.coordinate_matrix`` of the points, refused with ``refusal`` unless the basis is
    independent and spans them."""
    coords = linalg.coordinate_matrix(basis, points) if basis else None
    if coords is None:
        raise ValueError(refusal)
    return coords


def _box(cols: Sequence[Sequence[int]], den: int) -> list[range]:
    """The integer box around the coordinate rows / den, refused before any scan
    when it has more than ``MAX_SCAN_LINES`` scan lines."""
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
    max_degree + 1 samples, which must reproduce all of its samples.  With the
    samples cleared to S / s, one ``_bareiss`` of the integer Vandermonde rows
    [1, k, ..., k^max_degree | S_k] leaves d times the coefficients times s in the
    last column, and the check of every sample is p(k) == d S_k in integers.
    """
    vals, s = linalg.clear_denominators(samples)
    n, m = len(vals), max_degree + 1
    for period in range(1, max_period + 1):
        fits: list[tuple[Fraction, ...]] = []
        for cls in range(period):
            ks = range(cls, n, period)
            if len(ks) < m + 1:
                break
            rows = [[k**j for j in range(m)] + [vals[k]] for k in ks[:m]]
            _, d = linalg._bareiss(rows)
            coeffs = [row[m] for row in rows]
            if any(functools.reduce(lambda a, c: a * k + c, reversed(coeffs), 0) != d * vals[k] for k in ks):
                break
            fits.append(tuple(Fraction(c, d * s) for c in coeffs))
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
    Each count checks its own box; ``refinement_boxes`` checks them all first.
    """
    r = y.system.ambient_dim
    basis, dilations = _refinement(y.system, k, max_period)
    counts = [v_tilde_lattice(y, basis, j, x0) for j in dilations]
    fit = fit_exp_polynomial(counts, max_period=max_period, max_degree=r)
    return fit.polynomial_part_constant * Fraction(1, k**r)


def refinement_boxes(y: OrthogonalSet, x0: Sequence, k: int, max_period: int = 4) -> None:
    """Check the box of every count of ``refinement_constant_term`` at k, largest j first:
    a count that would be refused raises its ValueError before any scan."""
    basis, dilations = _refinement(y.system, k, max_period)
    for j in reversed(dilations):
        y.count_plan(x0, basis).box(j)


def _refinement(sys: RestrictedRootSystem, k: int, max_period: int) -> tuple[list[Vec], range]:
    """(basis of (1/k) times the normalization lattice, dilations j) of the counts at refinement 1/k."""
    basis = [linalg.vscale(Fraction(1, k), linalg.vec(b)) for b in sys.lattice.basis]
    return basis, range(max_period * (sys.ambient_dim + 2) + 2)
