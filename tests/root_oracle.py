"""Test oracles of the fan: the induced-fan wall scan, the corank-one lift of a
restricted root, the per-cone Levi data, and the fan built with Fraction matrices.

``induced_walls(sys, cone)`` lists the walls of the fan induced on a cone's
span by comparing the signs of every pair of cones with that span, as
``RestrictedRootSystem.walls`` did before it became the chamber wall table
read off the Weyl permutations; on a chamber it must give that table, read by
``wall_pairs`` as (p, q, root, coroot) rows.

``restricted_coroot`` computes the coroot of such a wall independently, as
the paper defines it: lift the restricted root to a simple root of a
compatible chamber of the corank-one sub-datum where it vanishes, project
that root's coroot to the span of the cone, and check that every compatible
chamber gives the same answer.  Both read only public attributes of the
system, and only the tests call them.

``zero_roots`` lists the reduced positive roots that vanish on a cone's span,
read off the cone's signs; ``RestrictedRootSystem`` kept it as a method that
only the tests called.

``span_basis`` and ``levi_projection`` build a cone's span and Levi projection
literally: a nullspace basis of the span, and the projection matrix along a
maximal independent subset of the vanishing coroots.  On them rest the other
per-cone data, as the paper defines them and as ``RestrictedRootSystem`` kept
them before the kernel compile read its terms off Cartan blocks in simple-root
coordinates (``galpairs.families._standard_covectors``): ``chamber_below``, the
least chamber whose closure holds a cone, read off the signs;
``chamber_simple_pairs``, a chamber's simple pairs moved by its Fraction Weyl
matrices; ``cone_simple_pairs``, the canonical extensions of the simple pairs
of ``chamber_below(cone)`` that do not vanish on the cone through its Levi
projection; ``vanishing_indices``, those of them vanishing on the span of a face
of the cone's closure; and ``dual_basis``, their inverse Cartan block times their
roots.  Each is memoized per system for the life of the system.

``fraction_fan`` builds the fan as ``RestrictedRootSystem`` did before it read W
off the root permutations: it closes the simple reflections as Fraction
matrices, maps a relative-interior point of each face of the base chamber by
every element and reads the face's signs there.

``chamber_weyl``, ``chamber_weyl_inverse`` and ``weyl_elements`` read the Weyl
matrices as Fractions off ``weyl_rows``, one chamber's block of the system's one
Weyl table ``chamber_weyl_rows``, as ``RestrictedRootSystem`` kept them before
the sets came to read the integer rows only; w_P^-1 is the matrix of the
chamber whose permutation is the inverse of w_P's.

``vadd`` is the vector sum that only the tests and their oracles call.

``proportionality`` is the Fraction ratio test that ``OrthogonalSet`` validated
its walls with before it cross-multiplied integer rows.
"""

from __future__ import annotations

import functools
import weakref
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from galpairs import linalg
from galpairs.linalg import Mat, Vec
from galpairs.root_data import _MAX_WEYL, Cone, RestrictedRootSystem, _parse_vec


def _per_system(fn):
    """Memoize fn(sys, *args) per system, for as long as the system lives."""
    tables: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def memoized(sys: RestrictedRootSystem, *args):
        table = tables.setdefault(sys, {})
        if args not in table:
            table[args] = fn(sys, *args)
        return table[args]

    return memoized


def vadd(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def proportionality(a: Vec, b: Vec) -> Optional[Fraction]:
    """c with a = c * b (None if not proportional).  a = 0 gives c = 0."""
    if linalg.is_zero_vec(a):
        return Fraction(0)
    c = None
    for x, y in zip(a, b):
        if y == 0:
            if x != 0:
                return None
        else:
            ratio = Fraction(x) / y
            if c is None:
                c = ratio
            elif ratio != c:
                return None
    return c


def wall_pairs(sys: RestrictedRootSystem) -> list[tuple[int, int, Vec, Vec]]:
    """``RestrictedRootSystem.walls`` with each row (i, j, k, m) read as (p, q, root, coroot): the
    chambers at positions i and j and the pair of root k.  Each row's m is checked to be the first
    index of a nonzero entry of k's integer coroot row."""
    coroots = sys.integral_coroots[0]
    for i, j, k, m in sys.walls:
        assert coroots[k][m] and not any(coroots[k][:m]), (i, j, k, m)
    return [(sys.chambers[i], sys.chambers[j], sys.roots[k], sys.coroots[k]) for i, j, k, _ in sys.walls]


def induced_walls(sys: RestrictedRootSystem, cone: int) -> list[tuple[int, int, Vec, Vec]]:
    """Wall table of the fan induced on the span of the cone.

    The cones with that span are the chambers of the induced fan (for a
    chamber, the chambers of the system).  Two of them are adjacent when
    their signs differ on exactly one class of hyperplanes whose
    restrictions to the span are proportional.  Each adjacent pair
    (p, q), p < q, is listed as (p, q, root, coroot) with the simple pair
    of ``cone_simple_pairs(p)`` along the shared wall.
    """
    zero = tuple(s == 0 for s in sys.cones[cone].signs)
    span = span_basis(sys, cone)
    restricted = [tuple(linalg.dot(h, b) for b in span) for h in sys.hyperplanes]
    classes: list[list[int]] = []
    for i in range(len(sys.hyperplanes)):
        if zero[i]:
            continue
        for cls in classes:
            if proportionality(restricted[i], restricted[cls[0]]) is not None:
                cls.append(i)
                break
        else:
            classes.append([i])
    same_span = [c for c in sys.cones if tuple(s == 0 for s in c.signs) == zero]
    table = []
    for cp, cq in combinations(same_span, 2):
        differing = [cls for cls in classes if any(cp.signs[i] != cq.signs[i] for i in cls)]
        if len(differing) != 1:
            continue
        wall = restricted[differing[0][0]]
        for a, av in cone_simple_pairs(sys, cp.index):
            if proportionality(tuple(linalg.dot(a, b) for b in span), wall) is not None:
                table.append((cp.index, cq.index, a, av))
                break
        else:
            raise ValueError("no simple root along the shared wall")
    return table


def zero_roots(sys: RestrictedRootSystem, cone: int) -> list[Vec]:
    """Reduced positive roots vanishing on the span of the cone: those whose sign is 0 there."""
    return [a for a, s in zip(sys.hyperplanes, sys.cones[cone].signs) if s == 0]


@_per_system
def span_basis(sys: RestrictedRootSystem, cone: int) -> list[Vec]:
    """A basis of the span of the cone: the kernel of ``zero_roots(sys, cone)``, as each
    cone carried it before its dimension was read off its face type."""
    zero_rows = zero_roots(sys, cone)
    n = sys.ambient_dim
    return linalg.nullspace(zero_rows, ncols=n) if zero_rows else list(linalg.identity(n))


@_per_system
def levi_projection(sys: RestrictedRootSystem, cone: int) -> Mat:
    """The projection onto the span of the cone along the coroots of the roots that
    vanish on it, built literally: a maximal independent subset of those coroots,
    and the projection matrix of the span basis against it."""
    zero = zero_roots(sys, cone)
    if not zero:
        return linalg.identity(sys.ambient_dim)
    coroot_of = dict(zip(sys.roots, sys.coroots))
    complement = linalg.independent_subset([coroot_of[a] for a in zero])
    return linalg.projection_matrix(span_basis(sys, cone), complement)


@_per_system
def _integer_span(sys: RestrictedRootSystem, cone: int) -> list[tuple[int, ...]]:
    """``span_basis``, each vector scaled to integers: a covector vanishes on the span
    where its integer multiple pairs to 0 with each of them."""
    return [linalg.scale_to_integers(b) for b in span_basis(sys, cone)]


def _vanishes(a: Vec, span: list[tuple[int, ...]]) -> bool:
    a = linalg.scale_to_integers(a)
    return not any(linalg.dot(a, b) for b in span)


@_per_system
def chamber_below(sys: RestrictedRootSystem, cone: int) -> int:
    """The least chamber whose signs agree with every nonzero sign of the cone."""
    signs = sys.cones[cone].signs
    if 0 not in signs:
        return cone
    return next(p for p in sys.chambers if all(s in (0, t) for s, t in zip(signs, sys.cones[p].signs)))


@_per_system
def chamber_simple_pairs(sys: RestrictedRootSystem, chamber: int) -> list[tuple[Vec, Vec]]:
    """(a o w_P^-1, w_P a^vee) over the simple pairs (a, a^vee), with the Fraction w_P."""
    w, w_inv = chamber_weyl(sys, chamber), chamber_weyl_inverse(sys, chamber)
    return [(linalg.vecmat(sys.roots[i], w_inv), linalg.matvec(w, sys.coroots[i])) for i in sys.simple_indices]


@_per_system
def cone_simple_pairs(sys: RestrictedRootSystem, cone: int) -> list[tuple[Vec, Vec]]:
    """The simple pairs of ``chamber_below(cone)`` whose root pairs nonzero with the cone's span,
    as canonical extensions: the root precomposed with, the coroot moved by ``levi_projection``."""
    if sys.cones[cone].dim == sys.ambient_dim:  # a chamber, whose projection is the identity
        return chamber_simple_pairs(sys, cone)
    span, proj = _integer_span(sys, cone), levi_projection(sys, cone)
    return [
        (linalg.vecmat(a, proj), linalg.matvec(proj, av))
        for a, av in chamber_simple_pairs(sys, chamber_below(sys, cone))
        if not _vanishes(a, span)
    ]


@_per_system
def vanishing_indices(sys: RestrictedRootSystem, p: int, q: int) -> list[int]:
    """Indices into ``cone_simple_pairs(p)`` of the roots vanishing on the span of q."""
    span = _integer_span(sys, q)
    return [i for i, (a, _) in enumerate(cone_simple_pairs(sys, p)) if _vanishes(a, span)]


@_per_system
def dual_basis(sys: RestrictedRootSystem, p: int, q: int) -> list[Vec]:
    """The covectors in the span of the roots of ``vanishing_indices(p, q)`` dual to their
    coroots: their inverse Cartan block times their roots."""
    pairs = [cone_simple_pairs(sys, p)[i] for i in vanishing_indices(sys, p, q)]
    roots, e = linalg.integer_basis([a for a, _ in pairs])
    coroots, f = linalg.integer_basis([av for _, av in pairs])
    inverse = linalg.invert([[linalg.dot(a, av) for av in coroots] for a in roots])  # of e f times the block
    return [tuple(f * x for x in linalg.vecmat(row, roots)) for row in inverse]


def sign_vector(covectors: Sequence[Vec], v: Vec) -> tuple[int, ...]:
    """Signs (-1, 0, +1) of each covector at v."""
    out = []
    for h in covectors:
        x = linalg.dot(h, v)
        out.append(0 if x == 0 else (1 if x > 0 else -1))
    return tuple(out)


def weyl_rows(sys: RestrictedRootSystem, chamber: int) -> Mat:
    """D w_P as integer rows, D > 0 the one denominator of ``chamber_weyl_rows``: its block of
    ``ambient_dim`` rows at the chamber's position."""
    (rows, _), n, i = sys.chamber_weyl_rows, sys.ambient_dim, sys.chambers.index(chamber)
    return tuple(rows[i * n : (i + 1) * n])


@_per_system
def chamber_weyl(sys: RestrictedRootSystem, chamber: int) -> Mat:
    """w_P, the Weyl element mapping the base chamber onto the chamber P."""
    den = sys.chamber_weyl_rows[1]
    return tuple(tuple(Fraction(x, den) for x in row) for row in weyl_rows(sys, chamber))


def chamber_weyl_inverse(sys: RestrictedRootSystem, chamber: int) -> Mat:
    """w_P^-1, the Weyl matrix of the chamber whose permutation of the roots is w_P's inverse."""
    w = sys._chamber_perms[chamber]
    chamber_of = {v: p for p, v in sys._chamber_perms.items()}
    return chamber_weyl(sys, chamber_of[tuple(sorted(range(len(w)), key=w.__getitem__))])


def weyl_elements(sys: RestrictedRootSystem) -> list[Mat]:
    """The Weyl matrices, sorted; the i-th maps the base chamber onto the i-th chamber."""
    return [chamber_weyl(sys, p) for p in sys.chambers]


def fraction_fan(sys: RestrictedRootSystem) -> dict:
    """The fan tables of ``sys``, built anew from its roots, coroots and simple roots:
    hyperplanes, weyl_elements, cones, chambers, base_chamber, and per chamber
    chamber_weyl, chamber_faces and chamber_simple_pairs, and per cone chamber_below."""
    n = sys.ambient_dim
    simple = [sys.roots[i] for i in sys.simple_indices]
    simple_coroots = [sys.coroots[i] for i in sys.simple_indices]
    root_set = set(sys.roots)
    positive = [a for a in sys.roots if all(x >= 0 for x in linalg.coordinates_in_basis(simple, a))]
    hyperplanes = sorted(a for a in positive if linalg.vscale(Fraction(1, 2), a) not in root_set)

    def reflection(i: int) -> Mat:  # x -> x - <a, x> a_coroot on ambient vectors
        a, av = sys.roots[i], sys.coroots[i]
        return tuple(tuple((1 if k == j else 0) - av[k] * a[j] for j in range(n)) for k in range(n))

    gens = [reflection(i) for i in sys.simple_indices]
    ident = linalg.identity(n)
    elements, frontier = {ident}, [ident]
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
    weyl_elements = sorted(elements)

    r = len(simple)
    face_points = []  # (I, a relative-interior point of the face F_I of the base chamber)
    for bits in range(1 << r):
        zero = frozenset(i for i in range(r) if bits >> i & 1)
        point = linalg.solve(simple, [Fraction(0) if i in zero else Fraction(1) for i in range(r)])
        if point is None:
            raise ValueError("simple roots are dependent")
        face_points.append((zero, point))

    seen: dict[tuple[int, ...], int] = {}
    cones: list[Cone] = []
    chamber_weyl: dict[int, Mat] = {}
    chamber_faces: dict[int, dict[frozenset, int]] = {}
    for w in weyl_elements:
        faces = {}
        for zero, p in face_points:
            sv = sign_vector(hyperplanes, linalg.matvec(w, p))
            if sv not in seen:
                zero_rows = [hyperplanes[i] for i in range(len(sv)) if sv[i] == 0]
                seen[sv] = len(cones)
                dim = len(linalg.nullspace(zero_rows, ncols=n)) if zero_rows else n
                cones.append(Cone(len(cones), sv, dim))
            faces[zero] = seen[sv]
        chamber_weyl.setdefault(faces[frozenset()], w)
        chamber_faces.setdefault(faces[frozenset()], faces)
    chambers = sorted(c.index for c in cones if all(s != 0 for s in c.signs))
    chamber_simples = {}
    for ch in chambers:
        w = chamber_weyl[ch]
        w_inv = linalg.invert(w)
        chamber_simples[ch] = [
            (linalg.vecmat(a, w_inv), linalg.matvec(w, av)) for a, av in zip(simple, simple_coroots)
        ]
    return {
        "hyperplanes": hyperplanes,
        "weyl_elements": weyl_elements,
        "cones": cones,
        "chambers": chambers,
        "base_chamber": seen[sign_vector(hyperplanes, face_points[0][1])],
        "chamber_weyl": chamber_weyl,
        "chamber_faces": chamber_faces,
        "chamber_simple_pairs": chamber_simples,
        "chamber_below": dict((c, p) for p in chambers[::-1] for c in chamber_faces[p].values()),
    }


def restricted_coroot(sys: RestrictedRootSystem, cone: int, alpha: Sequence) -> Vec:
    """Coroot of a restricted root of the Levi attached to the cone.

    ``alpha`` is an ambient covector, read through its restriction to the
    span of the cone.
    """
    a = _parse_vec(alpha, sys.ambient_dim)
    span = span_basis(sys, cone)
    if all(linalg.dot(a, b) == 0 for b in span):
        raise ValueError("alpha vanishes on the cone span")

    def same_restriction(b: Vec, lam: Vec) -> bool:
        return all(linalg.dot(b, s) == linalg.dot(lam, s) for s in span)

    if not any(same_restriction(b, a) for b in sys.roots):
        raise ValueError("alpha is not a restricted root on this cone span")
    half = linalg.vscale(Fraction(1, 2), a)
    if any(same_restriction(b, half) for b in sys.roots):
        # non-reduced restricted root: coroot is half the reduced one
        return linalg.vscale(Fraction(1, 2), restricted_coroot(sys, cone, half))

    coroot_of = dict(zip(sys.roots, sys.coroots))
    proj = levi_projection(sys, cone)
    # sub-datum: all roots vanishing on (cone span) intersect ker(alpha)
    vprime = _intersect_spans(span, linalg.nullspace([a], ncols=sys.ambient_dim))
    sub_roots = [b for b in sys.roots if all(linalg.dot(b, v) == 0 for v in vprime)]
    sub_set = set(sub_roots)
    sub_reduced = [b for b in sub_roots if linalg.vscale(Fraction(1, 2), b) not in sub_set]
    sub_hyps = sorted({max(b, tuple(-x for x in b)) for b in sub_reduced})

    # chamber patterns of the sub-arrangement, read off the big chambers
    simple = [sys.roots[i] for i in sys.simple_indices]
    base_interior = linalg.solve(simple, [Fraction(1)] * len(simple))
    patterns = {
        sign_vector(sub_hyps, linalg.matvec(chamber_weyl(sys, ch), base_interior))
        for ch in sys.chambers
    }

    # signs of the sub-roots on the half-space {x in cone span : alpha > 0}
    target = sign_vector(sub_hyps, _generic_halfspace_point(span, a, sub_hyps))

    results = []
    for pat in sorted(patterns):
        if any(t != 0 and s != t for s, t in zip(pat, target)):
            continue
        positives = {b for b in sub_roots if _pattern_sign(b, sub_hyps, pat) > 0}
        simple_sub = [
            b
            for b in sorted(positives)
            if b in sub_reduced
            and not any(linalg.vsub(b, g) in positives for g in positives if g != b)
        ]
        lifts = [b for b in simple_sub if same_restriction(b, a)]
        if len(lifts) != 1:
            raise ValueError("restricted root does not lift to a unique simple root")
        results.append(linalg.matvec(proj, coroot_of[lifts[0]]))
    if not results:
        raise ValueError("no compatible chamber found for the restricted coroot")
    if any(other != results[0] for other in results[1:]):
        raise ValueError("restricted coroot depends on the chamber choice")
    return results[0]


def _generic_halfspace_point(span: list[Vec], a: Vec, hyps: list[Vec]) -> Vec:
    """A point of the cone span with alpha > 0, off every sub-hyperplane
    that does not contain the whole span."""
    base = None
    for s in span:
        if linalg.dot(a, s) != 0:
            base = s if linalg.dot(a, s) > 0 else linalg.vscale(-1, s)
            break
    assert base is not None
    relevant = [h for h in hyps if any(linalg.dot(h, s) != 0 for s in span)]
    k = 1
    while True:
        pert = base
        t = Fraction(1, 100 * k)
        for j, s in enumerate(span):
            pert = vadd(pert, linalg.vscale(t ** (j + 1), s))
        if linalg.dot(a, pert) > 0 and all(linalg.dot(h, pert) != 0 for h in relevant):
            return pert
        k += 1


def _pattern_sign(root: Vec, hyps: list[Vec], pattern: tuple[int, ...]) -> int:
    """Sign of a sub-root on a sub-chamber, given the chamber's hyperplane signs."""
    for h, s in zip(hyps, pattern):
        coeff = proportionality(root, h)
        if coeff is not None:
            return s if coeff > 0 else -s
    raise ValueError("root is not proportional to any sub-hyperplane")


def _intersect_spans(span1: list[Vec], span2: list[Vec]) -> list[Vec]:
    """Basis of the intersection of two spans."""
    if not span1 or not span2:
        return []
    n = len(span1[0])
    # x in both spans: x = A u = B v; solve [A | -B] (u,v)^T = 0
    cols = [list(v) for v in span1] + [[-x for x in v] for v in span2]
    m = [[Fraction(cols[j][i]) for j in range(len(cols))] for i in range(n)]
    sols = linalg.nullspace(m, ncols=len(cols))
    return linalg.independent_subset([linalg.combination(u[: len(span1)], span1, n) for u in sols])
