"""The corank-one lift of a restricted root, kept as the oracle of ``walls``.

``RestrictedRootSystem.walls(cone)`` stores, for each wall of the fan induced
on a cone's span, the coroot of the simple pair of ``cone_simple_pairs`` along
that wall.  This computes the same coroot independently, as the paper defines
it: lift the restricted root to a simple root of a compatible chamber of the
corank-one sub-datum where it vanishes, project that root's coroot to the span
of the cone, and check that every compatible chamber gives the same answer.
It reads only public attributes of the system, and only the tests call it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from galpairs import linalg
from galpairs.linalg import Vec
from galpairs.root_data import RestrictedRootSystem, _parse_vec


def restricted_coroot(sys: RestrictedRootSystem, cone: int, alpha: Sequence) -> Vec:
    """Coroot of a restricted root of the Levi attached to the cone.

    ``alpha`` is an ambient covector, read through its restriction to the
    span of the cone.
    """
    a = _parse_vec(alpha)
    span = list(sys.cones[cone].span_basis)
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
    proj = sys.levi_projection(cone)
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
        linalg.sign_vector(sub_hyps, linalg.matvec(sys.chamber_weyl(ch), base_interior))
        for ch in sys.chambers
    }

    # signs of the sub-roots on the half-space {x in cone span : alpha > 0}
    target = linalg.sign_vector(sub_hyps, _generic_halfspace_point(span, a, sub_hyps))

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
            pert = linalg.vadd(pert, linalg.vscale(t ** (j + 1), s))
        if linalg.dot(a, pert) > 0 and all(linalg.dot(h, pert) != 0 for h in relevant):
            return pert
        k += 1


def _pattern_sign(root: Vec, hyps: list[Vec], pattern: tuple[int, ...]) -> int:
    """Sign of a sub-root on a sub-chamber, given the chamber's hyperplane signs."""
    for h, s in zip(hyps, pattern):
        coeff = linalg.proportionality(root, h)
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
