"""Acceptance suite: nine end-to-end criteria, one PASS/FAIL line each.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they complete.  Every check is exact (integers and Fractions); the
only randomness is seeded and reproducible.
"""

import random
import sys as _sys
import time
from fractions import Fraction

from galpairs import exact_linalg as el
from galpairs import families as fam
from galpairs import multiplicity as mu
from galpairs import presets as pr
from galpairs import sampling
from galpairs.cli import run as cli_run
from galpairs.root_data import builtin_system

import prasad_oracle


def _report(criterion: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line, file=_sys.stderr, flush=True)
    assert ok, line


def test_criterion_1_prasad_identity():
    """Character collapse for every ambient rank up to 10, under a minute."""
    t0 = time.monotonic()
    bad = []
    for m in range(0, 11):
        cert = mu.verify_prasad_identity(m)
        if not cert.ok or cert.coefficients != cert.expected:
            bad.append(m)
    elapsed = time.monotonic() - t0
    _report(
        "criterion-1 prasad-identity",
        not bad and elapsed < 60,
        f"m=0..10 exact, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_steinberg_multiplicity():
    """Alternating Levi sum equals the character indicator for every B-character."""
    checked = 0
    bad = 0
    for family in ("GL", "U"):
        for n in range(2, 9):
            preset = pr.builtin_preset(family, n)
            for chi in mu.distinct_b_characters(preset):
                checked += 1
                if mu.steinberg_multiplicity(preset, chi) != mu.steinberg_indicator(preset, chi):
                    bad += 1
    _report(
        "criterion-2 steinberg-multiplicity",
        bad == 0 and checked > 0,
        f"GL:2..8 and U:2..8, {checked} characters, {bad} mismatches",
    )


def test_criterion_3_introduction_identities():
    comp_ok = all(prasad_oracle.composition_identity(n) == 1 for n in range(1, 13))
    ind_ok = prasad_oracle.gln_induction_identity()
    # consistency: the unitary Steinberg sum over twisted Levis equals the
    # composition identity (both are 1) for every n up to 12
    cons_ok = True
    for n in range(2, 13):
        preset = pr.builtin_preset("U", n)
        if mu.steinberg_multiplicity(preset, 0) != prasad_oracle.composition_identity(n):
            cons_ok = False
    _report(
        "criterion-3 introduction-identities",
        comp_ok and ind_ok and cons_ok,
        "composition n=1..12, induction identity, U(n) consistency n<=12",
    )


def test_criterion_4_ker1_counts():
    levi_ok = True
    for n in range(2, 9):
        for d in pr.enumerate_elliptic_levis(pr.builtin_preset("U", n)):
            parts = len(d.label)  # composition length k
            if d.ker1_size != 2 ** (parts - 1):
                levi_ok = False
    fiber_ok = True
    for k in range(1, 7):
        order = el.tate_h_minus1(el.norm_one_torus(k)).order
        if pr.inner_form_fiber_count(order, 2) != 2 ** (k - 1):
            fiber_ok = False
    _report(
        "criterion-4 ker1-counts",
        levi_ok and fiber_ok,
        "U:n compositions n<=8 give 2^(k-1); norm-one fibers k<=6",
    )


def test_criterion_5_partition_of_unity():
    systems = ("A1", "A2", "A3", "B2", "G2")
    violations = 0
    total = 0
    for name in systems:
        sys_ = builtin_system(name)
        rng = random.Random(100)
        for y in (
            sampling.random_positive_set(rng, sys_),
            sampling.random_nonpositive_set(rng, sys_),
        ):
            pts = sampling.sample_points(rng, sys_.ambient_dim, 200)
            violations += len(fam.check_kernel(sys_, y, pts)[0])
            total += len(pts)
    _report(
        "criterion-5 partition-of-unity",
        violations == 0,
        f"{total} points over {len(systems)} systems x 2 sets, {violations} violations",
    )


def test_criterion_6_hull_volume_coherence():
    from galpairs.root_data import BUILTIN_NAMES

    gamma_bad = 0
    vol_bad = 0
    sets = 0
    for name in BUILTIN_NAMES:
        sys_ = builtin_system(name)
        g = sys_.full_cone().index
        rng = random.Random(200)
        for _ in range(50):
            y = sampling.random_positive_set(rng, sys_)
            sets += 1
            hull = fam.Hull([y.points[ch] for ch in sys_.chambers])
            for h in sampling.sample_points(rng, sys_.ambient_dim, 100):
                side = hull.classify(h)
                if side == 0:
                    continue  # boundary points follow the closed-kernel convention
                if fam.gamma_family(sys_, g, h, y) != (1 if side > 0 else 0):
                    gamma_bad += 1
            if fam.volume_analytic(y) != fam.volume_polytope(y):
                vol_bad += 1
    _report(
        "criterion-6 hull-volume-coherence",
        gamma_bad == 0 and vol_bad == 0,
        f"{sets} positive sets, kernel mismatches {gamma_bad}, volume mismatches {vol_bad}",
    )


def test_criterion_7_refinement_approximation():
    instances = []
    sys1 = builtin_system("A1")
    pos = [c for c in sys1.chambers if sys1.cones[c].signs == (1,)][0]
    neg = [c for c in sys1.chambers if sys1.cones[c].signs == (-1,)][0]
    y1 = fam.OrthogonalSet(sys1, {pos: (Fraction(3),), neg: (Fraction(-1),)})
    instances.append((sys1, y1, (Fraction(1),)))
    sys2 = builtin_system("A2")
    y2 = fam.OrthogonalSet.special(sys2, (Fraction(1), Fraction(1)))
    instances.append((sys2, y2, (Fraction(1), Fraction(1))))
    ok = True
    details = []
    for sys_, y, x0 in instances:
        vol = fam.volume_polytope(y)
        errs = []
        for k in range(1, 9):
            errs.append(abs(fam.refinement_constant_term(y, x0, k) - vol))
        # c is fitted on k <= 2 and must bound k * e_k for k = 3..8
        c = max(k * e for k, e in enumerate(errs[:2], start=1))
        if any(k * e > c for k, e in enumerate(errs[2:], start=3)):
            ok = False
        # the fit itself must reproduce the raw counts exactly
        basis = [tuple(Fraction(x) for x in b) for b in sys_.lattice.basis]
        counts = [fam.v_tilde_lattice(y, basis, j, x0) for j in range(12)]
        fit = fam.fit_exp_polynomial(counts, max_period=2, max_degree=sys_.ambient_dim)
        if any(fit.evaluate(j) != counts[j] for j in range(12)):
            ok = False
        details.append(f"{sys_.name}: c={c}")
    _report(
        "criterion-7 refinement-approximation",
        ok,
        "k=1..8, " + "; ".join(details),
    )


def test_criterion_8_tate_cohomology():
    from test_exact_linalg import ALL_SMALL_GROUPS

    ok = True
    # analytic table
    for r in range(0, 4):
        if not el.tate_h_minus1(el.split_torus(r, group_order=2)).is_trivial:
            ok = False
    for k in range(1, 7):
        if el.tate_h_minus1(el.norm_one_torus(k)).invariant_factors != (2,) * k:
            ok = False
    # induced modules vanish for every group of order <= 6 and four of order 8
    for name, table in ALL_SMALL_GROUPS:
        reg = el.regular_representation(table)
        if not el.tate_h_minus1(reg).is_trivial:
            ok = False
        # additivity: pairing with a split summand changes nothing
        combined = el.direct_sum_action(reg, el.split_torus(1, group_order=len(table)))
        if not el.tate_h_minus1(combined).is_trivial:
            ok = False
    extra = el.direct_sum_action(el.norm_one_torus(2), el.split_torus(2, group_order=2))
    if el.tate_h_minus1(extra).invariant_factors != (2, 2):
        ok = False
    _report(
        "criterion-8 tate-cohomology",
        ok,
        "split/norm-one/induced table and direct-sum additivity, |group| <= 6 and four of order 8",
    )


def test_criterion_9_determinism():
    invocations = [
        ["ortho", "check", "--system", "A2", "--seed", "17", "--samples", "50"],
        ["ortho", "check", "--system", "G2", "--seed", "17", "--samples", "50",
         "--format", "json"],
        ["ortho", "volume", "--system", "B2", "--special", "1,2"],
        ["ortho", "ehrhart", "--system", "A1", "--special", "2", "--x0", "1"],
        ["verify-prasad", "--max-m", "6", "--preset", "GL:6", "--preset", "U:4"],
        ["h1", "--norm-one", "4", "--format", "json"],
        ["list-levis", "--preset", "U:5"],
    ]
    ok = True
    for argv in invocations:
        first = cli_run(argv)
        second = cli_run(argv)
        if first != second or first[0] != 0:
            ok = False
    _report(
        "criterion-9 determinism",
        ok,
        f"{len(invocations)} CLI invocations byte-identical across reruns",
    )
