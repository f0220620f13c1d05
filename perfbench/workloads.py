"""Seeded workloads of the galpairs benchmark.

A workload turns a seed into one fixed *cycle* of operations.  An operation
calls the library (this part is timed) and then checks the result exactly
against an expected value reached by an independent route (not timed).
The cycle structure (systems, sizes, op mix) is fixed per workload; the seed
draws the contents: orthogonal sets, points, lattice bases, matrices and
characters.  Every random stream is ``random.Random`` seeded with the text
``"<seed>/<name>"``, which the stdlib hashes with SHA-512, so no stream
depends on ``hash()`` or PYTHONHASHSEED.

The library is driven only through module attributes (``families.gamma_family``
rather than a name bound by ``from ... import``), so the traced run can wrap
those attributes.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from galpairs import exact_linalg, families, linalg, multiplicity, presets, root_data, sampling

SYSTEMS_FILE = Path(__file__).resolve().parent / "systems.json"

@dataclass
class Op:
    kind: str
    group: str  # system or input family the op belongs to
    key: str  # canonical text of the op's inputs
    call: Callable[[], Any]  # the library calls; timed
    check: Callable[[Any], tuple[Any, bool]]  # -> (result summary, exact check passed)


@dataclass
class Workload:
    ops: list[Op]
    inputs: list[str]  # canonical text of every generated input, for the input digest
    differentials: Callable[[], list[tuple[str, Any, bool]]]  # run outside the timed phase
    setup_checks: list[tuple[str, Any, bool]] = field(default_factory=list)
    inputs_ms: float = 0.0


def sub_rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}/{name}")


def fmt(x: Any) -> str:
    """Canonical text of nested tuples/lists of ints and Fractions."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (tuple, list)):
        return "(" + ",".join(fmt(v) for v in x) + ")"
    return str(x)


def interleave(streams: list[list[Any]]) -> list[Any]:
    """Merge the streams so each one is spread evenly over the result, in order."""
    tagged = [
        ((i + 0.5) / len(s), k, i, x)
        for k, s in enumerate(streams)
        for i, x in enumerate(s)
    ]
    tagged.sort(key=lambda t: t[:3])
    return [t[3] for t in tagged]


def build_systems(names) -> tuple[dict[str, root_data.RestrictedRootSystem], list]:
    """Build each root system through the public fixture constructor."""
    with open(SYSTEMS_FILE, "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    systems, checks = {}, []
    for name in names:
        sys_ = root_data.system_from_dict(fixtures[name])
        shape = (len(sys_.cones), len(sys_.chambers))
        want = (fixtures[name]["cones"], fixtures[name]["chambers"])
        checks.append((f"fan/{name}", shape, shape == want))
        systems[name] = sys_
    return systems, checks


def build(workload: str, seed: int, perturb: bool = False) -> Workload:
    """Set-up: build the systems the workload uses, then generate its inputs.

    ``perturb`` shifts every expected value, so that every op can be seen to
    fail; the self-test uses it.
    """
    make_inputs, system_names = WORKLOADS[workload]
    systems, checks = build_systems(system_names)
    t0 = time.perf_counter()
    wl = make_inputs(systems, seed, perturb)
    wl.inputs_ms = (time.perf_counter() - t0) * 1e3
    wl.setup_checks = checks
    return wl


# -- kernel: many points per orthogonal set -------------------------------------

# system: (positive sets, non-positive sets, points per set)
KERNEL_PLAN = {
    "A2": (5, 5, 24),
    "B2": (5, 5, 24),
    "G2": (5, 5, 24),
    "BC2": (5, 5, 24),
    "A3": (3, 3, 6),
}


def _kernel(systems, seed: int, perturb: bool) -> Workload:
    streams, inputs = [], []
    for name, (n_pos, n_neg, n_pts) in KERNEL_PLAN.items():
        sys_ = systems[name]
        full = sys_.full_cone().index
        rng = sub_rng(seed, f"kernel/{name}")
        sets = [("pos", sampling.random_positive_set(rng, sys_)) for _ in range(n_pos)]
        sets += [("neg", sampling.random_nonpositive_set(rng, sys_)) for _ in range(n_neg)]
        stream = []
        for si, (label, y) in enumerate(sets):
            tag = f"{name}/{label}{si}"
            inputs.append(f"{tag}:{fmt([y.points[c] for c in sys_.chambers])}")
            hull_cell: dict = {}
            for pi, h in enumerate(sampling.sample_points(rng, sys_.ambient_dim, n_pts)):
                inputs.append(f"{tag}:{fmt(h)}")
                if label == "pos" and pi % 2:
                    stream.append(_gamma_op(sys_, full, y, h, hull_cell, f"{tag}|{fmt(h)}", perturb))
                else:
                    stream.append(_pou_op(sys_, y, h, f"{tag}|{fmt(h)}", perturb))
        streams.append(stream)
    return Workload(interleave(streams), inputs, lambda: [])


def _pou_op(sys_, y, h, key: str, perturb: bool) -> Op:
    expected = 2 if perturb else 1

    def check(v):
        return v, v == expected

    return Op("pou", sys_.name, key, lambda: families.partition_of_unity_value(sys_, h, y), check)


def _gamma_op(sys_, full: int, y, h, hull_cell: dict, key: str, perturb: bool) -> Op:
    """gamma_family at h against hull membership; boundary points are skipped."""

    def call():
        if "hull" not in hull_cell:
            hull_cell["hull"] = families.Hull([y.points[c] for c in sys_.chambers])
        side = hull_cell["hull"].classify(h)
        if side == 0:
            return side, None
        return side, families.gamma_family(sys_, full, h, y)

    def check(res):
        side, value = res
        if side == 0:
            return res, True
        expected = 1 if side > 0 else 0
        if perturb:
            expected = 1 - expected
        return res, value == expected

    return Op("gamma", sys_.name, key, call, check)


# -- lattice: many orthogonal sets, few kernel calls each ------------------------

# system: (dominant integer base points, refinements k = 1..K, dilations
# j = 0..J-1, sweep point x0).  Each base point gives two swept sets, moved
# by a translation:
#   int: none, so lattice points fall on the facets and the count falls
#        back to the exact kernel there (a translation would keep that but
#        change the kernel's work, which depends on where h sits in the fan);
#   rat: coordinate i is a/p_i with p_i a distinct prime >= 7.  A facet
#        normal n (primitive, entries below 7) then has k * n.t outside Z for
#        k < 7, so no lattice point lies on a facet and the count is a pure
#        box scan.
# The rational translations are all the seed draws, so the cost of a cycle
# is nearly the same for every seed.  A3 counts are the slowest by far, so
# A3 has one rational set and k = 1.
LATTICE_PLAN = {
    "A1": ([(1,), (2,)], 3, 3, (1,)),
    "A2": ([(1, 1), (1, 2)], 2, 4, (1, 1)),
    "B2": ([(1, 1), (1, 2)], 2, 4, (1, 1)),
    "G2": ([(1, 2)], 2, 4, (1, 2)),
    "BC2": ([(1, 1), (2, 1)], 2, 4, (1, 1)),
    "A3": ([(1, 1, 1)], 1, 5, (1, 1, 1)),
}
SHIFT_PRIMES = (7, 11, 13)


def _lattice(systems, seed: int, perturb: bool) -> Workload:
    streams, inputs, diff_cases = [], [], []
    for name, (base_points, kmax, njs, x0_ints) in LATTICE_PLAN.items():
        sys_ = systems[name]
        rng = sub_rng(seed, f"lattice/{name}")
        r = sys_.ambient_dim
        basis = [linalg.vec(b) for b in sys_.lattice.basis]
        x0 = linalg.vec(x0_ints)
        q = families.OrthogonalSet.special(sys_, x0)
        kinds = ("int", "rat") if r < 3 else ("rat",)
        groups = []
        for bi, base in enumerate(base_points):
            swept = families.OrthogonalSet.special(sys_, linalg.vec(base))
            for label in kinds:
                if label == "int":
                    shift = (Fraction(0),) * r
                else:
                    shift = tuple(Fraction(rng.randrange(1, p), p) for p in SHIFT_PRIMES[:r])
                y = swept.translate(shift)
                tag = f"{name}/{label}{bi}"
                inputs.append(f"{tag}:{fmt(base)}+{fmt(shift)}:{fmt(x0)}")
                groups.append(_count_group(sys_, y, q, x0, basis, kmax, njs, tag, perturb))
                if bi == 0 and r < 3:
                    # literal-oracle subset: the first base point, k = 1, j = 0 and 1
                    diff_cases += [(f"{tag}/j{j}", y, basis, j, x0) for j in (0, 1)]
        streams.append(groups)

    def differentials():
        out = []
        for tag, y, basis, j, x0 in diff_cases:
            fast = families.v_tilde_lattice(y, basis, j, x0)
            exact = families.v_tilde_lattice(y, basis, j, x0, exact=True)
            out.append((f"count-exact/{tag}", (fast, exact), fast == exact))
        return out

    ops = [op for group in interleave(streams) for op in group]
    return Workload(ops, inputs, differentials)


def _count_group(sys_, y, q, x0, basis, kmax: int, njs: int, tag: str, perturb: bool) -> list[Op]:
    """Volumes of one set, then its counts for k = 1..kmax, j = 0..njs-1, and their fits.

    The count of lattice points of (1/k)Z^r in the hull of Y + Y[j*x0] is a
    polynomial of degree r in j whose leading coefficient is
    vol(hull Y[x0]) * k^r.  Counts from j = r on are checked against the
    r-th finite difference that coefficient fixes; the fit op checks the
    whole sequence, the first r counts included; it needs njs >= r + 2.
    """
    r = sys_.ambient_dim
    ctx: dict = {}

    def volumes():
        return (
            families.volume_polytope(y),
            families.volume_analytic(y),
            families.volume_polytope(q),
            families.volume_analytic(q),
        )

    def check_volumes(res):
        vp, va, qp, qa = res
        ok = vp == va + (1 if perturb else 0) and qp == qa and vp > 0 and qp > 0
        ctx["lead"] = {k: qa * k**r for k in range(1, kmax + 1)}
        ctx["counts"] = {k: [] for k in range(1, kmax + 1)}
        return res, ok

    ops = [Op("volume", sys_.name, f"{tag}|volume", volumes, check_volumes)]
    for k in range(1, kmax + 1):
        basis_k = [linalg.vscale(Fraction(1, k), b) for b in basis]
        for j in range(njs):
            ops.append(_count_op(sys_, y, basis_k, k, j, x0, ctx, f"{tag}|k{k}|j{j}", perturb))
        if njs >= r + 2:
            ops.append(_fit_op(sys_, k, ctx, f"{tag}|k{k}|fit", perturb))
    return ops


def _count_op(sys_, y, basis_k, k: int, j: int, x0, ctx: dict, key: str, perturb: bool) -> Op:
    r = sys_.ambient_dim

    def check(c):
        seq = ctx["counts"][k]
        seq.append(c)
        if j < r:
            return c, isinstance(c, int) and c >= 0
        lead = ctx["lead"][k] + (1 if perturb else 0)
        expected = math.factorial(r) * lead - sum(
            (-1) ** (r - i) * math.comb(r, i) * seq[j - r + i] for i in range(r)
        )
        return c, c == expected

    return Op("count", sys_.name, key, lambda: families.v_tilde_lattice(y, basis_k, j, x0), check)


def _fit_op(sys_, k: int, ctx: dict, key: str, perturb: bool) -> Op:
    r = sys_.ambient_dim

    def call():
        return families.fit_exp_polynomial(ctx["counts"][k], max_period=1, max_degree=r)

    def check(fit):
        seq = ctx["counts"][k]
        coeffs = fit.class_polys[0]
        lead = ctx["lead"][k] + (1 if perturb else 0)
        ok = (
            fit.period == 1
            and len(coeffs) == r + 1
            and coeffs[-1] == lead
            and all(fit.evaluate(j) == c for j, c in enumerate(seq))
        )
        return coeffs, ok

    return Op("fit", sys_.name, key, call, check)


# -- algebra: Tate cohomology, Smith normal form, character identities ---------


def _cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def _two_group_table(m: int) -> list[list[int]]:
    return [[i ^ j for j in range(1 << m)] for i in range(1 << m)]


def _s3_table() -> list[list[int]]:
    perms = list(itertools.permutations(range(3)))  # identity first
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(3))] for q in perms] for p in perms]


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _regular(table) -> list[list[list[int]]]:
    n = len(table)
    acts = []
    for i in range(n):
        m = [[0] * n for _ in range(n)]
        for j in range(n):
            m[table[i][j]][j] = 1
        acts.append(m)
    return acts


def _norm_one(k: int) -> list[list[list[int]]]:
    return [_identity(k), [[-v for v in row] for row in _identity(k)]]


def _split(rank: int, order: int) -> list[list[list[int]]]:
    return [_identity(rank) for _ in range(order)]


def _block_sum(a, b) -> list[list[list[int]]]:
    """Direct sum of two actions whose element lists name the same group elements."""
    na, nb = len(a[0]), len(b[0])
    return [
        [row + [0] * nb for row in ga] + [[0] * na + row for row in gb]
        for ga, gb in zip(a, b)
    ]


def _matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    """Integer matrix product that skips the zero entries of ``a``."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    acc[j] += x * y
        out.append(acc)
    return out


def _unimodular(rng: random.Random, n: int) -> list[list[int]]:
    """A random integer matrix of determinant 1: sparse unit lower times unit upper
    triangular, with about one off-diagonal +-1 entry per row in each factor."""
    p = min(1.0, 2 / n)
    pick = lambda: rng.choice((-1, 1)) if rng.random() < p else 0
    lower = [[1 if i == j else (pick() if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[1 if i == j else (pick() if j > i else 0) for j in range(n)] for i in range(n)]
    return _matmul(lower, upper)


def _signed_permutation(rng: random.Random, n: int) -> list[list[int]]:
    """Rows of a random signed permutation matrix: another basis of Z^n."""
    order = list(range(n))
    rng.shuffle(order)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)] for i in range(n)]


# (label, action builder, expected invariant factors).  The cycle's latency
# order decides which ops set the percentiles, so the plan is laid out by
# cost.  About 40 light ops come first.  Nineteen regular C4 modules, each in
# its own seeded basis and element order, hold the median: their cost hardly
# depends on the seed.  Fifteen norm-one^12 tori hold the p90 in the same way.
# C8 and (Z/2)^3 are the heaviest.  C12, C16 and (Z/2)^4 are left out: an op
# of a second or more rarely finds a quiet stretch of a shared machine, so
# its fastest time over the cycles stays noisy, and C16 and (Z/2)^4 (about
# 2.5 s each) also left too few cycles per run.
TATE_PLAN = (
    [(f"norm-one^{k}", functools.partial(_norm_one, k), (2,) * k) for k in range(1, 12)]
    + [
        ("split^2", lambda: _split(2, 2), ()),
        ("split^4", lambda: _split(4, 2), ()),
        ("norm-one^4+split^2", lambda: _block_sum(_norm_one(4), _split(2, 2)), (2,) * 4),
        ("norm-one^3+norm-one^5", lambda: _block_sum(_norm_one(3), _norm_one(5)), (2,) * 8),
        ("regular-S3", lambda: _regular(_s3_table()), ()),
        ("regular-S3+split^2", lambda: _block_sum(_regular(_s3_table()), _split(2, 6)), ()),
        ("regular-C4+regular-C4", lambda: _block_sum(*[_regular(_cyclic_table(4))] * 2), ()),
        ("regular-C8", lambda: _regular(_cyclic_table(8)), ()),
        ("regular-Z2^3", lambda: _regular(_two_group_table(3)), ()),
    ]
    + [("regular-C4", lambda: _regular(_cyclic_table(4)), ())] * 19
    + [("norm-one^9", lambda: _norm_one(9), (2,) * 9)] * 6
    + [("norm-one^12", lambda: _norm_one(12), (2,) * 12)] * 15
)

SNF_SIZES = (4, 8, 12, 16, 20, 24, 28, 32, 40)

PRASAD_RANKS = tuple(range(5, 13))

# (family, n) presets for the Steinberg sum and for the Levi enumeration
STEINBERG_PRESETS = tuple(("GL", n) for n in (4, 9, 14)) + tuple(("U", n) for n in range(6, 15))
LEVI_PRESETS = tuple(("GL", n) for n in (5, 9, 13)) + tuple(("U", n) for n in (5, 6, 7, 8, 10, 11, 12, 13))


def _fixed_rank(family: str, n: int) -> int:
    """Rank m of the ambient two-group: fixed simple roots of the involution."""
    return (n - 1) % 2 if family == "GL" else n - 1


def _algebra(systems, seed: int, perturb: bool) -> Workload:
    rng = sub_rng(seed, "algebra")
    inputs, snf_inputs = [], []
    tate, snf, prasad, stein, levis = [], [], [], [], []
    for label, actions_of, factors in TATE_PLAN:
        acts = actions_of()
        rng.shuffle(acts)  # element order is arbitrary; the identity may sit anywhere
        n = len(acts[0])
        data = {"ambient_rank": n, "basis": _signed_permutation(rng, n), "actions": acts, "label": label}
        key = f"tate/{label}:{fmt(data['basis'])}:{fmt(acts)}"
        inputs.append(key)
        tate.append(_tate_op(label, data, factors + ((2,) if perturb else ()), key))
    for n in SNF_SIZES:
        chain, d = [], 1
        for _ in range(n):
            d *= rng.choice((1, 1, 1, 1, 2, 3))
            chain.append(d)
        p, q = _unimodular(rng, n), _unimodular(rng, n)
        m = _matmul([[p[i][j] * chain[j] for j in range(n)] for i in range(n)], q)
        key = f"snf/{n}:{fmt(m)}"
        inputs.append(key)
        snf_inputs.append(m)
        snf.append(_snf_op(n, m, chain[:-1] + [chain[-1] * (2 if perturb else 1)], key))
    for m in PRASAD_RANKS:
        prasad.append(_prasad_op(m, perturb))
    for family, n in STEINBERG_PRESETS:
        rank = _fixed_rank(family, n)
        chi = rng.randrange(1 << rank)
        key = f"steinberg/{family}:{n}:{chi}"
        inputs.append(key)
        stein.append(_steinberg_op(family, n, rank, chi, key, perturb))
    for family, n in LEVI_PRESETS:
        levis.append(_levis_op(family, n, perturb))

    def differentials():
        return [_snf_differential(m) for m in snf_inputs[:3]] + _tate_table_differentials()

    ops = interleave([tate, snf, prasad, stein, levis])
    return Workload(ops, inputs, differentials)


def _tate_op(label: str, data: dict, expected: tuple[int, ...], key: str) -> Op:
    def call():
        return exact_linalg.tate_h_minus1(exact_linalg.lattice_with_action_from_dict(data))

    def check(group):
        return group.invariant_factors, group.invariant_factors == expected

    return Op("tate", label, key, call, check)


def _snf_op(n: int, m: list[list[int]], expected: list[int], key: str) -> Op:
    """M = P * diag(chain) * Q with P, Q unimodular, so its invariant factors are the chain."""

    def check(res):
        _, d, _ = res
        diag = exact_linalg.diagonal_of(d)
        off = any(d[i][j] for i in range(n) for j in range(n) if i != j)
        return diag, diag == expected and not off

    return Op("snf", f"snf-{n}", key, lambda: exact_linalg.smith_normal_form(m), check)


def _prasad_op(m: int, perturb: bool) -> Op:
    full = (1 << m) - 1
    expected = {chi: (2 if perturb else 1) if chi == full else 0 for chi in range(1 << m)}

    def check(cert):
        return (cert.ok, sum(cert.coefficients.values())), cert.ok and cert.coefficients == expected

    return Op("prasad", f"prasad-{m}", f"prasad/{m}", lambda: multiplicity.verify_prasad_identity(m), check)


def _steinberg_op(family: str, n: int, rank: int, chi: int, key: str, perturb: bool) -> Op:
    """Levi sum and indicator against the closed form: for GL:n the subgroup B is
    the whole two-group, so the value is 1 exactly at omega; for U:n B is
    trivial and the value is always 1."""
    expected = int(chi == (1 << rank) - 1) if family == "GL" else 1
    if perturb:
        expected += 1

    def call():
        preset = presets.builtin_preset(family, n)
        return (
            multiplicity.steinberg_multiplicity(preset, chi),
            multiplicity.steinberg_indicator(preset, chi),
        )

    def check(res):
        return res, res == (expected, expected)

    return Op("steinberg", f"{family}:{n}", key, call, check)


def _levis_op(family: str, n: int, perturb: bool) -> Op:
    """One datum per subset I of the fixed roots, in mask order.  For GL:n the
    projection of B onto I is everything (ker1 = 1); for U:n it is trivial
    (ker1 = 2^|I|) and the label is the composition of n cut after I."""
    rank = _fixed_rank(family, n)

    def expected(mask: int):
        subset = tuple(i for i in range(rank) if mask >> i & 1)
        size = 1 << len(subset)
        ker1, mab = (1, size) if family == "GL" else (size, 1)
        if perturb:
            ker1 *= 2
        label = None
        if family == "U":
            cuts = [0] + [i + 1 for i in subset] + [n]
            label = tuple(b - a for a, b in zip(cuts, cuts[1:]))
        return subset, (-1) ** (rank - len(subset)), ker1, mab, label

    want = [expected(mask) for mask in range(1 << rank)]

    def call():
        return presets.enumerate_elliptic_levis(presets.builtin_preset(family, n))

    def check(data):
        got = [(d.subset, d.sign, d.ker1_size, d.mab_index, d.label) for d in data]
        return (len(got), sum(d.sign * d.ker1_size for d in data)), got == want

    return Op("levis", f"{family}:{n}", f"levis/{family}:{n}", call, check)


def _snf_differential(m: list[list[int]]) -> tuple[str, Any, bool]:
    """U * M * V = D with U, V unimodular and D a divisibility chain."""
    n = len(m)
    u, d, v = exact_linalg.smith_normal_form(m)
    diag = exact_linalg.diagonal_of(d)
    chain = all(
        (y == 0) if x == 0 else (y % x == 0) for x, y in zip(diag, diag[1:])
    ) and all(x >= 0 for x in diag)
    unimodular = abs(linalg.det(u)) == 1 and abs(linalg.det(v)) == 1
    ok = _matmul(_matmul(u, m), v) == d and chain and unimodular
    return f"snf-oracle/{n}", diag, ok


def _tate_table_differentials() -> list[tuple[str, Any, bool]]:
    """Tate cohomology of the library's own constructions against the analytic table."""
    el = exact_linalg
    out = []
    tables = {"C4": _cyclic_table(4), "C6": _cyclic_table(6), "S3": _s3_table(), "Z2^3": _two_group_table(3)}
    for name, table in tables.items():
        g = el.tate_h_minus1(el.regular_representation(table))
        out.append((f"tate-table/regular-{name}", g.invariant_factors, g.is_trivial))
    for k in range(1, 7):
        g = el.tate_h_minus1(el.norm_one_torus(k))
        out.append((f"tate-table/norm-one^{k}", g.invariant_factors, g.invariant_factors == (2,) * k))
    pairs = [
        ("norm-one^2+split^2", el.norm_one_torus(2), el.split_torus(2, group_order=2)),
        ("norm-one^1+norm-one^3", el.norm_one_torus(1), el.norm_one_torus(3)),
        ("regular-S3+split^1", el.regular_representation(_s3_table()), el.split_torus(1, group_order=6)),
    ]
    for label, a, b in pairs:
        whole = el.tate_h_minus1(el.direct_sum_action(a, b))
        parts = el.tate_h_minus1(a).direct_sum(el.tate_h_minus1(b))
        out.append((f"tate-additivity/{label}", whole.invariant_factors, whole == parts))
    return out


# workload: (input generator, root systems it uses)
WORKLOADS = {
    "kernel": (_kernel, tuple(KERNEL_PLAN)),
    "lattice": (_lattice, tuple(LATTICE_PLAN)),
    "algebra": (_algebra, ()),
}
