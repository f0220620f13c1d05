"""Batch verification commands.

Reports are deterministic: the only randomness is a ``random.Random`` seeded
from ``--seed`` (stdlib Mersenne Twister), so identical invocations produce
byte-identical output.  Exit codes: 0 all checks pass, 1 usage or fixture
error, 2 a mathematical check failed.

Rational numbers are rendered as ``p/q`` (or a bare integer when q = 1) in
both text and JSON output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys as _sys
from typing import Optional, Sequence

from . import families as fam
from . import linalg
from . import multiplicity as mu
from . import presets as pr
from . import root_data as rd
from . import sampling
from .exact_linalg import (
    _as_dict,
    _as_list,
    lattice_with_action_from_json,
    norm_one_torus,
    read_json,
    split_torus,
    tate_h_minus1,
    tate_h_zero,
)
from .linalg import frac_str

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2
# each --samples point is read once per set, about 0.15-0.2 ms on A3: 1,000 points take 0.3-0.4 s
MAX_SAMPLES = 1000
# a point is tested against every cone, so points times cones bounds a system's work: A3's 1,000
# points over 75 cones take 0.3-0.4 s, B4's 44 over 1,697 cones 0.8 s and A1^6's 102 over 729 cones
# in dimension 16 1.4 s, each with its kernel compile (0.2 s and 0.5 s; 2-core VM, Python 3.11)
MAX_SAMPLE_CONES = 75_000


def chamber_order(system: rd.RestrictedRootSystem) -> list[int]:
    """Canonical chamber ordering: lexicographic in the sign vectors."""
    return sorted(system.chambers, key=lambda c: system.cones[c].signs)


def orthogonal_set_from_dict(data: dict, system: rd.RestrictedRootSystem) -> fam.OrthogonalSet:
    """Fixture schema: either {"special": [x...]} or
    {"points": [[...], ...]} listed in the canonical chamber order."""
    data = _as_dict(data)
    if "special" in data:
        return fam.OrthogonalSet.special(system, data["special"])
    if "points" in data:
        order = chamber_order(system)
        pts = _as_list(data["points"])
        if len(pts) != len(order):
            raise ValueError(
                f"expected {len(order)} chamber points, got {len(pts)}"
            )
        return fam.OrthogonalSet(system, dict(zip(order, pts)))
    raise ValueError("orthogonal set fixture needs 'special' or 'points'")


class Report:
    def __init__(self, command: str, seed: Optional[int] = None):
        self.command = command
        self.seed = seed
        self.checks: list[dict] = []

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "status": "pass" if ok else "FAIL", "detail": detail})

    @property
    def ok(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def render(self, fmt: str) -> str:
        if fmt == "json":
            payload = {
                "command": self.command,
                "seed": self.seed,
                "ok": self.ok,
                "checks": self.checks,
            }
            return json.dumps(payload, indent=2, sort_keys=True) + "\n"
        lines = [f"# {self.command}" + (f" (seed={self.seed})" if self.seed is not None else "")]
        for c in self.checks:
            suffix = f": {c['detail']}" if c["detail"] else ""
            lines.append(f"{c['status']:4s} {c['name']}{suffix}")
        lines.append("OK" if self.ok else "FAILED")
        return "\n".join(lines) + "\n"


# -- subcommand implementations ---------------------------------------------------


def cmd_verify_prasad(args) -> Report:
    report = Report("verify-prasad")
    min_m, max_m = (args.m, args.m) if args.m is not None else (0, args.max_m)
    for m in range(min_m, max_m + 1):
        cert = mu.verify_prasad_identity(m)
        bad = sum(1 for chi, c in cert.coefficients.items() if c != cert.expected[chi])
        report.add(
            f"character-collapse m={m}",
            cert.ok,
            f"{1 << m} characters, {bad} wrong coefficients",
        )
    for spec in args.preset or []:
        preset = pr.resolve_preset(spec)
        chars = mu.distinct_b_characters(preset)
        ok = all(mu.steinberg_multiplicity(preset, chi) == mu.steinberg_indicator(preset, chi) for chi in chars)
        report.add(f"multiplicity-indicator {preset.name}", ok, f"{len(chars)} characters of B")
    return report


def _load_set(args, system: rd.RestrictedRootSystem) -> Optional[fam.OrthogonalSet]:
    if args.fixture:
        return orthogonal_set_from_dict(read_json(args.fixture), system)
    return fam.OrthogonalSet.special(system, args.special.split(",")) if args.special else None


def _ortho_check(args, system) -> Report:
    if (work := args.samples * len(system.cones)) > MAX_SAMPLE_CONES:
        size = f"{work} point-cone tests ({args.samples} points times {len(system.cones)} cones)"
        raise ValueError(f"the check would make {size}, more than the limit of {MAX_SAMPLE_CONES}")
    report = Report(f"ortho check {system.name or args.system}", seed=args.seed)
    rng = random.Random(args.seed)
    fixed = _load_set(args, system)
    if fixed is not None:
        sets = [("fixture", fixed)]
    else:
        sets = [
            ("positive", sampling.random_positive_set(rng, system)),
            ("non-positive", sampling.random_nonpositive_set(rng, system)),
        ]
    for label, y in sets:
        points = sampling.sample_points(rng, system.ambient_dim, args.samples)
        bad, sb = fam.check_kernel(system, y, points)
        detail = f"{args.samples} points, {len(bad)} violations"
        if bad:
            h, value = bad[0]
            detail += f"; first at h={','.join(frac_str(x) for x in h)}: value {value}, want 1"
        report.add(f"partition-of-unity [{label}]", not bad, detail)
        figures = f"c_emp={frac_str(sb.c_empirical)}, c_bound={frac_str(sb.c_bound)}"
        report.add(f"support-bound [{label}]", sb.ok, f"{sb.nonzero} supported points, {figures}")
    return report


def _ortho_volume(args, system) -> Report:
    report = Report(f"ortho volume {system.name or args.system}")
    y = _load_set(args, system)
    if y is None:
        raise ValueError("ortho volume needs --fixture or --special")
    vp = fam.volume_polytope(y)
    va = fam.volume_analytic(y)
    report.add(
        "volume-two-ways",
        vp == va,
        f"polytope={frac_str(vp)}, analytic={frac_str(va)}",
    )
    return report


def _ortho_ehrhart(args, system) -> Report:
    report = Report(f"ortho ehrhart {system.name or args.system}")
    y = _load_set(args, system)
    if y is None:
        raise ValueError("ortho ehrhart needs --fixture or --special")
    x0 = rd._parse_vec(args.x0.split(","), system.ambient_dim) if args.x0 else linalg.clear_denominators(
        sampling.random_dominant_point(random.Random(0), system)
    )[0]
    if any(x.denominator != 1 for x in x0):
        raise ValueError("the sweep point must have integer coordinates")
    target = fam.volume_polytope(y)
    for k in range(args.kmax, 0, -1):  # every count is checked, largest first, before any is made
        fam.refinement_boxes(y, x0, k, args.max_period)
    errors = [
        abs(fam.refinement_constant_term(y, x0, k, max_period=args.max_period) - target)
        for k in range(1, args.kmax + 1)
    ]
    # the constant c is fitted on k <= 2 and must bound k * e_k for every later k
    c_fit = max(k * e for k, e in enumerate(errors[:2], start=1))
    ok = all(k * e <= c_fit for k, e in enumerate(errors[2:], start=3))
    decreasing_ok = errors[-1] <= errors[0] or errors[-1] == 0
    report.add(
        "refinement-constants",
        ok and decreasing_ok,
        "errors " + ", ".join(frac_str(e) for e in errors) + f"; volume={frac_str(target)}",
    )
    return report


# the ortho actions, run on the resolved system; the parser takes its choices from here
_ORTHO = {"check": _ortho_check, "volume": _ortho_volume, "ehrhart": _ortho_ehrhart}


def cmd_ortho(args) -> Report:
    return _ORTHO[args.action](args, rd.resolve_system(args.system))


def _resolve_torus(args):
    if args.fixture:
        return lattice_with_action_from_json(args.fixture)
    if args.norm_one is not None:
        return norm_one_torus(args.norm_one)
    if args.split is not None:
        return split_torus(args.split, group_order=2)
    raise ValueError("a torus is required: --fixture, --norm-one or --split")


def _cohomology_holds(torus, group) -> bool:
    """The group order p annihilates H^-1, so every invariant factor divides it.  When p
    is prime, also the Herbrand quotient |H^0| / |H^-1| = p^((p r0 - r) / (p - 1)) holds, for
    L of rank r and L^G of rank r0 (Serre, *Local Fields*, ch. VIII, section 4).  H^0 comes
    from its own Smith normal form, of the norm, so this can fail where the order cannot."""
    p = torus.order
    if any(p % f for f in group.invariant_factors):
        return False
    if p < 2 or any(p % q == 0 for q in range(2, math.isqrt(p) + 1)):
        return True  # |G| is not prime: the order test is the whole check
    h0, r0 = tate_h_zero(torus)
    e, rest = divmod(p * r0 - torus.lattice.rank, p - 1)
    return rest == 0 and h0.order * p ** max(-e, 0) == group.order * p ** max(e, 0)


def cmd_h1(args) -> Report:
    report = Report("h1")
    torus = _resolve_torus(args)
    group = tate_h_minus1(torus)
    report.add(
        "cohomology",
        _cohomology_holds(torus, group),
        f"invariant factors ({', '.join(str(f) for f in group.invariant_factors)}), "
        f"order {group.order}",
    )
    return report


def cmd_fibers(args) -> Report:
    report = Report("fibers")
    torus = _resolve_torus(args)
    group = tate_h_minus1(torus)
    count = pr.inner_form_fiber_count(group.order, args.h1g)
    report.add(
        "fiber-count",
        _cohomology_holds(torus, group),
        f"|H1(T)|={group.order}, |H1(G)|={args.h1g}, fibers={count}",
    )
    return report


def cmd_list_levis(args) -> Report:
    report = Report("list-levis")
    preset = pr.resolve_preset(args.preset)
    data = pr.enumerate_elliptic_levis(preset)
    # |B|_I| * |{b in B : b & I = 0}| = |B|: zero_on[I] counts the b <= ~I, B's indicator summed at complements
    group = {0}
    for g in preset.b_generators:
        group |= {b ^ g for b in group}
    zero_on = mu.superset_sums([int(b in group) for b in range(len(data))][::-1])
    oks = [d.mab_index * zero_on[mask] == len(group) for mask, d in enumerate(data)]
    for d, ok in zip(data, oks):
        detail = f"sign={d.sign:+d} ker1={d.ker1_size} mab_index={d.mab_index}"
        report.add(f"levi I={d.subset}", ok, detail + (f" label={d.label}" if d.label is not None else ""))
    report.add("invariant ker1*index=2^|I|", all(oks), f"{len(data)} subsets")
    return report


# -- argument parsing ---------------------------------------------------------------


def _int_at_least(lowest: int, highest: int):
    """argparse type: an integer no smaller than ``lowest`` nor larger than ``highest``."""

    def count(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galpairs", description="Exact verification of multiplicity combinatorics"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)  # the options of every command
    common.add_argument("--format", choices=("text", "json"), default="text")
    command = functools.partial(sub.add_parser, parents=[common])
    torus_rank = _int_at_least(0, 64)  # the lattice closure check costs about k^3

    p = command("verify-prasad", help="character-collapse and multiplicity checks")
    ranks = p.add_mutually_exclusive_group()
    rank = _int_at_least(0, pr.MAX_M)
    ranks.add_argument("--m", type=rank, default=None, help="single ambient rank to check")
    ranks.add_argument("--max-m", type=rank, default=6, help="check all ranks up to this")
    p.add_argument("--preset", action="append", help="preset spec GL:n / U:n / fixture path")
    p.set_defaults(func=cmd_verify_prasad)

    p = command("ortho", help="orthogonal-set checks")
    p.add_argument("action", choices=tuple(_ORTHO))
    p.add_argument("--system", required=True, help="built-in name or fixture path")
    p.add_argument("--samples", type=_int_at_least(1, MAX_SAMPLES), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", help="orthogonal set fixture path")
    p.add_argument("--special", help="comma-separated base point for a swept set")
    p.add_argument("--x0", help="comma-separated integer sweep point (ehrhart)")
    # c is fitted on k <= 2, so the bound is only tested from k = 3 on; a run makes
    # kmax * (max_period * (rank + 2) + 2) counts, each sweeping its box a plane at a time
    p.add_argument("--kmax", type=_int_at_least(3, 6), default=4)
    p.add_argument("--max-period", type=_int_at_least(1, 4), default=2)
    p.set_defaults(func=cmd_ortho)

    for name, func in (("h1", cmd_h1), ("fibers", cmd_fibers)):
        p = command(name, help="torus cohomology" if name == "h1" else "inner-form fibers")
        p.add_argument("--fixture", help="lattice-with-action fixture path")
        p.add_argument("--norm-one", type=torus_rank, default=None, help="product of k norm-one tori")
        p.add_argument("--split", type=torus_rank, default=None, help="split torus of this rank")
        if name == "fibers":
            p.add_argument("--h1g", type=int, required=True, help="order of the ambient H1")
        p.set_defaults(func=func)

    p = command("list-levis", help="elliptic twisted-Levi data of a preset")
    p.add_argument("--preset", required=True)
    p.set_defaults(func=cmd_list_levis)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> tuple[int, str]:
    """Programmatic entry point: returns (exit code, report text), the one place a report is rendered."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors
        return (EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS), ""
    try:
        report = args.func(args)
    except (OSError, ValueError, KeyError) as exc:  # a json.JSONDecodeError is a ValueError
        return EXIT_USAGE, f"error: {exc}\n"
    except ArithmeticError as exc:  # an exact identity failed inside a computation
        return EXIT_VIOLATION, f"error: {exc}\n"
    return (EXIT_PASS if report.ok else EXIT_VIOLATION), report.render(args.format)


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(argv)
    _sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
