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
import json
import random
import sys as _sys
from fractions import Fraction
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
    split_torus,
    tate_h_minus1,
)

EXIT_PASS = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


def frac_str(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def chamber_order(system: rd.RestrictedRootSystem) -> list[int]:
    """Canonical chamber ordering: lexicographic in the sign vectors."""
    return sorted(system.chambers, key=lambda c: system.cones[c].signs)


def parse_point(text: str) -> tuple[Fraction, ...]:
    return rd._parse_vec(text.split(","))


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

    def result(self, fmt: str) -> tuple[int, str]:
        """(exit code, rendered report)."""
        return (EXIT_PASS if self.ok else EXIT_VIOLATION), self.render(fmt)


# -- subcommand implementations ---------------------------------------------------


def cmd_verify_prasad(args) -> tuple[int, str]:
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
        all_ok = True
        checked = 0
        for chi in mu.distinct_b_characters(preset):
            got = mu.steinberg_multiplicity(preset, chi)
            want = mu.steinberg_indicator(preset, chi)
            checked += 1
            if got != want:
                all_ok = False
        report.add(
            f"multiplicity-indicator {preset.name}",
            all_ok,
            f"{checked} characters of B",
        )
    return report.result(args.format)


def cmd_ortho(args) -> tuple[int, str]:
    system = rd.resolve_system(args.system)
    if args.action == "check":
        return _ortho_check(args, system)
    if args.action == "volume":
        return _ortho_volume(args, system)
    if args.action == "ehrhart":
        return _ortho_ehrhart(args, system)
    raise ValueError(f"unknown ortho action {args.action!r}")


def _load_set(args, system: rd.RestrictedRootSystem) -> Optional[fam.OrthogonalSet]:
    if getattr(args, "fixture", None):
        with open(args.fixture, "r", encoding="utf-8") as fh:
            return orthogonal_set_from_dict(json.load(fh), system)
    if getattr(args, "special", None):
        return fam.OrthogonalSet.special(system, args.special.split(","))
    return None


def _ortho_check(args, system) -> tuple[int, str]:
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
        bad = fam.partition_of_unity_check(system, y, points)
        detail = f"{args.samples} points, {len(bad)} violations"
        if bad:
            h, value = bad[0]
            detail += f"; first at h={','.join(frac_str(x) for x in h)}: value {value}, want 1"
        report.add(f"partition-of-unity [{label}]", not bad, detail)
        sb = fam.support_bound_check(system, y, points)
        report.add(
            f"support-bound [{label}]",
            sb.ok,
            f"{sb.nonzero} supported points, c_emp={frac_str(sb.c_empirical)}, "
            f"c_bound={frac_str(sb.c_bound)}",
        )
    return report.result(args.format)


def _ortho_volume(args, system) -> tuple[int, str]:
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
    return report.result(args.format)


def _ortho_ehrhart(args, system) -> tuple[int, str]:
    report = Report(f"ortho ehrhart {system.name or args.system}")
    y = _load_set(args, system)
    if y is None:
        raise ValueError("ortho ehrhart needs --fixture or --special")
    x0 = parse_point(args.x0) if args.x0 else linalg.clear_denominators(
        sampling.random_dominant_point(random.Random(0), system)
    )[0]
    if any(x.denominator != 1 for x in x0):
        raise ValueError("the sweep point must have integer coordinates")
    target = fam.volume_polytope(y)
    # largest refinement first, so a run over the scan-line limit is refused before any count
    errors = [
        abs(fam.refinement_constant_term(y, x0, k, max_period=args.max_period) - target)
        for k in range(args.kmax, 0, -1)
    ][::-1]
    # the constant c is fitted on k <= 2 and must bound k * e_k for every later k
    c_fit = max(k * e for k, e in enumerate(errors[:2], start=1))
    ok = all(k * e <= c_fit for k, e in enumerate(errors[2:], start=3))
    decreasing_ok = errors[-1] <= errors[0] or errors[-1] == 0
    report.add(
        "refinement-constants",
        ok and decreasing_ok,
        "errors " + ", ".join(frac_str(e) for e in errors) + f"; volume={frac_str(target)}",
    )
    return report.result(args.format)


def _resolve_torus(args):
    if args.fixture:
        return lattice_with_action_from_json(args.fixture)
    if args.norm_one is not None:
        return norm_one_torus(args.norm_one)
    if args.split is not None:
        return split_torus(args.split, group_order=2)
    raise ValueError("a torus is required: --fixture, --norm-one or --split")


def _killed_by_group_order(torus, group) -> bool:
    """The group order annihilates H^-1: every invariant factor divides it."""
    return all(torus.order % f == 0 for f in group.invariant_factors)


def cmd_h1(args) -> tuple[int, str]:
    report = Report("h1")
    torus = _resolve_torus(args)
    group = tate_h_minus1(torus)
    report.add(
        "cohomology",
        _killed_by_group_order(torus, group),
        f"invariant factors ({', '.join(str(f) for f in group.invariant_factors)}), "
        f"order {group.order}",
    )
    return report.result(args.format)


def cmd_fibers(args) -> tuple[int, str]:
    report = Report("fibers")
    torus = _resolve_torus(args)
    group = tate_h_minus1(torus)
    count = pr.inner_form_fiber_count(group.order, args.h1g)
    report.add(
        "fiber-count",
        _killed_by_group_order(torus, group),
        f"|H1(T)|={group.order}, |H1(G)|={args.h1g}, fibers={count}",
    )
    return report.result(args.format)


def cmd_list_levis(args) -> tuple[int, str]:
    report = Report("list-levis")
    preset = pr.resolve_preset(args.preset)
    data = pr.enumerate_elliptic_levis(preset)
    ok = all(d.product_invariant == 2 ** len(d.subset) for d in data)
    for d in data:
        label = f" label={d.label}" if d.label is not None else ""
        report.add(
            f"levi I={d.subset}",
            d.product_invariant == 2 ** len(d.subset),
            f"sign={d.sign:+d} ker1={d.ker1_size} mab_index={d.mab_index}{label}",
        )
    report.add("invariant ker1*index=2^|I|", ok, f"{len(data)} subsets")
    return report.result(args.format)


# -- argument parsing ---------------------------------------------------------------


def _int_at_least(lowest: int, highest: Optional[int] = None):
    """argparse type: an integer no smaller than ``lowest`` (nor larger than ``highest``)."""

    def count(text: str) -> int:
        value = int(text)
        if value < lowest:
            raise argparse.ArgumentTypeError(f"must be at least {lowest}, got {value}")
        if highest is not None and value > highest:
            raise argparse.ArgumentTypeError(f"must be at most {highest}, got {value}")
        return value

    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galpairs", description="Exact verification of multiplicity combinatorics"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _int_at_least(1)
    torus_rank = _int_at_least(0, 64)  # the lattice closure check costs about k^3

    p = sub.add_parser("verify-prasad", help="character-collapse and multiplicity checks")
    ranks = p.add_mutually_exclusive_group()
    rank = _int_at_least(0, pr.MAX_M)
    ranks.add_argument("--m", type=rank, default=None, help="single ambient rank to check")
    ranks.add_argument("--max-m", type=rank, default=6, help="check all ranks up to this")
    p.add_argument("--preset", action="append", help="preset spec GL:n / U:n / fixture path")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_verify_prasad)

    p = sub.add_parser("ortho", help="orthogonal-set checks")
    p.add_argument("action", choices=("check", "volume", "ehrhart"))
    p.add_argument("--system", required=True, help="built-in name or fixture path")
    p.add_argument("--samples", type=positive, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--fixture", help="orthogonal set fixture path")
    p.add_argument("--special", help="comma-separated base point for a swept set")
    p.add_argument("--x0", help="comma-separated integer sweep point (ehrhart)")
    # c is fitted on k <= 2, so the bound is only tested from k = 3 on; a run makes
    # kmax * (max_period * (rank + 2) + 2) counts, each costing one step per scan line
    p.add_argument("--kmax", type=_int_at_least(3, 6), default=4)
    p.add_argument("--max-period", type=_int_at_least(1, 4), default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_ortho)

    for name, func in (("h1", cmd_h1), ("fibers", cmd_fibers)):
        p = sub.add_parser(name, help="torus cohomology" if name == "h1" else "inner-form fibers")
        p.add_argument("--fixture", help="lattice-with-action fixture path")
        p.add_argument("--norm-one", type=torus_rank, default=None, help="product of k norm-one tori")
        p.add_argument("--split", type=torus_rank, default=None, help="split torus of this rank")
        if name == "fibers":
            p.add_argument("--h1g", type=int, required=True, help="order of the ambient H1")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    p = sub.add_parser("list-levis", help="elliptic twisted-Levi data of a preset")
    p.add_argument("--preset", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_list_levis)

    return parser


def run(argv: Optional[Sequence[str]] = None) -> tuple[int, str]:
    """Programmatic entry point: returns (exit code, report text)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse errors
        return (EXIT_USAGE if exc.code not in (0, None) else EXIT_PASS), ""
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        return EXIT_USAGE, f"error: {exc}\n"
    except ArithmeticError as exc:  # an exact identity failed inside a computation
        return EXIT_VIOLATION, f"error: {exc}\n"


def main(argv: Optional[Sequence[str]] = None) -> int:
    code, text = run(argv)
    _sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
