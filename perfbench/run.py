#!/usr/bin/env python3
"""galpairs benchmark: seeded exact-verification workloads, timed in a closed loop.

    python3 perfbench/run.py --workload kernel|lattice|algebra --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/`` of
that checkout.  One process, one thread: each op is issued only after the
previous one returned.  The timed phase runs whole cycles of the workload
until ``--seconds`` have passed.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run, and the spans
are written to ``.perfbench_out/`` in the checkout.  See README.md beside
this file.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT_DIR = ROOT / ".perfbench_out"
MIN_SETUP_SAMPLES = 7  # fresh interpreters timed per run; setup_s is their median
PROBE_REPEATS = 40  # speed probes run by each set-up interpreter after its set-up
# About the time of ``speed_probe`` on the quiet 2-core Xeon VM the benchmark
# was tuned on.  Times are reported at that speed: see ``per_op_latencies``.
REFERENCE_PROBE_S = 0.5e-3
FAN_REPEATS = 3
FAN_SYSTEMS = ("A1", "A2", "A3", "B2", "C2", "G2", "BC1", "BC2")
KERNEL_SYSTEMS = ("A2", "A3", "B2", "G2", "BC2")
KERNEL_KINDS = ("pou", "gamma")

# (span name, figures) reported by the traced run
CALL_METRICS = (
    ("families.partition_of_unity_value", ("calls", "us_per_call")),
    ("families.gamma_family", ("calls", "self_ms", "us_per_call")),
    ("families.OrthogonalSet", ("calls", "us_per_call")),
    ("families.Hull", ("calls", "us_per_call")),
    ("families.Hull.classify", ("calls", "us_per_call")),
    ("families.volume_polytope", ("ms_per_call",)),
    ("families.volume_analytic", ("ms_per_call",)),
    ("families.fit_exp_polynomial", ("calls", "ms_per_call")),
    ("families.v_tilde_lattice", ("calls", "self_ms", "ms_per_call")),
    ("linalg.solve", ("calls", "self_ms")),
    ("linalg.coordinates_in_basis", ("calls", "self_ms")),
    ("exact_linalg.tate_h_minus1", ("calls", "self_ms", "ms_per_call")),
    ("exact_linalg.smith_normal_form", ("calls", "self_ms")),
    ("exact_linalg.LatticeWithAction.in_basis_matrices", ("self_ms",)),
    ("multiplicity.verify_prasad_identity", ("calls", "ms_per_call")),
    ("multiplicity.steinberg_multiplicity", ("calls", "us_per_call")),
    ("multiplicity.steinberg_indicator", ("us_per_call",)),
    ("presets.enumerate_elliptic_levis", ("calls", "ms_per_call")),
)
FIGURE_UNITS = {"calls": "count", "self_ms": "ms", "us_per_call": "us", "ms_per_call": "ms"}
FIGURE_SCALE = {"self_ms": 1e3, "us_per_call": 1e6, "ms_per_call": 1e3}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    from tracing import MODULES

    units = {f"root_data.fan_build_ms.{s}": "ms" for s in FAN_SYSTEMS}
    units["sampling.inputs_ms"] = "ms"
    units.update({f"families.kernel_us_per_point.{s}": "us" for s in KERNEL_SYSTEMS})
    for name, figures in CALL_METRICS:
        units.update({f"{name}.{f}": FIGURE_UNITS[f] for f in figures})
    units["families.count.points"] = "count"
    units["families.count.kernel_fallbacks"] = "count"
    units["families.count.fallbacks_per_point"] = "fallback/point"
    units.update({f"{m}.self_s": "s" for m in MODULES})
    units["trace.spans"] = "count"
    units["trace.overhead_frac"] = "ratio"
    return units


def load_library():
    """Import galpairs from this checkout's src/ and the benchmark's own modules."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import galpairs

    if Path(galpairs.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"galpairs was imported from {galpairs.__file__}, not from {src}")
    import workloads

    return workloads


def nearest_rank(sorted_values: list[float], q: float) -> float:
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


_PROBE_MATRIX = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(7)] for i in range(7)]


def speed_probe() -> Fraction:
    """A fixed piece of stdlib work like the library's own: Fraction elimination.

    It does not touch galpairs, so no change to the library can change it;
    its time shows only how fast the machine runs at that moment.
    """
    a = [row[:] for row in _PROBE_MATRIX]
    det = Fraction(1)
    for c in range(len(a)):
        p = next(r for r in range(c, len(a)) if a[r][c])
        a[c], a[p] = a[p], a[c]
        det *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return det


def time_speed_probe() -> float:
    t0 = time.perf_counter()
    speed_probe()
    return time.perf_counter() - t0


class CycleResult:
    def __init__(self) -> None:
        self.latencies: list[float] = []  # seconds per op
        self.probes: list[float] = []  # seconds of the speed probe right after each op
        self.summaries: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.count_points = 0


def per_op_latencies(cycles: list[CycleResult]) -> list[float]:
    """Each op's latency at the reference speed, in op order.

    On a shared machine other load slows every piece of code for stretches
    of milliseconds to minutes.  The speed probe that follows each op is
    slowed with it, so an op's time over its probe's time hardly depends on
    that load.  The latency is the median of that ratio over the cycles,
    times the probe's reference time.
    """
    return [
        statistics.median(t / p for t, p in samples) * REFERENCE_PROBE_S
        for samples in zip(*(zip(c.latencies, c.probes) for c in cycles))
    ]


def run_cycle(wl, out: CycleResult, tracer=None, keep_summaries: bool = False) -> None:
    """One pass over the workload's ops; checks are made outside the timing.

    A speed probe follows every op, outside its timing, so the cycle knows
    how fast the machine ran while it did.
    """
    clock = time.perf_counter
    gc.collect()  # every cycle starts from the same collector state
    for op in wl.ops:
        out.attempted += 1
        span = tracer.span(f"op.{op.kind}") if tracer else contextlib.nullcontext()
        t0 = clock()
        try:
            with span:
                result = op.call()
            raised = None
        except Exception as exc:  # an op that raises counts as failed
            raised = exc
        out.latencies.append(clock() - t0)
        if raised is not None:
            summary, ok = f"raised {raised!r}", False
        else:
            try:
                summary, ok = op.check(result)
            except Exception as exc:
                summary, ok = f"check raised {exc!r}", False
            if op.kind == "count" and isinstance(result, int):
                out.count_points += result
        if not ok:
            out.failures.append(f"{op.kind} {op.key}: got {summary}")
        if keep_summaries:
            out.summaries.append(f"{op.key}={summary}")
        out.probes.append(time_speed_probe())


def digest(lines: list[str]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def run_differentials(wl) -> tuple[list[str], list[str]]:
    lines, failures = [], []
    for name, summary, ok in wl.setup_checks + wl.differentials():
        lines.append(f"{name}={summary}")
        if not ok:
            failures.append(f"{name}: got {summary}")
    return lines, failures


def probe_setup(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of one fresh interpreter (import, build systems, make inputs),
    as measured and at the reference speed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    elapsed, probe = map(float, proc.stdout.strip().splitlines()[-1].split())
    return elapsed, elapsed / probe * REFERENCE_PROBE_S


def setup_probe(workload: str, seed: int) -> None:
    """Time one set-up, then the speed probe; the probes come after the
    set-up so that they warm up nothing it uses."""
    t0 = time.perf_counter()
    workloads = load_library()
    workloads.build(workload, seed)
    elapsed = time.perf_counter() - t0
    probe = statistics.median(time_speed_probe() for _ in range(PROBE_REPEATS))
    print(repr(elapsed), repr(probe))


def report(header: str, values: dict, units: dict, wl, cycles: list[CycleResult],
           diff_lines: list[str], diff_failures: list[str]) -> int:
    """Print the metric lines, failures and digests; the last line is the JSON result."""
    failures = [f for c in cycles for f in c.failures]
    attempted = sum(c.attempted for c in cycles)
    lines = [header]
    lines += [f"metric {name} = {values[name]:.6g} {unit}" for name, unit in units.items()]
    lines.append(f"metric fail_frac = {len(failures) / attempted:.6g} ratio")
    lines += [f"FAIL {f}" for f in (failures[:5] + diff_failures)]
    # the first cycle kept its result summaries
    lines.append(f"digest inputs={digest(wl.inputs)} results={digest(cycles[0].summaries + diff_lines)}")
    for line in lines:
        print(line)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    result = {"correct": not failures and not diff_failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0


def untraced_run(workloads, args) -> int:
    """Cycles, each on a fresh set-up, until --seconds have passed.

    A fresh set-up per cycle makes every cycle pay the library's lazy cache
    fills, as one CLI invocation does, so the cycles repeat the same ops on
    the same inputs.  The figures are taken over the per-op latencies of
    ``per_op_latencies``.  A set-up probe runs after each cycle, so that its
    samples too are spread over the run.
    """
    start = time.perf_counter()
    cycles: list[CycleResult] = []
    setup_samples: list[tuple[float, float]] = []
    while not cycles or time.perf_counter() - start < args.seconds:
        wl = workloads.build(args.workload, args.seed)
        res = CycleResult()
        run_cycle(wl, res, keep_summaries=not cycles)
        cycles.append(res)
        setup_samples.append(probe_setup(args.workload, args.seed))
    wall = time.perf_counter() - start
    while len(setup_samples) < MIN_SETUP_SAMPLES:
        setup_samples.append(probe_setup(args.workload, args.seed))
    diff_lines, diff_failures = run_differentials(wl)
    per_op = sorted(per_op_latencies(cycles))
    measured = sorted(statistics.median(lat) for lat in zip(*(c.latencies for c in cycles)))
    values = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "ops_per_s": len(per_op) / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p90_ms": nearest_rank(per_op, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    probe_ms = statistics.median(p for c in cycles for p in c.probes) * 1e3
    header = (
        f"workload={args.workload} seed={args.seed} trace=0 cycles={len(cycles)} "
        f"ops_per_cycle={len(wl.ops)} wall_s={wall:.3f} setup_samples={len(setup_samples)} "
        f"differentials={len(diff_lines)}\n"
        f"as measured: speed probe {probe_ms:.4g} ms (reference {REFERENCE_PROBE_S * 1e3:g} ms), "
        f"setup_s {statistics.median(e for e, _ in setup_samples):.4g}, "
        f"ops_per_s {len(measured) / sum(measured):.4g}, op_p50_ms {statistics.median(measured) * 1e3:.4g}, "
        f"op_p90_ms {nearest_rank(measured, 0.9) * 1e3:.4g}"
    )
    return report(header, values, dict(END_TO_END), wl, cycles, diff_lines, diff_failures)


def traced_run(workloads, args) -> int:
    import tracing

    with open(workloads.SYSTEMS_FILE, "r", encoding="utf-8") as fh:
        fixtures = json.load(fh)
    fan_ms = {}
    for name in FAN_SYSTEMS:
        samples = []
        for _ in range(FAN_REPEATS):
            t0 = time.perf_counter()
            workloads.root_data.system_from_dict(fixtures[name])
            samples.append((time.perf_counter() - t0) * 1e3)
        fan_ms[name] = statistics.median(samples)

    # Pairs of an untraced and a traced cycle, each on a fresh set-up so both
    # start from the same cold library caches; the pairs alternate which side
    # runs first.  Span figures come from the first traced set-up and cycle.
    # Timings are per-op latencies at the reference speed, as the end-to-end
    # ones are.  One discarded cycle comes first, so that neither side pays the
    # process's own warm-up.
    run_cycle(workloads.build(args.workload, args.seed), CycleResult())
    start = time.perf_counter()
    plain: list[CycleResult] = []
    traced: list[CycleResult] = []
    inputs_ms = []
    spans: list = []

    def untraced_cycle():
        wl = workloads.build(args.workload, args.seed)
        inputs_ms.append(wl.inputs_ms)
        plain.append(CycleResult())
        run_cycle(wl, plain[-1])
        return wl

    def traced_cycle():
        nonlocal spans
        tracer = tracing.Tracer()
        tracer.install()
        try:
            with tracer.span("setup"):
                wl = workloads.build(args.workload, args.seed)
            traced.append(CycleResult())
            run_cycle(wl, traced[-1], tracer=tracer, keep_summaries=len(traced) == 1)
        finally:
            tracer.uninstall()
        if len(traced) == 1:
            spans = tracer.spans
        return wl

    while not plain or time.perf_counter() - start < args.seconds:
        order = (untraced_cycle, traced_cycle) if len(plain) % 2 == 0 else (traced_cycle, untraced_cycle)
        wl = [cycle() for cycle in order][-1]
    diff_lines, diff_failures = run_differentials(wl)
    plain_op = per_op_latencies(plain)
    traced_op = per_op_latencies(traced)

    stats = tracing.span_stats(spans)
    values: dict[str, float] = {f"root_data.fan_build_ms.{s}": fan_ms[s] for s in FAN_SYSTEMS}
    values["sampling.inputs_ms"] = statistics.median(inputs_ms)
    for s in KERNEL_SYSTEMS:
        lat = [t for op, t in zip(wl.ops, plain_op) if op.kind in KERNEL_KINDS and op.group == s]
        values[f"families.kernel_us_per_point.{s}"] = sum(lat) / len(lat) * 1e6 if lat else 0.0
    for name, figures in CALL_METRICS:
        st = stats.get(name, {"calls": 0, "total": 0.0, "self": 0.0})
        for f in figures:
            if f == "calls":
                values[f"{name}.calls"] = st["calls"]
            elif f == "self_ms":
                values[f"{name}.self_ms"] = st["self"] * 1e3
            else:
                per_call = st["total"] / st["calls"] if st["calls"] else 0.0
                values[f"{name}.{f}"] = per_call * FIGURE_SCALE[f]
    fallbacks = tracing.count_under(spans, "families.gamma_family", "families.v_tilde_lattice")
    points = traced[0].count_points
    values["families.count.points"] = points
    values["families.count.kernel_fallbacks"] = fallbacks
    values["families.count.fallbacks_per_point"] = fallbacks / points if points else 0.0
    for module in tracing.MODULES:
        values[f"{module}.self_s"] = sum(
            st["self"] for name, st in stats.items() if name.split(".", 1)[0] == module
        )
    values["trace.spans"] = len(spans)
    values["trace.overhead_frac"] = sum(traced_op) / sum(plain_op) - 1

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": spans}, fh)

    header = (
        f"workload={args.workload} seed={args.seed} trace=1 pairs={len(plain)} "
        f"ops_per_cycle={len(wl.ops)} untraced_s={sum(plain_op):.3f} traced_s={sum(traced_op):.3f}"
    )
    return report(header, values, per_layer_units(), wl, traced + plain, diff_lines, diff_failures)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("kernel", "lattice", "algebra"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    workloads = load_library()
    return traced_run(workloads, args) if args.trace else untraced_run(workloads, args)


if __name__ == "__main__":
    sys.exit(main())
