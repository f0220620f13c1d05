#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --workload kernel --seeds 1-10 [--seconds 20] [--trace 0] [--out FILE]

Runs one seed at a time, so runs never compete for the cores.  For every
metric it prints the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread, (Q3 - Q1) / median.  ``--out`` writes the raw results and
the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", default="20")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args()
    runs = []
    for seed in parse_seeds(args.seeds):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", args.trace],
            cwd=RUN.parent.parent, capture_output=True, text=True, timeout=900,
        )
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        result["wall_s"] = time.perf_counter() - t0
        runs.append(result)
        figures = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {result['wall_s']:.1f}s correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} {figures}", flush=True)
    summary = {
        name: summarize([r["metrics"][name]["value"] for r in runs])
        for name in runs[0]["metrics"]
    }
    for name, s in summary.items():
        print(f"{name:55s} median={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} "
              f"spread={s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": runs, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
