#!/usr/bin/env python3
"""Self-test of the benchmark's checks, seeding and traced run.

    python3 perfbench/selftest.py [--workloads kernel,lattice,algebra]

For each workload:
  1. one cycle built with every expected value perturbed fails ops of every
     kind (fail_frac > 0), and the unperturbed cycle fails none;
  2. two runs with the same seed, under different PYTHONHASHSEED values,
     print the same input and result digests, and another seed prints
     another input digest;
  3. the traced run prints the same result digest as the untraced run.
Prints one line per check and exits 0 when all hold.  Takes a few minutes.
"""

from __future__ import annotations

import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

import run

RUN = Path(run.__file__).resolve()


def perturbation_check(workloads, name: str) -> bool:
    ok = True
    for perturb in (False, True):
        res = run.CycleResult()
        wl = workloads.build(name, 0, perturb=perturb)
        run.run_cycle(wl, res)
        kinds = {op.kind for op in wl.ops}
        failed_kinds = {f.split(" ", 1)[0] for f in res.failures}
        frac = len(res.failures) / res.attempted
        good = failed_kinds == kinds if perturb else not res.failures
        print(f"{'PASS' if good else 'FAIL'} {name} perturb={perturb}: fail_frac={frac:.3f} "
              f"failing kinds {sorted(failed_kinds)} of {sorted(kinds)}", flush=True)
        ok &= good
    return ok


def digests(name: str, seed: int, trace: int, hashseed: str) -> tuple[str, str]:
    env = dict(os.environ, PYTHONHASHSEED=hashseed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=run.ROOT, env=env, capture_output=True, text=True, timeout=600, check=True,
    )
    match = re.search(r"^digest inputs=(\w+) results=(\w+)$", proc.stdout, re.M)
    return match.group(1), match.group(2)


def seeding_check(name: str) -> bool:
    first = digests(name, 1, 0, "1")
    again = digests(name, 1, 0, "2")
    other = digests(name, 2, 0, "1")
    traced = digests(name, 1, 1, "3")
    checks = [
        ("same seed, other PYTHONHASHSEED: same digests", again == first),
        ("other seed: other input digest", other[0] != first[0]),
        ("traced run: same result digest", traced[1] == first[1]),
    ]
    for label, good in checks:
        print(f"{'PASS' if good else 'FAIL'} {name} {label} ({first} {again} {other[0]} {traced[1]})",
              flush=True)
    return all(good for _, good in checks)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="kernel,lattice,algebra")
    args = parser.parse_args()
    workloads = run.load_library()
    ok = True
    for name in args.workloads.split(","):
        ok &= perturbation_check(workloads, name)
        ok &= seeding_check(name)
    print("selftest", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
