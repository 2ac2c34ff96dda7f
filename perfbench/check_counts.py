#!/usr/bin/env python3
"""Exact-count determinism check for the benchmark.

For every workload: two traced runs with the same seed, one twice as long as
the other, must report identical work counts per round, and a run with
another seed must see different inputs on the generated workloads (the first
round's input fingerprint changes).

    python3 perfbench/check_counts.py --seed 1 --seconds 3
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

from run import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"
COUNTS = (
    "vcgen.vcs",
    "prover.constraints_emitted",
    "prover.constraints_kept",
    "lp.solves",
    "lp.rows",
    "lp.cols",
    "vm.steps",
    "bytecode.instrs",
)
GENERATED = ("analyze-chains", "replay-mutate", "replay-walk")


def traced(workload, seed, seconds):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1"]
    out = subprocess.run(cmd, cwd=RUN.parent.parent, capture_output=True, text=True)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    fingerprint = re.search(r"round-1 inputs (\w+)", lines[0]).group(1)
    metrics = json.loads(lines[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTS}, fingerprint


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=3)
    args = parser.parse_args(argv)
    ok = True
    for workload in WORKLOADS:
        first, fp1 = traced(workload, args.seed, args.seconds)
        again, fp2 = traced(workload, args.seed, 2 * args.seconds)
        _, fp3 = traced(workload, args.seed + 1, args.seconds)
        same = first == again and fp1 == fp2
        moved = fp3 != fp1 or workload not in GENERATED
        ok &= same and moved
        print(f"{workload}: counts {'repeat' if same else 'DIFFER'}"
              f"{'' if moved else '; inputs did NOT change with the seed'}: {first}")
        if not same:
            print(f"  second run: {again}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
