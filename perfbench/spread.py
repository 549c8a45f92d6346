#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics, and the shift between sets.

    python3 perfbench/spread.py --workload NAME [--seeds 1,2,...] [--sets K]
                                [--seconds S] [--trace 0|1] [--json OUT]

Runs perfbench/run.py once per seed and set, sequentially.  With --sets 2
or more the sets alternate run by run (seed 1 of every set, then seed 2 of
every set, ...), so a slow drift of the host lands in every set alike.

Per set and metric it prints the median of the runs, the first and third
quartiles (Python's statistics.quantiles(values, n=4)) and their distance
as a share of the median (the spread), and for every set after the first
the shift of its median from the first set's, as a share of it.  Distinct
seeds (the default) measure what an acceptance check over one run per seed
sees: input variation plus host noise.  One seed repeated
(--seeds 9,9,9,...) measures host noise alone.  --json writes the raw
per-run metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(values):
    """Median, q1, q3 and (q3 - q1) / median of one metric's values."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json")
    args = parser.parse_args()

    sets = [[] for _ in range(args.sets)]
    for seed in [int(s) for s in args.seeds.split(",")]:
        for k, runs in enumerate(sets):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"set {k + 1} seed {seed}: FAILED (exit {proc.returncode})",
                      file=sys.stderr)
                return 1
            runs.append({"seed": seed, "metrics": result["metrics"]})
            print(f"set {k + 1} seed {seed}: " + ", ".join(
                f"{name}={m['value']:.6g}" for name, m in result["metrics"].items()),
                flush=True)

    print(f"{'set':>3} {'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'shift':>8}")
    for name in sets[0][0]["metrics"]:
        first = None
        for k, runs in enumerate(sets):
            med, q1, q3, spread = summary([r["metrics"][name]["value"] for r in runs])
            if first is None:
                first = med
            shift = f"{med / first - 1:+8.4f}" if k > 0 and first else f"{'':8}"
            print(f"{k + 1:>3} {name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {shift}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump({"workload": args.workload, "trace": args.trace,
                       "seconds": args.seconds, "sets": sets}, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
