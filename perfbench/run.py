#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                             [--smoke]

Run from the repository root.  The first call configures and builds the
simulator library and perfbench/wlbench.cpp into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench); later calls only rebuild what changed.
The measuring itself is done by wlbench; its last stdout line, one JSON
object with keys correct/attempted/failed/metrics, is this command's last
line too.  The exit code is 0 only when the build succeeded and every
correctness check passed.

--seed defaults to the default seed in perfbench/golden.json.  When the
seed (at full size) has a recorded golden physics digest there, wlbench
checks every repetition against it.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("mesh_byzantine", "expander_gradient", "cliques_pdes", "paper_sweep")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build wlbench; returns its path."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if not os.path.exists(cache):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "wlbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes of every workload (the self-test)")
    args = parser.parse_args()
    if args.seconds < 1 or args.seconds > 120:
        parser.error("--seconds must be within [1, 120]")

    with open(os.path.join(HERE, "golden.json")) as f:
        golden = json.load(f)
    seed = golden["default_seed"] if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be non-negative")

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    try:
        binary = build(os.path.abspath(build_dir))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 2

    command = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    expected = None if args.smoke else golden["digests"].get(args.workload, {}).get(str(seed))
    if expected is not None:
        command += ["--expect-digest", expected]
    if args.smoke:
        command.append("--smoke")

    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired as e:
        if e.stdout:
            sys.stdout.write(e.stdout if isinstance(e.stdout, str) else e.stdout.decode())
        log(f"wlbench did not finish within {RUN_TIMEOUT_S} s")
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError(f"unexpected keys {sorted(result)}")
    except (IndexError, ValueError) as e:
        log(f"wlbench printed no result line: {e}")
        return proc.returncode or 4
    if proc.returncode != 0 or not result["correct"]:
        log(f"correctness gate failed (exit {proc.returncode})")
        return proc.returncode or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
