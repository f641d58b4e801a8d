#!/usr/bin/env python3
"""Build and run the FADEWICH end-to-end benchmark.

    python3 perfbench/run.py --workload office_live --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout.  The benchmark binary is configured and
built from source into .bench_build (or $CARGO_TARGET_DIR when set) on
first use; later runs only re-check the build.  The binary's output is
passed through, and its last line (one JSON object) is validated against
the metric lists in BENCHMARK.json before this script exits.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# The workloads pin their own pools; this bounds the process-wide pool
# the library reaches for (SVM training inside set-up and the shards).
THREADS = "2"


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def valid_result(line, trace):
    try:
        result = json.loads(line)
    except ValueError:
        log("last line of output is not JSON")
        return False
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        log("result keys differ from correct/attempted/failed/metrics")
        return False
    want = expected_metrics(trace)
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        log(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(want))}")
        return False
    return result["correct"] is True and result["attempted"] >= 1


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir)
    if not build(build_dir):
        return 1

    env = dict(os.environ, FADEWICH_THREADS=THREADS)
    cmd = [os.path.join(build_dir, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.rstrip("\n").split("\n")
    if done.returncode != 0 or not valid_result(lines[-1], args.trace):
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        log(f"benchmark failed (exit {done.returncode})")
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
