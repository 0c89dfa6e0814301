#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The perfbench binary (perfbench/src) is configured
and built with CMake into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); later runs rebuild incrementally. The binary's
artifacts (metrics snapshot, merged timeline, benchmark spans, full result)
go to the same build tree, under artifacts/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end_to_end metrics of BENCHMARK.json, with --trace 1 its per_layer metrics,
each with the unit given there. The exit code is nonzero when the build
fails, the binary fails, a metric is missing, or an output check fails.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            configure = subprocess.run(
                ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=log, stderr=subprocess.STDOUT)
            if configure.returncode != 0:
                fail(f"configure failed, see {log_path}")
        jobs = str(min(4, os.cpu_count() or 1))
        compile_ = subprocess.run(
            ["cmake", "--build", build_dir, "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT)
        if compile_.returncode != 0:
            fail(f"build failed, see {log_path}")
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="small inputs (self-test)")
    args = parser.parse_args()

    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("library sources (src/) not found next to perfbench/")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    binary = build(build_dir)
    artifacts = os.path.join(build_dir, "artifacts")
    os.makedirs(artifacts, exist_ok=True)

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", artifacts]
    if args.small:
        command.append("--small")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench did not finish within {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench printed no result (exit code {proc.returncode})")
    try:
        raw = json.loads(lines[-1])
    except ValueError:
        fail("perfbench's last line is not JSON")
    with open(os.path.join(artifacts, f"{args.workload}.result.json"),
              "w") as f:
        json.dump(raw, f, indent=1, sort_keys=True)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None or not math.isfinite(value):
            fail(f"metric {m['name']} missing from perfbench's output")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": bool(raw["correct"]),
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(result))
    if not result["correct"] or proc.returncode != 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
