#!/usr/bin/env python3
"""Self-test of the repository benchmark.

    python3 perfbench/selftest.py

Run from the root of a checkout. Runs every workload of BENCHMARK.json at
its small size through run.py, untraced and traced, each twice with the
same seed, and checks that:

  * every run exits 0 and reports correct: true with failed == 0;
  * every end-to-end (untraced) and per-layer (traced) metric is emitted
    with the unit BENCHMARK.json gives it;
  * the two same-seed runs give identical simulated values (every metric
    whose unit is simulated time: sim_*, recovery_sim_s, sim.elapsed_s,
    the sim-ms tails of the per-layer metrics);
  * the sampling profiler found the module code ranges it relies on.

Exits nonzero on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(SEED), "--seconds", "0",
               "--trace", str(trace), "--small"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"FAIL {workload} trace={trace}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    with open(os.path.join(target, "perfbench", "artifacts",
                           f"{workload}.result.json")) as f:
        raw = json.load(f)
    return result, raw


def simulated(metrics):
    """Metrics in simulated units: sim_*, recovery_sim_s, sim.elapsed_s..."""
    return {name: m["value"] for name, m in metrics.items()
            if "sim-" in m["unit"]}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            first, raw = run(workload, trace)
            second, _ = run(workload, trace)
            tag = f"{workload} trace={trace}"
            for r in (first, second):
                if not r["correct"] or r["failed"] != 0 or r["attempted"] < 1:
                    sys.exit(f"FAIL {tag}: correct={r['correct']} "
                             f"failed={r['failed']} attempted={r['attempted']}")
            for m in wanted:
                got = first["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    sys.exit(f"FAIL {tag}: metric {m['name']} missing or "
                             f"not in {m['unit']}: {got}")
            if simulated(first["metrics"]) != simulated(second["metrics"]):
                sys.exit(f"FAIL {tag}: same-seed runs differ in simulated "
                         f"values")
            if trace and raw["metrics"].get("host.profiler_ok") != 1:
                sys.exit(f"FAIL {tag}: profiler module ranges not usable")
            print(f"ok   {tag}: {len(wanted)} metrics, "
                  f"{first['attempted']} ops")
    print("selftest passed")


if __name__ == "__main__":
    main()
