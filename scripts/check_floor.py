#!/usr/bin/env python3
"""Check a bench run's wall-clock rate against a committed floor.

Usage: check_floor.py BENCH_JSON FLOOR_FILE

Reads info.sim_ops_per_sec from a BENCH_<name>.json and the first number in
FLOOR_FILE (bench/baselines/<name>_opsfloor.txt). The simulated values are
diffed bit-for-bit by bench_diff.py; this gate keeps an engine slowdown from
hiding behind them.

Exit status: 0 when the rate meets the floor, 1 when it does not, 2 on
usage/IO errors.
"""

import json
import sys


def main():
    if len(sys.argv) != 3:
        print("usage: check_floor.py BENCH_JSON FLOOR_FILE", file=sys.stderr)
        sys.exit(2)
    bench_path, floor_path = sys.argv[1], sys.argv[2]
    try:
        with open(bench_path) as f:
            doc = json.load(f)
        with open(floor_path) as f:
            floor = float(f.read().split()[0])
        rate = float(doc["info"]["sim_ops_per_sec"])
    except (OSError, ValueError, KeyError, IndexError) as e:
        print(f"check_floor: {e}", file=sys.stderr)
        sys.exit(2)
    name = doc.get("bench", bench_path)
    print(f"  {name}: {rate:.0f} sim-ops/s (committed floor: {floor:.0f})")
    sys.exit(0 if rate >= floor else 1)


if __name__ == "__main__":
    main()
