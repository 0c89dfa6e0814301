#!/usr/bin/env bash
# Full pre-merge check: build the default and asan presets, run the test
# suite under both. Usage: scripts/check.sh [--fast]  (--fast skips asan).
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
  case "$arg" in
    --fast) fast=1 ;;
    *) echo "usage: $0 [--fast]" >&2; exit 2 ;;
  esac
done

jobs=$(nproc 2>/dev/null || echo 4)

run() {
  local preset=$1
  echo "==> configure ($preset)"
  cmake --preset "$preset" >/dev/null
  echo "==> build ($preset)"
  cmake --build --preset "$preset" -j "$jobs"
  echo "==> test ($preset)"
  ctest --preset "$preset" -j "$jobs"
}

run default
if [[ $fast -eq 0 ]]; then
  run asan
  # The fault surface (injection, retry, scrub, quarantine) gets an extra
  # dedicated pass under the sanitizers: memory bugs love error paths.
  echo "==> fault-label tests (asan)"
  ctest --preset asan -L fault -j "$jobs"
  # The observability surface (spans, sampler, exporters) likewise: the
  # tracer's unwind and ring-eviction paths are where lifetime bugs hide.
  echo "==> observability-label tests (asan)"
  ctest --preset asan -L observability -j "$jobs"
fi

# Bench smoke: the cheapest bench (raw device rates, ~1 s) runs end to end
# and its headline values must match the committed baseline bit-for-bit —
# observation code must never perturb the simulation. Table 3 rides along
# because it also covers the async read pipeline's batched-fault scenario
# (and, flag off, proves the pipeline plumbing changed no legacy numbers).
echo "==> bench smoke (table5 + table3 vs baselines)"
smoke_dir=$(mktemp -d)
trap 'rm -rf "$smoke_dir"' EXIT
cmake --build --preset default --target table5_raw_devices \
  table3_access_delays -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/table5_raw_devices >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_table5_raw_devices.json \
  bench/baselines/table5_raw_devices.json
(cd "$smoke_dir" && "$OLDPWD"/build/bench/table3_access_delays >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_table3_access_delays.json \
  bench/baselines/table3_access_delays.json

# Engine-ops gate: the TsegTable bookkeeping indices must agree with their
# linear-scan references, Store() must coalesce, and the migration-pass
# loop must hold its >= 5x wall-clock speedup floor over the pre-index
# implementation (see bench/engine_ops.cc).
echo "==> engine-ops gate (deterministic smoke vs baseline)"
cmake --build --preset default --target engine_ops -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/engine_ops --smoke)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_engine_ops.json \
  bench/baselines/engine_ops.json

# Federation gate: the central stager drives 4 shards through the
# FetchBackend seam under a seeded Zipf/diurnal population; the smoke
# population's headline values (tail delays, throughput, fair-share
# counters) must match the committed baseline bit-for-bit. The run must
# also sustain the committed sim-ops/sec wall-clock floor, so an engine
# slowdown cannot hide behind bit-identical simulated output.
echo "==> federation gate (stager smoke vs baseline + ops floor)"
cmake --build --preset default --target federation_scale -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/federation_scale --smoke >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_federation_scale_smoke.json \
  bench/baselines/federation_scale_smoke.json
python3 scripts/check_floor.py "$smoke_dir"/BENCH_federation_scale_smoke.json \
  bench/baselines/federation_scale_opsfloor.txt

# Site-disaster gate: kill one of two replicated sites mid-workload, fail
# demand over to the survivor, rebuild the dead site from its peer via
# anti-entropy. The smoke drill's recovery time, re-shipped byte count and
# zero-data-loss gates are fully deterministic and must match the baseline
# bit-for-bit. The drill must also hold its committed sim-ops/sec floor.
echo "==> site disaster gate (drill smoke vs baseline + ops floor)"
cmake --build --preset default --target site_disaster -j "$jobs" >/dev/null
(cd "$smoke_dir" && "$OLDPWD"/build/bench/site_disaster --smoke >/dev/null)
python3 scripts/bench_diff.py "$smoke_dir"/BENCH_site_disaster_smoke.json \
  bench/baselines/site_disaster_smoke.json
python3 scripts/check_floor.py "$smoke_dir"/BENCH_site_disaster_smoke.json \
  bench/baselines/site_disaster_opsfloor.txt
echo "All checks passed."
