#!/usr/bin/env bash
# Perf-smoke gate: run `repro --selftest-perf` and compare the end-to-end
# simulation throughput — plus the L2-TLB probe and walk-scheduler rates,
# measured through the scalar entry points the simulator calls — against
# the checked-in BENCH_parallel.json baseline. The threshold is generous —
# each gated number must stay above 70% of its baseline — because CI
# runners are noisy and heterogeneous; the gate exists to catch real
# regressions (an accidental O(n^2), a lost fast path), not single-digit
# drift.
#
# `repro --selftest-perf` writes BENCH_parallel.json into its working
# directory, so the selftest runs in a scratch dir and the checked-in
# baseline stays untouched. Environment knobs:
#   PERF_GATE_OUT   keep the fresh report here (CI uploads it as an artifact)
#   PERF_GATE_JOBS  worker count for the parallel-scaling section (default 2)
set -euo pipefail
cd "$(dirname "$0")/.."

# First numeric value of a top-level or nested "key": N in a JSON report.
field() { grep -o "\"$2\": [0-9.]*" "$1" | head -1 | awk '{print $2}'; }

repro="$PWD/target/release/repro"
if [ ! -x "$repro" ]; then
  echo "perf gate: target/release/repro missing — run cargo build --release first" >&2
  exit 1
fi

out="${PERF_GATE_OUT:-$(mktemp -d)}"
mkdir -p "$out"
(cd "$out" && "$repro" --selftest-perf --jobs "${PERF_GATE_JOBS:-2}" > selftest.stdout)

host=$(field "$out/BENCH_parallel.json" host_parallelism)
echo "perf gate: host_parallelism $host"

fail=0
# gate <metric-key> <label>: compare fresh vs checked-in, floor 70%.
gate() {
  local key="$1" label="$2" base cur
  base=$(field BENCH_parallel.json "$key")
  cur=$(field "$out/BENCH_parallel.json" "$key")
  if [ -z "$base" ] || [ -z "$cur" ]; then
    echo "perf gate: FAIL - $label ($key) missing from baseline or fresh report"
    fail=1
    return
  fi
  awk -v b="$base" -v c="$cur" -v l="$label" 'BEGIN {
    ratio = c / b
    if (ratio < 0.70) {
      printf "perf gate: FAIL - %s: %.0f/s is %.0f%% of the %.0f/s baseline (floor 70%%)\n", l, c, ratio * 100, b
      exit 1
    }
    printf "perf gate: OK - %s: %.2fx of the checked-in baseline (%.0f/s vs %.0f/s)\n", l, ratio, c, b
  }' || fail=1
}

gate events_per_sec "end-to-end simulation"
gate tlb_probe_ops_per_sec "L2 TLB probe"
gate walk_scheduler_ops_per_sec "walk scheduler"

if [ "$fail" -ne 0 ]; then
  echo "perf gate: FAIL"
  exit 1
fi
echo "perf gate: all gated metrics OK"
