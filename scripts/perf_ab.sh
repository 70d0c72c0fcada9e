#!/usr/bin/env bash
# Same-host A/B of the benchmark: perfbench built from <base> against
# perfbench built from this checkout.
#
#   scripts/perf_ab.sh <base>
#
# Builds perfbench for <base> in a temporary git worktree (removed on exit)
# and for this checkout. Then runs BENCHMARK.json's command on every listed
# workload in 10 interleaved pairs, base first in odd pairs and this checkout
# first in even ones, each run measuring for BENCHMARK.json's run_seconds.
# scripts/perf_ab.jq compares the two sides, prints the host fingerprints
# and the pair table, and decides the exit status: 0 when the change is no
# slower than each metric's bound allows and reproduces the base's simulated
# output, 1 otherwise, 2 on bad usage.
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
  echo "usage: scripts/perf_ab.sh <base>" >&2
  exit 2
fi
base_rev=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "perf_ab: $1 is not a commit" >&2
  exit 2
}

change="$PWD"
tmp=$(mktemp -d)
base="$tmp/base"
cleanup() {
  git -C "$change" worktree remove --force "$base" 2> /dev/null || true
  rm -rf "$tmp"
  git -C "$change" worktree prune
}
trap cleanup EXIT
git worktree add --quiet --detach "$base" "$base_rev"

mapfile -t cmd < <(jq -r '.command[]' BENCHMARK.json)
mapfile -t workloads < <(jq -r '.workloads[].name' BENCHMARK.json)
seconds=$(jq -r '.run_seconds' BENCHMARK.json)

for dir in "$base" "$change"; do
  echo "perf_ab: building perfbench in $dir" >&2
  (cd "$dir" && cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml)
done

runs="$tmp/runs.jsonl"
# run <side> <dir> <workload> <pair>: one benchmark run, appended to $runs
# with its whole standard output. A run that crashes is kept too; the
# comparison fails it for its missing result line.
run() {
  echo "perf_ab: pair $4 $3 $1" >&2
  local out="$tmp/out.txt"
  (cd "$2" && "${cmd[@]}" --workload "$3" --seconds "$seconds") > "$out" || true
  jq -cn --arg workload "$3" --argjson pair "$4" --arg side "$1" --rawfile out "$out" \
    '{$workload, $pair, $side, $out}' >> "$runs"
}

for pair in $(seq 1 10); do
  for w in "${workloads[@]}"; do
    if [ $((pair % 2)) -eq 1 ]; then
      run base "$base" "$w" "$pair"
      run change "$change" "$w" "$pair"
    else
      run change "$change" "$w" "$pair"
      run base "$base" "$w" "$pair"
    fi
  done
done

echo "perf_ab: base $base_rev, change $(git rev-parse HEAD)$(git diff --quiet HEAD || echo ' plus uncommitted changes')"
jq -rn --slurpfile bench BENCHMARK.json -f scripts/perf_ab.jq "$runs"
