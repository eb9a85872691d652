#!/usr/bin/env bash
# Snapshots one profiling run into the repo root as BENCH_<n>.json, where
# <n> is one past the highest existing snapshot — a dated trail of run
# reports (histograms and hot-spot attribution included) that
# spike-profile --diff can compare pairwise or against
# bench/BENCH_baseline.json.
#
# The run mirrors the checked-in baseline's recipe (go profile, scale
# 0.2, --jobs 4) unless overridden, so snapshots diff cleanly against it.
#
# Usage: scripts/bench-report.sh <tools-dir> [benchmark] [scale] [jobs]

set -eu

TOOLS="${1:?usage: bench-report.sh <tools-dir> [benchmark] [scale] [jobs]}"
BENCHMARK="${2:-go}"
SCALE="${3:-0.2}"
JOBS="${4:-4}"

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

next=1
for existing in "$REPO_ROOT"/BENCH_[0-9]*.json; do
  [[ -e "$existing" ]] || continue
  n="$(basename "$existing" .json)"
  n="${n#BENCH_}"
  [[ "$n" =~ ^[0-9]+$ ]] && ((n >= next)) && next=$((n + 1))
done
OUT="$REPO_ROOT/BENCH_$next.json"

"$TOOLS/spike-gen" --benchmark "$BENCHMARK" --scale "$SCALE" \
  -o "$SCRATCH/bench.spkx"
"$TOOLS/spike-analyze" "$SCRATCH/bench.spkx" --jobs="$JOBS" \
  --metrics="$OUT" >/dev/null

echo "snapshot: $OUT ($BENCHMARK, scale $SCALE, jobs $JOBS)"
"$TOOLS/spike-profile" "$OUT" --topk 5

if [[ -f "$REPO_ROOT/bench/BENCH_baseline.json" ]]; then
  echo
  echo "== diff vs bench/BENCH_baseline.json (warn-only) =="
  "$TOOLS/spike-profile" --diff "$REPO_ROOT/bench/BENCH_baseline.json" \
    "$OUT" --warn-only
fi
