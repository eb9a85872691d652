#!/usr/bin/env bash
# Deterministic fault-injection sweep over the 20-subject paper corpus.
#
# For every (subject, schedule) pair the tools must end in one of the two
# contract outcomes:
#
#   exit 0                — fault absorbed: sound (possibly degraded) result,
#   exit 1 + "error: ["   — structured Status error with a coded reason.
#
# Anything else — a sanitizer abort, a signal, an unstructured stderr, a
# wedge — fails the sweep, and the offending schedule's transcript is left
# in $ARTIFACT_DIR for upload.  Schedules are fixed trigger counts, so a
# failure reproduces with the printed command line.
#
# A run whose fault never fired also exits 0, so every --inject-fault
# schedule must show that it fired somewhere: at least one of its runs
# takes the structured-error arm or prints a degrade "note:".
# A schedule that fired nowhere fails the sweep; the summary line gives
# each schedule's count of such runs.
#
# Usage: scripts/fault-smoke.sh <tools-dir> [artifact-dir]

set -u

TOOLS="${1:?usage: fault-smoke.sh <tools-dir> [artifact-dir]}"
ARTIFACT_DIR="${2:-fault-artifacts}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT
mkdir -p "$ARTIFACT_DIR"

# The deterministic schedule matrix: every fault seam plus the pure-budget
# degradation ladder.  deadline-skew needs a real deadline strictly below
# the +1h skew to trip; 1000000 ms can never expire on its own.
SCHEDULES=(
  "alloc@500"
  "alloc@20000"
  "task-throw@3"
  "deadline-skew@1 --deadline-ms 1000000"
  "cancel@2"
  "budget --max-iters 1"
  "budget --max-iters 1 --mem-budget-mb 1"
)

failures=0
checked=0
declare -A fired=() # --inject-fault schedule -> runs where it fired
fault_schedules=()  # The same schedules, in first-run order.

run_one() {
  local subject="$1" image="$2" tool="$3" schedule="$4"
  shift 4
  local flags=() fault=""
  if [[ "$schedule" == budget* ]]; then
    read -r -a flags <<<"${schedule#budget }"
  else
    read -r -a extra <<<"$schedule"
    flags=(--inject-fault "${extra[0]}" "${extra[@]:1}")
    fault="${extra[0]}"
    if [[ -z "${fired[$fault]+set}" ]]; then
      fired[$fault]=0
      fault_schedules+=("$fault")
    fi
  fi
  local log="$SCRATCH/run.log"
  "$TOOLS/$tool" "$image" "$@" "${flags[@]}" >"$log" 2>&1
  local rc=$?
  checked=$((checked + 1))
  if [[ $rc -eq 0 ]]; then
    if [[ -n "$fault" ]] && grep -q '^note: ' "$log"; then
      fired[$fault]=$((fired[$fault] + 1)) # Absorbed by degrading.
    fi
    return 0
  fi
  if [[ $rc -eq 1 ]] && grep -q '^error: \[' "$log"; then
    if [[ -n "$fault" ]]; then
      fired[$fault]=$((fired[$fault] + 1))
    fi
    return 0 # Structured failure: the other legal arm.
  fi
  failures=$((failures + 1))
  local slug
  slug="$(echo "$subject-$tool-$schedule" | tr ' @/' '---')"
  {
    echo "subject:  $subject"
    echo "command:  $tool $image $* ${flags[*]}"
    echo "exit:     $rc"
    echo "--- output ---"
    cat "$log"
  } >"$ARTIFACT_DIR/$slug.log"
  echo "FAIL [$rc] $subject: $tool ${flags[*]}" >&2
}

# 16 analysis-shaped paper profiles (scaled to keep the sweep fast) plus
# 4 runnable programs: the same 20 subjects the differential tests use.
subjects=()
for profile in $("$TOOLS/spike-gen" --list | tail -n +2 | awk '{print $1}'); do
  image="$SCRATCH/$profile.spkx"
  "$TOOLS/spike-gen" --benchmark "$profile" --scale 0.15 -o "$image" || exit 1
  subjects+=("$profile:$image")
done
for seed in 3 11 29 5; do
  image="$SCRATCH/exec-$seed.spkx"
  "$TOOLS/spike-gen" --exec --routines 24 --seed "$seed" -o "$image" || exit 1
  subjects+=("exec-$seed:$image")
done

for entry in "${subjects[@]}"; do
  subject="${entry%%:*}"
  image="${entry#*:}"
  for schedule in "${SCHEDULES[@]}"; do
    run_one "$subject" "$image" spike-analyze "$schedule" --jobs 4
  done
  # The optimizer's transactional retry ladder gets the budget schedules.
  run_one "$subject" "$image" spike-opt "budget --max-iters 1" \
    -o "$SCRATCH/opt.spkx" --jobs 4
  run_one "$subject" "$image" spike-opt "task-throw@5" \
    -o "$SCRATCH/opt.spkx" --jobs 4
done

fired_summary=""
for fault in "${fault_schedules[@]}"; do
  fired_summary+=" $fault=${fired[$fault]}"
  if [[ ${fired[$fault]} -eq 0 ]]; then
    failures=$((failures + 1))
    echo "FAIL $fault never fired: no run ended in a structured error" \
      "or a degrade note" >&2
  fi
done

echo "fault-smoke: $checked schedule(s) checked, $failures failure(s);" \
  "fired:$fired_summary"
exit $((failures > 0))
