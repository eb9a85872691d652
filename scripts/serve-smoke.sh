#!/usr/bin/env bash
# Scripted spike-serve session over the go paper profile: load once,
# query, patch a routine in place, and re-query — the whole demand-driven
# loop one client would drive, pipelined over stdin.  The patched
# routine's live-at-entry witness is asked for before and after the
# patch, so the witness search also runs on an incrementally re-solved
# graph.  A slice before and after the patch derives slot facts and the
# dependence graph twice: the patch drops both, and the second slice
# builds them again on the re-solved server.  A note-level lint runs
# before a warning-level one: the severity floor only chooses which rules
# run, so the warning reply must carry the note reply's errors and
# warnings and nothing else, and the RunReport's phases (each query's
# spans join it) show both lints but only one dead-def check.  CI runs
# this under ASan/UBSan and uploads the RunReport (the serve.* counters)
# as an artifact.
#
# The patch is the routine's own code with the second and third
# instructions swapped: a real change that keeps the routine partition,
# so the server must take the incremental path ("full":false) and only
# the routine's SCC group plus dependents may re-solve.  The patch
# rebuilds its routine in place: the RunReport must show the patch's
# per-routine spans (reanalyze/patch.validate, patch.cfg, patch.psg),
# the fresh build's regions under them (patch.cfg/cfg.routines,
# patch.psg/psg.routines), and no whole-program CFG or PSG build under
# reanalyze.
#
# Observability rides along: the session runs with --access-log and
# --slow-ms=0, asserts one well-formed JSONL record per request, scrapes
# the `metrics` exposition out of the reply stream, and validates both
# with spike-top --validate (the CI exposition checker).
#
# Usage: scripts/serve-smoke.sh <tools-dir> [report.json] [access.log]

set -eu

TOOLS="${1:?usage: serve-smoke.sh <tools-dir> [report.json] [access.log]}"
REPORT="${2:-serve-run.json}"
ACCESS="${3:-serve-access.log}"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

"$TOOLS/spike-gen" --benchmark go --scale 0.2 -o "$SCRATCH/go.spkx"

# First routine with at least 4 instructions, so the word swap below has
# room to work with (labels are "name:" or "name (address taken):").
ROUTINE="" CODE=""
for R in $("$TOOLS/spike-objdump" "$SCRATCH/go.spkx" \
    | awk '/^[A-Za-z_][A-Za-z0-9_]*( \(address taken\))?:$/ { sub(":", "", $1); print $1 }' \
    | head -10); do
  CODE=$("$TOOLS/spike-objdump" "$SCRATCH/go.spkx" --routine "$R" --words)
  if [ "$(printf '%s' "$CODE" | awk -F',' '{ print NF }')" -ge 4 ]; then
    ROUTINE=$R
    break
  fi
done
test -n "$ROUTINE" || { echo "serve-smoke: no patchable routine found" >&2; exit 1; }
PATCHED=$(printf '%s' "$CODE" \
  | awk -F',' 'BEGIN { OFS="," } { t = $2; $2 = $3; $3 = t; print }')
test "$PATCHED" != "$CODE" || { echo "serve-smoke: patch is a no-op" >&2; exit 1; }

{
  echo 'analyze'
  echo 'lint'
  echo 'lint {"min-severity":"warning"}'
  echo 'slice {"addr":5}'
  echo 'explain {"fact":"dead","addr":5}'
  printf 'explain {"fact":"live","loc":"ra@entry:%s"}\n' "$ROUTINE"
  printf 'patch-routine {"routine":"%s","code":%s}\n' "$ROUTINE" "$PATCHED"
  printf 'explain {"fact":"live","loc":"ra@entry:%s"}\n' "$ROUTINE"
  echo 'analyze'
  printf 'analyze {"routine":"%s"}\n' "$ROUTINE"
  echo 'slice {"addr":5}'
  echo 'stats'
  echo 'this is not a command'
  echo 'metrics {}'
  echo 'shutdown'
} > "$SCRATCH/session.txt"

"$TOOLS/spike-serve" "$SCRATCH/go.spkx" --jobs=4 --metrics="$REPORT" \
  --access-log="$ACCESS" --slow-ms=0 \
  < "$SCRATCH/session.txt" > "$SCRATCH/replies.txt"

echo "--- session replies ---"
cut -c1-200 "$SCRATCH/replies.txt"

FAIL=0
LINES=$(wc -l < "$SCRATCH/session.txt")
REPLIES=$(wc -l < "$SCRATCH/replies.txt")
if [ "$REPLIES" -ne "$LINES" ]; then
  echo "serve-smoke: $LINES commands but $REPLIES replies" >&2; FAIL=1
fi
if grep -vq '"ok":' "$SCRATCH/replies.txt"; then
  echo "serve-smoke: reply without an ok field" >&2; FAIL=1
fi
ERRORS=$(grep -c '"ok":false' "$SCRATCH/replies.txt" || true)
if [ "$ERRORS" -ne 1 ]; then
  echo "serve-smoke: expected exactly 1 error reply (the garbage line), got $ERRORS" >&2
  FAIL=1
fi
if ! grep -q '"cmd":"patch-routine".*"ok":true.*"full":false' "$SCRATCH/replies.txt"; then
  echo "serve-smoke: patch did not take the incremental path" >&2; FAIL=1
fi
# The witness search answers on the loaded graph and again on the
# incrementally re-solved one.
LIVE=$(grep -c '"cmd":"explain".*"ok":true.*"holds":true.*"witness":"witness: ' \
  "$SCRATCH/replies.txt" || true)
if [ "$LIVE" -ne 2 ]; then
  echo "serve-smoke: expected 2 live witnesses around the patch, got $LIVE" >&2
  FAIL=1
fi
if ! grep -q '"cmd":"stats".*"patches":1' "$SCRATCH/replies.txt"; then
  echo "serve-smoke: stats does not report the patch" >&2; FAIL=1
fi
# The slice after the patch answers, and it rebuilt the dependence graph.
POST_SLICE=$(grep -n '^slice' "$SCRATCH/session.txt" | tail -1 | cut -d: -f1)
if ! sed -n "${POST_SLICE}p" "$SCRATCH/replies.txt" \
    | grep -q '"cmd":"slice".*"ok":true'; then
  echo "serve-smoke: slice after the patch failed" >&2; FAIL=1
fi
if ! grep -q '"cmd":"stats".*"depgraph_builds":2' "$SCRATCH/replies.txt"; then
  echo "serve-smoke: the slice after the patch did not rebuild" >&2; FAIL=1
fi
# The warning-level lint reports exactly the note-level lint's errors and
# warnings.
reply_field() {
  sed -n "$1p" "$SCRATCH/replies.txt" | grep -o "\"$2\":[0-9]*" | head -1 | cut -d: -f2
}
NOTE_LINT=$(grep -n '^lint$' "$SCRATCH/session.txt" | cut -d: -f1)
WARN_LINT=$(grep -n '^lint {"min-severity":"warning"}$' "$SCRATCH/session.txt" | cut -d: -f1)
NOTE_E=$(reply_field "$NOTE_LINT" errors) NOTE_W=$(reply_field "$NOTE_LINT" warnings)
WARN_E=$(reply_field "$WARN_LINT" errors) WARN_W=$(reply_field "$WARN_LINT" warnings)
WARN_C=$(reply_field "$WARN_LINT" count)
if [ -z "$NOTE_E" ] || [ -z "$WARN_C" ] || [ "$WARN_E" != "$NOTE_E" ] \
    || [ "$WARN_W" != "$NOTE_W" ] || [ "$WARN_C" -ne $((WARN_E + WARN_W)) ]; then
  echo "serve-smoke: warning-level lint (count ${WARN_C:-?}, ${WARN_E:-?} errors, ${WARN_W:-?} warnings) differs from the note-level lint (${NOTE_E:-?} errors, ${NOTE_W:-?} warnings)" >&2
  FAIL=1
fi
test -s "$REPORT" || { echo "serve-smoke: no run report at $REPORT" >&2; FAIL=1; }
# Both lints' spans reach the report; the warning-level one ran no
# note-level rule.
phase_count() {
  grep -o "{\"path\": \"$1\", [^}]*\"count\": [0-9]*}" "$REPORT" \
    | grep -o '"count": [0-9]*' | cut -d' ' -f2
}
if [ "$(phase_count lint)" != 2 ] || [ "$(phase_count lint/lint.control-flow)" != 2 ] \
    || [ "$(phase_count lint/lint.dead-def)" != 1 ]; then
  echo "serve-smoke: RunReport phases lint=$(phase_count lint) lint/lint.dead-def=$(phase_count lint/lint.dead-def), want 2 and 1" >&2
  FAIL=1
fi

# The patch rebuilt one routine in place, never the whole program, and
# through the same build regions a fresh build runs.
for P in reanalyze/patch.validate reanalyze/patch.cfg reanalyze/patch.psg \
    reanalyze/patch.cfg/cfg.routines reanalyze/patch.psg/psg.routines; do
  if [ "$(phase_count "$P")" != 1 ]; then
    echo "serve-smoke: RunReport phase $P count '$(phase_count "$P")', want 1" >&2
    FAIL=1
  fi
done
for P in reanalyze/cfg.build reanalyze/psg.build; do
  if [ -n "$(phase_count "$P")" ]; then
    echo "serve-smoke: the patch rebuilt the whole program ($P in the RunReport)" >&2
    FAIL=1
  fi
done

# Observability assertions: header + one JSONL record per request, the
# garbage line classified as a protocol error, and both surfaces pass
# the strict spike-top checkers.
ACCESS_LINES=$(wc -l < "$ACCESS")
if [ "$ACCESS_LINES" -ne $((LINES + 1)) ]; then
  echo "serve-smoke: access log has $ACCESS_LINES lines, want header + $LINES records" >&2
  FAIL=1
fi
head -1 "$ACCESS" | grep -q '"schema":"spike-serve-access-log"' \
  || { echo "serve-smoke: access log header missing schema id" >&2; FAIL=1; }
head -1 "$ACCESS" | grep -q '"build":{' \
  || { echo "serve-smoke: access log header missing build provenance" >&2; FAIL=1; }
grep -q '"command":"?".*"protocol_error":true' "$ACCESS" \
  || { echo "serve-smoke: garbage line not classified as protocol error" >&2; FAIL=1; }
grep -q '"command":"patch-routine".*"patch":{"full":false' "$ACCESS" \
  || { echo "serve-smoke: patch record missing dirty-frontier object" >&2; FAIL=1; }
"$TOOLS/spike-top" --validate < "$ACCESS" \
  || { echo "serve-smoke: access log failed spike-top --validate" >&2; FAIL=1; }
"$TOOLS/spike-top" --once --prom-out="$SCRATCH/scrape.prom" \
  < "$SCRATCH/replies.txt" > "$SCRATCH/top.txt" \
  || { echo "serve-smoke: spike-top could not render the reply stream" >&2; FAIL=1; }
"$TOOLS/spike-top" --validate < "$SCRATCH/scrape.prom" \
  || { echo "serve-smoke: metrics exposition failed spike-top --validate" >&2; FAIL=1; }
grep -q 'top commands by p99 latency' "$SCRATCH/top.txt" \
  || { echo "serve-smoke: spike-top table missing" >&2; FAIL=1; }
echo "--- spike-top --once ---"
cat "$SCRATCH/top.txt"

if [ "$FAIL" -ne 0 ]; then
  echo "serve-smoke: FAILED" >&2
  exit 1
fi
echo "serve-smoke: OK ($LINES commands, 1 expected error reply, report in $REPORT, access log in $ACCESS)"
