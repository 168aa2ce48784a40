#!/usr/bin/env bash
# Coverage ratchet: compare total `go test` statement coverage against
# the committed baseline and fail when it drops more than MAX_DROP
# percentage points. The baseline only moves forward: run with
# `--update` after genuinely raising coverage to record the new floor.
#
#   ci/coverage_ratchet.sh            # gate (CI)
#   ci/coverage_ratchet.sh --update   # re-record ci/coverage_baseline.txt
#
# The gate runs `go test -short` so timing-sensitive measurements (e.g.
# the observability overhead scenario in internal/perf) are skipped and
# the number is stable across runners; the baseline is recorded under
# the same flags.
set -euo pipefail

cd "$(dirname "$0")/.."
BASELINE=ci/coverage_baseline.txt
MAX_DROP=1.0

profile=$(mktemp)
log=$(mktemp)
trap 'rm -f "$profile" "$log"' EXIT
if ! go test -short -count=1 -coverprofile="$profile" ./... 2>&1 | tee "$log"; then
    echo "coverage_ratchet: FAIL — go test failed:" >&2
    grep -E '^[[:space:]]*(--- FAIL|FAIL|panic:)' "$log" >&2 || true
    exit 1
fi

total=$(go tool cover -func="$profile" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
if [ -z "$total" ]; then
    echo "coverage_ratchet: could not compute total coverage" >&2
    exit 1
fi

if [ "${1:-}" = "--update" ]; then
    printf '%s\n' "$total" > "$BASELINE"
    echo "coverage_ratchet: baseline updated to ${total}%"
    exit 0
fi

baseline=$(cat "$BASELINE")
ok=$(awk -v t="$total" -v b="$baseline" -v d="$MAX_DROP" 'BEGIN { print (t >= b - d) ? 1 : 0 }')
echo "coverage_ratchet: total ${total}% (baseline ${baseline}%, allowed drop ${MAX_DROP} points)"
if [ "$ok" != 1 ]; then
    echo "coverage_ratchet: FAIL — coverage fell more than ${MAX_DROP} points below the baseline" >&2
    echo "coverage_ratchet: add tests, or if the drop is justified re-record with: ci/coverage_ratchet.sh --update" >&2
    exit 1
fi
