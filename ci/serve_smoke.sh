#!/usr/bin/env bash
# Serve smoke test: boot soeserve, fire 50 concurrent submissions
# (25 sharing one spec + 25 distinct F levels), and verify
#
#   1. the dedup invariant — the shared spec simulates exactly once,
#      so runner.runs_started equals the number of DISTINCT specs and
#      serve.coalesced + cache hits account for every duplicate; once
#      nothing is pending, serve.queue.depth reads 0;
#   2. clean SIGTERM drain — jobs submitted right before the signal
#      all finish, the process logs a lossless drain and exits 0.
#
#   ci/serve_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR=127.0.0.1:18080
WORK=$(mktemp -d)
PID=""
cleanup() {
    [ -n "$PID" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/soeserve" ./cmd/soeserve
"$WORK/soeserve" -addr "$ADDR" -queue 128 -workers 4 >"$WORK/serve.log" 2>&1 &
PID=$!

curl -fsS --retry 25 --retry-connrefused --retry-delay 1 "http://$ADDR/healthz" >/dev/null

metric() {
    curl -fsS "http://$ADDR/metrics" | awk -v n="$1" '$1==n {print $2}'
}

post_run() {
    curl -fsS -X POST "http://$ADDR/v1/run" -d "$1" >/dev/null
}

# 25 identical submissions + 25 distinct F levels (i/53 never equals
# the shared 0.5, so the distinct-spec count is exactly 26). The burst
# runs in a subshell so its bare `wait` sees only the curls, not the
# backgrounded server.
(
    for i in $(seq 1 25); do
        post_run '{"pair":"gcc:eon","f":0.5,"scale":"tiny"}' &
    done
    for i in $(seq 1 25); do
        f=$(awk -v i="$i" 'BEGIN{printf "%.6f", i/53}')
        post_run "{\"pair\":\"gcc:eon\",\"f\":$f,\"scale\":\"tiny\"}" &
    done
    wait
)

for i in $(seq 1 240); do
    pending=$(metric serve.jobs.pending)
    [ "${pending:-1}" = "0" ] && break
    sleep 0.5
done
if [ "${pending:-1}" != "0" ]; then
    echo "serve_smoke: FAIL — jobs still pending after timeout" >&2
    exit 1
fi
# Every job has finished, so none can still be waiting for a slot.
depth=$(metric serve.queue.depth)
if [ "${depth:-1}" != "0" ]; then
    echo "serve_smoke: FAIL — serve.queue.depth=${depth:-missing} with no job pending" >&2
    exit 1
fi

runs=$(metric runner.runs_started)
failed=$(metric serve.jobs_failed)
coalesced=$(metric serve.coalesced)
mem=$(metric cache.mem_hits)
dedup=$(metric cache.dedup_hits)
disk=$(metric cache.disk_hits)
dups=$(( ${coalesced:-0} + ${mem:-0} + ${dedup:-0} + ${disk:-0} ))
echo "serve_smoke: runs_started=$runs failed=$failed coalesced=$coalesced mem=$mem dedup=$dedup disk=$disk"

if [ "${runs:-0}" != 26 ]; then
    echo "serve_smoke: FAIL — expected exactly 26 simulations for 26 distinct specs, got ${runs:-0}" >&2
    exit 1
fi
if [ "${failed:-0}" != 0 ]; then
    echo "serve_smoke: FAIL — ${failed} jobs failed" >&2
    exit 1
fi
if [ "$dups" != 24 ]; then
    echo "serve_smoke: FAIL — coalescer+cache absorbed $dups duplicates, expected 24" >&2
    exit 1
fi

# --- fast tier (DESIGN.md §12) -------------------------------------
# A burst of tier=fast submissions on a never-simulated pair must be
# answered synchronously from the calibrated model: analytical
# fidelity, sub-millisecond on average, and zero new engine runs.
runs_before=$(metric runner.runs_started)
for i in $(seq 1 20); do
    body=$(curl -fsS -X POST "http://$ADDR/v1/run" \
        -d '{"pair":"swim:mcf","f":0.5,"scale":"tiny","tier":"fast"}')
    if ! echo "$body" | grep -q '"fidelity": "analytical"'; then
        echo "serve_smoke: FAIL — fast answer lacks analytical fidelity: $body" >&2
        exit 1
    fi
done
runs_now=$(metric runner.runs_started)
if [ "${runs_now:-0}" != "${runs_before:-0}" ]; then
    echo "serve_smoke: FAIL — tier=fast started $((runs_now - runs_before)) simulations" >&2
    exit 1
fi
fast_answers=$(metric serve.fast.answers)
fast_us=$(metric serve.fast.latency_us_total)
avg_us=$(awk -v t="${fast_us:-0}" -v n="${fast_answers:-1}" 'BEGIN{printf "%.0f", t/n}')
echo "serve_smoke: fast answers=$fast_answers avg latency ${avg_us}us"
if [ "$avg_us" -ge 1000 ]; then
    echo "serve_smoke: FAIL — fast tier averaged ${avg_us}us per answer, want sub-millisecond" >&2
    exit 1
fi

# tier=auto refines in place: the 202 carries the analytical answer,
# the job flips to exact fidelity once the one (and only one) real
# simulation lands.
body=$(curl -fsS -X POST "http://$ADDR/v1/run" \
    -d '{"pair":"swim:mcf","f":1,"scale":"tiny","tier":"auto"}')
if ! echo "$body" | grep -q '"fidelity": "analytical"'; then
    echo "serve_smoke: FAIL — auto 202 lacks the analytical fast answer: $body" >&2
    exit 1
fi
job=$(echo "$body" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p')
for i in $(seq 1 240); do
    jb=$(curl -fsS "http://$ADDR/v1/jobs/$job")
    echo "$jb" | grep -q '"state": "done"' && break
    sleep 0.5
done
if ! echo "$jb" | grep -q '"fidelity": "exact"'; then
    echo "serve_smoke: FAIL — auto job $job never refined to exact fidelity: $jb" >&2
    exit 1
fi
runs_refined=$(metric runner.runs_started)
if [ "${runs_refined:-0}" != "$((runs_before + 1))" ]; then
    echo "serve_smoke: FAIL — auto refinement ran $((runs_refined - runs_before)) simulations, want 1" >&2
    exit 1
fi
echo "serve_smoke: fast tier OK (auto job $job refined analytical -> exact)"

# Submit fresh work and SIGTERM while it may still be in flight: the
# drain must finish every accepted job and report zero loss.
(
    for f in 0.111111 0.222222 0.333333 0.444444; do
        post_run "{\"pair\":\"swim:gzip\",\"f\":$f,\"scale\":\"tiny\"}" &
    done
    wait
)
kill -TERM "$PID"
rc=0
wait "$PID" || rc=$?
PID=""
if [ "$rc" != 0 ]; then
    echo "serve_smoke: FAIL — server exited $rc after SIGTERM" >&2
    cat "$WORK/serve.log" >&2
    exit 1
fi
if ! grep -q "drained cleanly, no accepted job lost" "$WORK/serve.log"; then
    echo "serve_smoke: FAIL — no clean-drain log line" >&2
    cat "$WORK/serve.log" >&2
    exit 1
fi
echo "serve_smoke: OK"
