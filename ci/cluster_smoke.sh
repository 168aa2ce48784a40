#!/usr/bin/env bash
# Cluster smoke test: boot three soeserve nodes plus a soeproxy
# gateway, fire a 100-request burst (10 distinct specs x 10
# duplicates) through the proxy, and verify
#
#   1. the cluster-wide dedup invariant — routing by content-addressed
#      fingerprint means each distinct spec simulates exactly once
#      across the whole fleet (sum of runner.runs_started == 10);
#   2. the peer cache tier — a spec submitted directly to non-owner
#      nodes is served by verified peer fill, not re-simulation;
#   3. resilience — kill -9 one node mid-burst, re-burst, and the
#      survivors absorb its keys with zero responses outside
#      {2xx, 429} and the invariant intact (survivor runs == 10);
#   4. the fast tier through the gateway — after burst 1 and again
#      after the kill, ten distinct tier=fast specs each answer 200
#      and start no simulation anywhere in the fleet.
#
#   ci/cluster_smoke.sh
set -euo pipefail
cd "$(dirname "$0")/.."

N1=127.0.0.1:18081
N2=127.0.0.1:18082
N3=127.0.0.1:18083
PROXY=127.0.0.1:18090
WORK=$(mktemp -d)
PIDS=()
cleanup() {
    for p in "${PIDS[@]:-}"; do kill -9 "$p" 2>/dev/null || true; done
    rm -rf "$WORK"
}
trap cleanup EXIT

go build -o "$WORK/soeserve" ./cmd/soeserve
go build -o "$WORK/soeproxy" ./cmd/soeproxy

PEERS="http://$N1,http://$N2,http://$N3"
for i in 1 2 3; do
    addr_var="N$i"
    addr=${!addr_var}
    mkdir -p "$WORK/cache$i"
    "$WORK/soeserve" -addr "$addr" -node-name "n$i" \
        -self "http://$addr" -peers "$PEERS" \
        -cache-dir "$WORK/cache$i" -queue 256 -workers 4 \
        -probe-interval 500ms >"$WORK/n$i.log" 2>&1 &
    PIDS+=($!)
done
"$WORK/soeproxy" -addr "$PROXY" -nodes "$PEERS" \
    -probe-interval 500ms >"$WORK/proxy.log" 2>&1 &
PIDS+=($!)

for addr in "$N1" "$N2" "$N3" "$PROXY"; do
    curl -fsS --retry 25 --retry-connrefused --retry-delay 1 \
        "http://$addr/healthz" >/dev/null
done

metric() { # metric <addr> <name>
    curl -fsS "http://$1/metrics" | awk -v n="$2" '$1==n {print $2}'
}

sum_metric() { # sum_metric <name> <addr...>
    local name=$1 total=0 v
    shift
    for addr in "$@"; do
        v=$(metric "$addr" "$name")
        total=$((total + ${v:-0}))
    done
    echo "$total"
}

spec() { # spec <i> -> request body for distinct spec i of 10
    awk -v i="$1" 'BEGIN{printf "{\"pair\":\"gcc:eon\",\"f\":%.6f,\"scale\":\"tiny\"}", i/11}'
}

fast_spec() { # fast_spec <i> -> spec i at tier=fast
    awk -v i="$1" 'BEGIN{printf "{\"pair\":\"gcc:eon\",\"f\":%.6f,\"scale\":\"tiny\",\"tier\":\"fast\"}", i/11}'
}

# burst <tag>: 10 distinct specs x 10 duplicates, all concurrent,
# through the gateway. Each curl records its HTTP status to its own
# file so a dying backend mid-burst cannot corrupt the tally.
burst() {
    local tag=$1
    mkdir -p "$WORK/codes-$tag"
    (
        for i in $(seq 1 10); do
            body=$(spec "$i")
            for j in $(seq 1 10); do
                curl -s -o /dev/null -w '%{http_code}' -X POST \
                    "http://$PROXY/v1/run" -d "$body" \
                    >"$WORK/codes-$tag/$i-$j" &
            done
        done
        wait
    )
}

# check_codes <tag>: every recorded status must be 2xx or 429. The
# code files have no trailing newline, so read them one at a time.
check_codes() {
    local f code
    for f in "$WORK/codes-$1"/*; do
        code=$(cat "$f")
        case "$code" in
        2??|429) ;;
        *)
            echo "cluster_smoke: FAIL — burst $1 request ${f##*/} got HTTP ${code:-none}" >&2
            exit 1
            ;;
        esac
    done
}

# fast_phase <tag> <node addr...>: ten distinct tier=fast specs through
# the gateway, one at a time. The fast tier answers from the analytical
# model, so each must be 200 and the nodes' runs_started must not move.
fast_phase() {
    local tag=$1 i code before after
    shift
    before=$(sum_metric runner.runs_started "$@")
    for i in $(seq 1 10); do
        code=$(curl -s -o /dev/null -w '%{http_code}' -X POST \
            "http://$PROXY/v1/run" -d "$(fast_spec "$i")")
        if [ "$code" != 200 ]; then
            echo "cluster_smoke: FAIL — $tag: tier=fast spec $i got HTTP ${code:-none}, want 200" >&2
            exit 1
        fi
    done
    after=$(sum_metric runner.runs_started "$@")
    echo "cluster_smoke: $tag — 10 tier=fast answers, runs_started $before -> $after"
    if [ "$after" != "$before" ]; then
        echo "cluster_smoke: FAIL — tier=fast must not simulate (runs_started went $before -> $after)" >&2
        exit 1
    fi
}

wait_idle() { # wait_idle <addr...>
    local addr pending
    for i in $(seq 1 240); do
        pending=0
        for addr in "$@"; do
            p=$(metric "$addr" serve.jobs.pending)
            pending=$((pending + ${p:-1}))
        done
        [ "$pending" = 0 ] && return 0
        sleep 0.5
    done
    echo "cluster_smoke: FAIL — jobs still pending after timeout" >&2
    exit 1
}

# --- phase 1: dedup invariant across the fleet ----------------------
burst one
check_codes one
wait_idle "$N1" "$N2" "$N3"

runs=$(sum_metric runner.runs_started "$N1" "$N2" "$N3")
echo "cluster_smoke: burst 1 — fleet runs_started=$runs" \
    "(n1=$(metric "$N1" runner.runs_started)" \
    "n2=$(metric "$N2" runner.runs_started)" \
    "n3=$(metric "$N3" runner.runs_started))"
if [ "$runs" != 10 ]; then
    echo "cluster_smoke: FAIL — 10 distinct specs must simulate exactly 10 times fleet-wide, got $runs" >&2
    exit 1
fi
fast_phase "fast after burst 1" "$N1" "$N2" "$N3"

# --- phase 2: peer cache fill ---------------------------------------
# Submit one already-simulated spec DIRECTLY to every node. The owner
# answers from its local cache; the two non-owners must pull the
# sha256-verified entry from the owner instead of re-simulating.
for addr in "$N1" "$N2" "$N3"; do
    curl -fsS -X POST "http://$addr/v1/run" -d "$(spec 1)" >/dev/null
done
wait_idle "$N1" "$N2" "$N3"
fills=$(sum_metric cluster.peer_fill_hits "$N1" "$N2" "$N3")
runs=$(sum_metric runner.runs_started "$N1" "$N2" "$N3")
echo "cluster_smoke: peer fill — peer_fill_hits=$fills runs_started=$runs"
if [ "$fills" != 2 ]; then
    echo "cluster_smoke: FAIL — expected the 2 non-owner nodes to peer-fill, got $fills" >&2
    exit 1
fi
if [ "$runs" != 10 ]; then
    echo "cluster_smoke: FAIL — peer fill must not re-simulate (runs went 10 -> $runs)" >&2
    exit 1
fi

# --- phase 3: node death mid-burst ----------------------------------
# kill -9 node 2 while burst 2 is in flight; the gateway must retry
# its keys onto ring successors without surfacing anything beyond
# {2xx, 429}. Burst 3 then resubmits every spec after the death so
# each one provably lands on a survivor; since the survivors already
# cached their own keys in burst 1 and only re-run the dead node's,
# their combined runs_started ends at exactly 10.
burst two &
BURST_PID=$!
sleep 0.3
kill -9 "${PIDS[1]}" 2>/dev/null || true
wait "$BURST_PID"
check_codes two

burst three
check_codes three
wait_idle "$N1" "$N3"

runs=$(sum_metric runner.runs_started "$N1" "$N3")
echo "cluster_smoke: post-kill — survivor runs_started=$runs" \
    "(n1=$(metric "$N1" runner.runs_started)" \
    "n3=$(metric "$N3" runner.runs_started))"
if [ "$runs" != 10 ]; then
    echo "cluster_smoke: FAIL — survivors must absorb the dead node's keys exactly once (want 10, got $runs)" >&2
    exit 1
fi
# The dead node's fast keys must walk on to a survivor too.
fast_phase "fast after kill" "$N1" "$N3"

"$WORK/soeproxy" -status -addr "$PROXY" | tee "$WORK/status.json"
if ! grep -q '"proxy.retries"' "$WORK/status.json"; then
    echo "cluster_smoke: FAIL — /status missing proxy counters" >&2
    exit 1
fi
echo
echo "cluster_smoke: OK"
