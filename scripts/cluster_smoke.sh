#!/bin/sh
# Cluster smoke test: boot the real mpss-front binary in exec mode (it
# spawns its own mpss-served children), drive it with mpss-loadgen,
# SIGKILL one replica mid-run, and assert the cluster absorbs all of it:
#
#   - the front reaches readiness with -min healthy replicas;
#   - the SLO verdict passes despite the mid-run replica kill (the ring
#     reroutes; clients never see the death);
#   - the solver-driven autoscaler scales the fleet up under load
#     (a scale event with to > from in /v1/cluster/status) and back
#     down to -min once the load stops;
#   - an unknown session gets the front's 404 "unknown_session";
#   - requests actually spread over multiple replicas (cache locality
#     is per-replica, so the proxied counter must show >= 2 members);
#   - SIGTERM drains the front to exit 0 and leaves no orphaned
#     replica processes behind.
#
# Run from the repository root (make cluster-smoke does).
set -u

GO=${GO:-go}
CURL=${CURL:-curl}
tmp=$(mktemp -d)
fail=0
front_pid=""

cleanup() {
    [ -n "$front_pid" ] && kill -KILL "$front_pid" 2>/dev/null
    # Children are SIGTERMed by the front's drain; sweep stragglers in
    # case the front itself was killed.
    pkill -KILL -f "$tmp/mpss-served" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

for tool in "$CURL" pgrep; do
    if ! command -v "$tool" >/dev/null 2>&1; then
        echo "cluster-smoke: skipped ($tool not available)" >&2
        exit 0
    fi
done

if ! $GO build -o "$tmp/mpss-served" ./cmd/mpss-served ||
    ! $GO build -o "$tmp/mpss-front" ./cmd/mpss-front ||
    ! $GO build -o "$tmp/mpss-loadgen" ./cmd/mpss-loadgen; then
    echo "cluster-smoke: build failed" >&2
    exit 1
fi

# Tiny target-util makes millisecond solves overload the planned
# capacity, so a short burst deterministically trips the scale-up; the
# short windows make scale-down visible within the smoke budget.
"$tmp/mpss-front" -addr 127.0.0.1:0 \
    -served-bin "$tmp/mpss-served" -served-flags "-workers 2 -cache 256" \
    -min 2 -max 3 \
    -probe-interval 150ms -scale-interval 400ms \
    -workers-per-replica 1 -target-util 0.01 -scale-down-after 2 \
    2>"$tmp/front.err" &
front_pid=$!

addr=""
i=0
while [ $i -lt 150 ]; do
    addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$tmp/front.err" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$front_pid" 2>/dev/null; then
        echo "cluster-smoke: front died before readiness:" >&2
        sed 's/^/    /' "$tmp/front.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "cluster-smoke: no readiness record within 15s" >&2
    exit 1
fi
base="http://$addr"

healthy_count() {
    $CURL -s "$base/v1/cluster/status" | grep -o '"state":"healthy"' | wc -l
}

if [ "$(healthy_count)" -lt 2 ]; then
    echo "cluster-smoke: front ready with fewer than 2 healthy replicas:" >&2
    $CURL -s "$base/v1/cluster/status" | sed 's/^/    /' >&2
    fail=1
fi

# An unknown session is the front's own 404, in the documented error
# kind.
status=$($CURL -s -o "$tmp/nosess.json" -w '%{http_code}' "$base/v1/session/nope")
if [ "$status" != 404 ] || ! grep -q '"kind":"unknown_session"' "$tmp/nosess.json"; then
    echo "cluster-smoke: GET /v1/session/nope: status $status, want 404 unknown_session:" >&2
    sed 's/^/    /' "$tmp/nosess.json" >&2
    fail=1
fi

# Open-loop burst through the front. Mostly unique instances so the
# fleet does real solve work (cache hits carry no autoscaler demand).
# The error budget is the hard assertion: a replica dies mid-run and
# no failure may reach a client.
"$tmp/mpss-loadgen" -url "$base" -duration 4s -rate 60 \
    -unique 0.9 -warm-pool 4 -jobs 12 \
    -slo-p99 5s -slo-error-rate 0 -o "$tmp/report.json" &
load_pid=$!

# Let load build, then SIGKILL one spawned replica mid-run: the probe
# loop must confirm the death, reap the child, and the autoscaler must
# respawn capacity — all while the ring routes around the corpse.
sleep 1.5
victim=$(pgrep -P "$front_pid" | head -n 1)
if [ -n "$victim" ]; then
    kill -KILL "$victim"
else
    echo "cluster-smoke: no replica child found to kill" >&2
    fail=1
fi

if ! wait "$load_pid"; then
    echo "cluster-smoke: loadgen SLO run failed:" >&2
    sed 's/^/    /' "$tmp/report.json" 2>/dev/null >&2
    fail=1
fi
if ! grep -q '"completed": *[1-9]' "$tmp/report.json"; then
    echo "cluster-smoke: no completed requests in report" >&2
    fail=1
fi

$CURL -s -o "$tmp/cluster.json" "$base/v1/cluster/status"

# The autoscaler must have scaled up under load: some event with
# to > from. With -min 2 -max 3 that is exactly 2 -> 3.
if ! grep -q '"from":2,"to":3' "$tmp/cluster.json"; then
    echo "cluster-smoke: no scale-up event in cluster status:" >&2
    sed 's/^/    /' "$tmp/cluster.json" >&2
    fail=1
fi

# Requests spread across replicas (per-replica cache locality depends
# on it): the front's proxied counter carries >= 2 replica labels.
$CURL -s -o "$tmp/front.prom" "$base/metrics"
spread=$(grep -c '^mpss_cluster_proxied_total{' "$tmp/front.prom")
if [ "$spread" -lt 2 ]; then
    echo "cluster-smoke: traffic reached only $spread replica(s), want >= 2" >&2
    fail=1
fi

# Quiet after the burst: demand deltas go to zero and the fleet must
# shrink back to -min within a few scale windows.
down=0
i=0
while [ $i -lt 100 ]; do
    if $CURL -s "$base/v1/cluster/status" | grep -q '"from":3,"to":2'; then
        down=1
        break
    fi
    sleep 0.2
    i=$((i + 1))
done
if [ "$down" -ne 1 ]; then
    echo "cluster-smoke: fleet never scaled back down to min:" >&2
    $CURL -s "$base/v1/cluster/status" | sed 's/^/    /' >&2
    fail=1
fi

# The killed child was reaped and replaced, so the fleet must again
# hold exactly -min healthy replicas once the scale-down lands.
i=0
while [ $i -lt 50 ]; do
    [ "$(healthy_count)" -eq 2 ] && break
    sleep 0.2
    i=$((i + 1))
done
if [ "$(healthy_count)" -ne 2 ]; then
    echo "cluster-smoke: healthy replicas after scale-down = $(healthy_count), want 2" >&2
    fail=1
fi

# Graceful drain: SIGTERM exits 0 and no replica child survives.
children=$(pgrep -P "$front_pid")
kill -TERM "$front_pid"
wait "$front_pid"
rc=$?
front_pid=""
if [ "$rc" -ne 0 ]; then
    echo "cluster-smoke: SIGTERM exit $rc, want 0:" >&2
    tail -n 20 "$tmp/front.err" | sed 's/^/    /' >&2
    fail=1
fi
for child in $children; do
    if kill -0 "$child" 2>/dev/null; then
        echo "cluster-smoke: replica pid $child orphaned after drain" >&2
        fail=1
    fi
done

if [ "$fail" -ne 0 ]; then
    echo "cluster-smoke: FAIL" >&2
    exit 1
fi
echo "cluster-smoke: ok"
