#!/bin/sh
# Daemon smoke test: build mpss-served, boot it on an ephemeral port,
# exercise a solve (twice, so the second hits the result cache), the
# error mapping, /v1/metrics (no span trace), /v1/debug/traces (the
# solve's phase spans), /metrics (Prometheus, the queue-depth gauge
# among it), the liveness and readiness probes, then SIGTERM it and
# require a clean drain (exit 0).
# Complements the in-process httptest suite in internal/server by
# covering the real binary: flag parsing, the readiness record, signal
# handling and process exit codes.
#
# Run from the repository root (make serve-smoke does).
set -u

GO=${GO:-go}
CURL=${CURL:-curl}
tmp=$(mktemp -d)
fail=0
pid=""

cleanup() {
    [ -n "$pid" ] && kill "$pid" 2>/dev/null
    rm -rf "$tmp"
}
trap cleanup EXIT

if ! command -v "$CURL" >/dev/null 2>&1; then
    echo "serve-smoke: skipped ($CURL not available)" >&2
    exit 0
fi

if ! $GO build -o "$tmp/mpss-served" ./cmd/mpss-served; then
    echo "serve-smoke: build failed" >&2
    exit 1
fi

"$tmp/mpss-served" -addr 127.0.0.1:0 -workers 2 -cache 64 2>"$tmp/served.err" &
pid=$!

# The structured readiness record {"msg":"listening","addr":...} is the
# documented boot signal; wait for it and take the address from it.
addr=""
i=0
while [ $i -lt 100 ]; do
    addr=$(sed -n 's/.*"msg":"listening".*"addr":"\([^"]*\)".*/\1/p' "$tmp/served.err" | head -n 1)
    [ -n "$addr" ] && break
    if ! kill -0 "$pid" 2>/dev/null; then
        echo "serve-smoke: daemon died before readiness:" >&2
        sed 's/^/    /' "$tmp/served.err" >&2
        exit 1
    fi
    sleep 0.1
    i=$((i + 1))
done
if [ -z "$addr" ]; then
    echo "serve-smoke: no readiness record within 10s" >&2
    exit 1
fi
base="http://$addr"

# req NAME WANT_STATUS MATCH URL [BODY] — POSTs BODY (or GETs), checks
# the HTTP status and that the response body contains MATCH.
req() {
    name=$1 want=$2 match=$3 url=$4
    if [ $# -ge 5 ]; then
        status=$($CURL -s -o "$tmp/body" -w '%{http_code}' -d "$5" "$base$url")
    else
        status=$($CURL -s -o "$tmp/body" -w '%{http_code}' "$base$url")
    fi
    if [ "$status" != "$want" ]; then
        echo "serve-smoke: $name: status $status, want $want" >&2
        sed 's/^/    /' "$tmp/body" >&2
        fail=1
    fi
    if ! grep -q "$match" "$tmp/body"; then
        echo "serve-smoke: $name: body lacks \"$match\":" >&2
        sed 's/^/    /' "$tmp/body" >&2
        fail=1
    fi
}

inst='{"m":2,"jobs":[{"id":1,"release":0,"deadline":4,"work":8},{"id":2,"release":1,"deadline":5,"work":2}]}'

req "healthz" 200 '"ok"' /v1/healthz
req "readyz" 200 '"ready"' /v1/readyz
req "solve" 200 '"energy"' /v1/solve/optimal "$inst"
req "solve again" 200 '"energy"' /v1/solve/optimal "$inst"
req "oa" 200 '"bound"' /v1/solve/oa "$inst"
req "feasible" 200 '"feasible"' /v1/feasible '{"m":2,"jobs":[{"id":1,"release":0,"deadline":4,"work":8}],"cap":100}'
req "mincap" 200 '"cap"' /v1/mincap "$inst"
req "bad instance" 400 'invalid_instance' /v1/solve/optimal '{"m":0,"jobs":[{"id":1,"release":0,"deadline":1,"work":1}]}'
req "infeasible cap" 422 'infeasible' /v1/solve/atcap '{"m":2,"jobs":[{"id":1,"release":0,"deadline":4,"work":8}],"cap":0.1}'
req "metrics" 200 'server.cache_hits' /v1/metrics
if ! grep -q '"server.cache_hits": *[1-9]' "$tmp/body"; then
    echo "serve-smoke: repeated solve did not hit the cache:" >&2
    grep -o '"server\.[a-z_]*": *[0-9]*' "$tmp/body" | sed 's/^/    /' >&2
    fail=1
fi
# Spans live in the per-request flight trees, never in the metrics.
if grep -q '"trace":' "$tmp/body"; then
    echo "serve-smoke: /v1/metrics carries a span trace" >&2
    fail=1
fi
req "traces" 200 '"phase 1"' /v1/debug/traces

# Prometheus exposition: the scrape endpoint must serve the text format
# with the right media type and carry the per-endpoint request counters.
ctype=$($CURL -s -o "$tmp/prom" -w '%{content_type}' "$base/metrics")
case "$ctype" in
    text/plain*version=0.0.4*) ;;
    *)
        echo "serve-smoke: /metrics content type \"$ctype\", want text/plain; version=0.0.4" >&2
        fail=1
        ;;
esac
if ! grep -q '^mpss_server_http_requests_total{code="200",endpoint="optimal"}' "$tmp/prom"; then
    echo "serve-smoke: /metrics lacks the optimal endpoint request counter" >&2
    fail=1
fi
if ! grep -q '_bucket{.*le="+Inf"' "$tmp/prom"; then
    echo "serve-smoke: /metrics lacks histogram +Inf buckets" >&2
    fail=1
fi
# The queue-depth gauge is refreshed by every scrape, not only by
# GET /v1/status, which nothing above has called.
if ! grep -q '^mpss_server_queue_depth ' "$tmp/prom"; then
    echo "serve-smoke: /metrics lacks mpss_server_queue_depth before any /v1/status call" >&2
    fail=1
fi

# Every response carries a request ID; a caller-supplied one is echoed.
$CURL -s -o /dev/null -D "$tmp/hdrs" -H 'X-Request-ID: smoke-42' "$base/v1/healthz"
if ! grep -qi '^x-request-id: *smoke-42' "$tmp/hdrs"; then
    echo "serve-smoke: X-Request-ID not echoed:" >&2
    sed 's/^/    /' "$tmp/hdrs" >&2
    fail=1
fi

# Graceful drain: SIGTERM must exit 0 after reporting the drain.
kill -TERM "$pid"
wait "$pid"
rc=$?
pid=""
if [ "$rc" -ne 0 ]; then
    echo "serve-smoke: SIGTERM exit $rc, want 0:" >&2
    sed 's/^/    /' "$tmp/served.err" >&2
    fail=1
fi
if ! grep -q "drained" "$tmp/served.err"; then
    echo "serve-smoke: no drain confirmation on stderr" >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "serve-smoke: FAIL" >&2
    exit 1
fi
echo "serve-smoke: ok"
