#!/bin/sh
# Streaming-trace smoke test: generate a 50k-job diurnal trace in the
# mpss-trace-v1 JSONL format, solve it streamed (components cut and
# dispatched as the reader crosses zero-active boundaries), and assert
#
#   - the summary accounts for every job and a healthy component count,
#   - the component counters (opt.components, opt.decompose_cuts,
#     opt.component_jobs_max) agree with the summary,
#   - 4 solver workers produce the byte-identical summary as 1 worker
#     (the component fan-out differential at the CLI level),
#   - the pipe form (mpss-gen trace | mpss-opt) streams end to end,
#   - the jobs of a 4096-job trace solved as one instance JSON (the
#     instance path, which splits the whole instance at the same
#     boundaries) agree with the streamed solve on jobs, phases and
#     rounds, and on energy to within 1e-12 relative.
#
# Run from the repository root (make trace-smoke does).
set -u

GO=${GO:-go}
N=${TRACE_SMOKE_JOBS:-50000}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

for b in mpss-gen mpss-opt; do
    if ! $GO build -o "$tmp/$b" "./cmd/$b"; then
        echo "trace-smoke: building $b failed" >&2
        exit 1
    fi
done

if ! "$tmp/mpss-gen" trace -n "$N" -m 8 -seed 42 -o "$tmp/trace.jsonl"; then
    echo "trace-smoke: trace generation failed" >&2
    exit 1
fi
lines=$(wc -l < "$tmp/trace.jsonl")
if [ "$lines" -ne $((N + 1)) ]; then
    echo "trace-smoke: trace has $lines lines, want $((N + 1)) (header + $N jobs)" >&2
    fail=1
fi

# Streamed solve, 1 worker, with counters.
if ! "$tmp/mpss-opt" -in "$tmp/trace.jsonl" \
    -summary-json "$tmp/sum1.json" -metrics "$tmp/metrics.json" > "$tmp/out1"; then
    echo "trace-smoke: streamed solve failed" >&2
    exit 1
fi

field() { jq -r "$2" "$1"; }

jobs=$(field "$tmp/sum1.json" .jobs)
components=$(field "$tmp/sum1.json" .components)
largest=$(field "$tmp/sum1.json" .max_component_jobs)
energy=$(field "$tmp/sum1.json" .energy)

[ "$jobs" = "$N" ] || { echo "trace-smoke: summary jobs $jobs != $N" >&2; fail=1; }
# The diurnal generator emits one separable wave per ~64 jobs; demand at
# least half that many components so a cut-condition regression (e.g.
# everything landing in one component) fails loudly.
if [ "$components" -lt $((N / 128)) ]; then
    echo "trace-smoke: only $components components for $N jobs" >&2
    fail=1
fi
if [ "$largest" -ge "$N" ]; then
    echo "trace-smoke: largest component $largest means no cut happened" >&2
    fail=1
fi
case $energy in
    0 | 0.0 | -* | null) echo "trace-smoke: bad energy $energy" >&2; fail=1 ;;
esac

# Counters must agree with the summary.
for pair in "opt.components $components" "opt.decompose_cuts $((components - 1))" "opt.component_jobs_max $largest"; do
    key=${pair% *} want=${pair#* }
    got=$(jq -r ".counters[\"$key\"] // 0" "$tmp/metrics.json")
    if [ "$got" != "$want" ]; then
        echo "trace-smoke: counter $key = $got, want $want" >&2
        fail=1
    fi
done

# Worker-count differential: 4 workers must reproduce the 1-worker
# summary exactly (energy is summed in component order either way).
"$tmp/mpss-opt" -in "$tmp/trace.jsonl" -parallel 4 -summary-json "$tmp/sum4.json" > "$tmp/out4" || {
    echo "trace-smoke: 4-worker solve failed" >&2
    exit 1
}
for key in .jobs .m .components .max_component_jobs .phases .rounds .energy; do
    a=$(field "$tmp/sum1.json" $key)
    b=$(field "$tmp/sum4.json" $key)
    if [ "$a" != "$b" ]; then
        echo "trace-smoke: $key diverged across worker counts: $a vs $b" >&2
        fail=1
    fi
done

# Pipe form: generator straight into the solver, no file in between.
if ! "$tmp/mpss-gen" trace -n 2000 -m 4 -seed 7 | "$tmp/mpss-opt" -summary-json "$tmp/pipe.json" > /dev/null; then
    echo "trace-smoke: pipe form failed" >&2
    fail=1
elif [ "$(field "$tmp/pipe.json" .jobs)" != "2000" ]; then
    echo "trace-smoke: pipe form solved $(field "$tmp/pipe.json" .jobs) jobs, want 2000" >&2
    fail=1
fi

# Monolithic leg: the same jobs as one instance JSON, solved whole.
NM=4096
if ! "$tmp/mpss-gen" trace -n "$NM" -m 8 -seed 42 -o "$tmp/mono.jsonl"; then
    echo "trace-smoke: monolithic-leg trace generation failed" >&2
    exit 1
fi
if ! jq -s '{m: .[0].m, jobs: .[1:]}' "$tmp/mono.jsonl" > "$tmp/mono.json"; then
    echo "trace-smoke: converting the trace to instance JSON failed" >&2
    exit 1
fi
if ! "$tmp/mpss-opt" -in "$tmp/mono.jsonl" -summary-json "$tmp/mono_stream.json" > /dev/null ||
    ! "$tmp/mpss-opt" -in "$tmp/mono.json" -summary-json "$tmp/mono_whole.json" > /dev/null; then
    echo "trace-smoke: monolithic-leg solve failed" >&2
    fail=1
else
    for key in .jobs .phases .rounds; do
        a=$(field "$tmp/mono_stream.json" $key)
        b=$(field "$tmp/mono_whole.json" $key)
        if [ "$a" != "$b" ]; then
            echo "trace-smoke: $key diverged between the streamed and the one-instance solve: $a vs $b" >&2
            fail=1
        fi
    done
    a=$(field "$tmp/mono_stream.json" .energy)
    b=$(field "$tmp/mono_whole.json" .energy)
    if ! awk -v a="$a" -v b="$b" 'BEGIN { d = a - b; if (d < 0) d = -d; exit !(d <= 1e-12 * b) }'; then
        echo "trace-smoke: energy diverged between the streamed and the one-instance solve: $a vs $b" >&2
        fail=1
    fi
fi

if [ "$fail" -ne 0 ]; then
    echo "trace-smoke: FAILED" >&2
    exit 1
fi
echo "trace-smoke: OK ($N jobs, $components components, largest $largest, energy $energy; $NM-job one-instance leg agrees)"
