#!/bin/sh
# Streaming-trace throughput benchmark: archives jobs/sec and peak RSS
# for the streamed trace solve at 100k and 1M jobs, plus the same 100k
# jobs solved as one instance JSON, into BENCH_trace.json.
#
# The one-instance baseline cannot be run to completion at 100k. The
# phase loop splits the whole instance at its time gaps on its first
# pop, so rounds stay below one per job, but the instance is decoded
# whole and every phase's Phase.Procs vector holds one entry per
# interval of the whole instance: memory grows as phases x intervals.
# A 16k-job diurnal instance needs several GB, so 100k would need tens
# of GB. The baseline is therefore bounded by BENCH_TRACE_OFF_TIMEOUT
# (default 300s) and by a fixed 2048 MB address-space cap (OFF_MEM_MB).
# When it stops at either bound after t seconds without finishing, its
# throughput is recorded as the UPPER BOUND jobs/t — every jobs/sec the
# one-instance solve could possibly have achieved is below it, so the
# reported speedup is a lower bound on the true speedup.
#
# Run from the repository root (make bench-trace does).
set -u

GO=${GO:-go}
N100K=${BENCH_TRACE_JOBS:-100000}
N1M=${BENCH_TRACE_JOBS_LARGE:-1000000}
OFF_TIMEOUT=${BENCH_TRACE_OFF_TIMEOUT:-300}
OFF_MEM_MB=2048
OUT=${BENCH_TRACE_OUT:-BENCH_trace.json}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

for b in mpss-gen mpss-opt; do
    $GO build -o "$tmp/$b" "./cmd/$b" || exit 1
done

echo "bench-trace: generating $N100K- and $N1M-job traces"
"$tmp/mpss-gen" trace -n "$N100K" -m 8 -seed 1 -o "$tmp/t100k.jsonl" || exit 1
"$tmp/mpss-gen" trace -n "$N1M" -m 8 -seed 1 -o "$tmp/t1m.jsonl" || exit 1
jq -s '{m: .[0].m, jobs: .[1:]}' "$tmp/t100k.jsonl" > "$tmp/t100k.json" || exit 1

echo "bench-trace: $N100K jobs, streamed"
"$tmp/mpss-opt" -in "$tmp/t100k.jsonl" -summary-json "$tmp/on100k.json" || exit 1

echo "bench-trace: $N100K jobs, one instance (timeout ${OFF_TIMEOUT}s, address space ${OFF_MEM_MB} MB)"
start=$(date +%s.%N)
(
    ulimit -v $((OFF_MEM_MB * 1024))
    exec timeout -k 10 "${OFF_TIMEOUT}s" \
        "$tmp/mpss-opt" -in "$tmp/t100k.json" -summary-json "$tmp/off100k.json"
) > /dev/null 2> "$tmp/off100k.err"
rc=$?
elapsed=$(awk "BEGIN { print $(date +%s.%N) - $start }")
if [ "$rc" -eq 0 ]; then
    off=$(jq '. + {timed_out: false}' "$tmp/off100k.json")
elif [ "$rc" -eq 124 ] || [ "$rc" -eq 137 ]; then
    echo "bench-trace: one-instance baseline timed out (expected); recording throughput upper bound"
    off=$(jq -n --argjson n "$N100K" --argjson t "$OFF_TIMEOUT" \
        '{jobs: $n, timed_out: true, timeout_sec: $t,
          jobs_per_sec: ($n / $t), jobs_per_sec_is_upper_bound: true}')
elif grep -q "out of memory" "$tmp/off100k.err"; then
    echo "bench-trace: one-instance baseline ran out of its ${OFF_MEM_MB} MB after ${elapsed}s (expected); recording throughput upper bound"
    off=$(jq -n --argjson n "$N100K" --argjson t "$elapsed" --argjson mb "$OFF_MEM_MB" \
        '{jobs: $n, timed_out: false, out_of_memory: true, mem_limit_mb: $mb,
          elapsed_sec: $t, jobs_per_sec: ($n / $t), jobs_per_sec_is_upper_bound: true}')
else
    cat "$tmp/off100k.err" >&2
    echo "bench-trace: one-instance baseline failed with exit $rc" >&2
    exit 1
fi

echo "bench-trace: $N1M jobs, streamed"
"$tmp/mpss-opt" -in "$tmp/t1m.jsonl" -summary-json "$tmp/on1m.json" || exit 1

on_jps=$(jq -r .jobs_per_sec "$tmp/on100k.json")
off_jps=$(printf '%s' "$off" | jq -r .jobs_per_sec)
speedup=$(awk "BEGIN { printf \"%.2f\", $on_jps / $off_jps }")

jq -n \
    --slurpfile on100k "$tmp/on100k.json" \
    --slurpfile on1m "$tmp/on1m.json" \
    --argjson off100k "$off" \
    --argjson speedup "$speedup" \
    '{
      note: "100k_one_instance is a bounded run: timed_out=true or out_of_memory=true means it stopped unfinished and jobs_per_sec is the upper bound jobs/seconds run, so speedup_100k is a lower bound",
      "100k_streamed": $on100k[0],
      "100k_one_instance": $off100k,
      "1m_streamed": $on1m[0],
      speedup_100k: $speedup
    }' > "$OUT" || exit 1

echo "bench-trace: wrote $OUT (100k streamed: $on_jps jobs/sec, one instance: $off_jps jobs/sec, speedup >= $speedup)"
