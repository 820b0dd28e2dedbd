# Developer entry points. `make verify` is the tier-1 recipe CI and the
# ROADMAP reference: build + vet + full tests + race over the packages
# with real concurrency (the observability substrate, the worker pool
# and free lists under every server and trace worker, the server, the
# cluster front tier, the solver, and the streamed trace solve with its
# component fan-out).

GO ?= go

.PHONY: all build test vet race verify bench bench-smoke cli-smoke serve-smoke session-smoke loadgen-smoke cluster-smoke fuzz-smoke contract-smoke trace-smoke bench-trace apidoc clean

all: verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs internal/opt with -short: its differential sweeps take
# minutes at full size under the race detector, and `make test` runs
# them in full.
race:
	$(GO) test -race ./internal/obs/... ./internal/pool/... ./internal/server/... ./internal/cluster/...
	$(GO) test -race -short ./internal/opt/...
	$(GO) test -race -run 'SolveTraceStream' .

# cli-smoke exercises every CLI end to end and fails when any tool exits
# outside the documented {0,1,2} convention or prints a panic trace.
cli-smoke:
	sh scripts/cli_smoke.sh

# serve-smoke boots the real mpss-served binary, drives the JSON API
# (including the cache and the error mapping) and checks SIGTERM drains
# to a clean exit 0.
serve-smoke:
	sh scripts/serve_smoke.sh

# session-smoke drives the streaming-session protocol against the real
# binary: create, remove/add/cap deltas (each checked against a one-shot
# solve), long-poll, delete, TTL eviction, graceful drain.
session-smoke:
	sh scripts/session_smoke.sh

# loadgen-smoke runs mpss-loadgen against a live daemon for a short
# open-loop burst and asserts the SLO report (non-zero throughput, zero
# 5xx) plus a valid Prometheus scrape under load.
loadgen-smoke:
	sh scripts/loadgen_smoke.sh

# cluster-smoke boots the real mpss-front in exec mode (it spawns its
# own mpss-served children), runs loadgen through it, SIGKILLs a
# replica mid-run, and asserts zero client-visible errors plus an
# autoscaler scale-up and scale-back-down in /v1/cluster/status.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# apidoc regenerates docs/API.md from the mpss/api package sources.
# The file is committed; run this after any wire-contract change.
apidoc:
	$(GO) run ./cmd/mpss-apidoc -o docs/API.md

# fuzz-smoke runs the solver-boundary fuzz harness briefly: enough to
# catch a reintroduced panic path, cheap enough for every CI run. The
# second leg fuzzes instance shapes against the one-removal-per-round
# reference of the phase loop (internal/opt/reference_test.go); the
# third fuzzes phase networks through in-place rounds against plain
# Dinic on flowref.Graph twins rebuilt every round, for the phase-network
# kernel and its one-pass first level phase (internal/flow/phasenet.go);
# the fourth posts fuzzed session delta batches (add, remove, cap) as
# JSON through the server's handler and holds every reply to the
# one-shot /v1/solve/optimal and /v1/feasible answers for the session's
# job set (internal/server/fuzz_test.go);
# the fifth fuzzes the minimum cap against the full solver's top phase
# speed and probes on a flowref.Graph at and just below it, and checks the
# fixed-frequency schedule at the cap (internal/opt/bounded.go); the
# sixth fuzzes layered networks through flowref.Graph's Dinic and
# push-relabel and the exact flow.RatGraph, which must agree on the
# max-flow value before and after one rejected round's mutations
# (internal/flow/differential_test.go).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzSolvePipeline -fuzztime 20s .
	$(GO) test -run '^$$' -fuzz FuzzSchedule -fuzztime 20s ./internal/opt/
	$(GO) test -run '^$$' -fuzz FuzzPhaseNet -fuzztime 20s ./internal/flow/
	$(GO) test -run '^$$' -fuzz FuzzSessionDeltas -fuzztime 20s ./internal/server/
	$(GO) test -run '^$$' -fuzz FuzzMinFeasibleCap -fuzztime 20s ./internal/opt/
	$(GO) test -run '^$$' -fuzz FuzzDifferentialSolvers -fuzztime 20s ./internal/flow/

# trace-smoke streams a 50k-job diurnal trace through the component-wise
# solve end to end: component counters asserted against the summary, a
# 1-vs-4-worker differential, the mpss-gen trace | mpss-opt pipe, and
# the jobs of a 4096-job trace solved as one instance JSON, checked
# against its streamed summary.
trace-smoke:
	sh scripts/trace_smoke.sh

# contract-smoke runs the contracted-vs-raw differential solves, and the
# minimum caps with contraction on and off against their reference,
# under the race detector: the contraction pass shares per-phase state
# with the round engine, so one racy write there would silently corrupt
# the active-set runs. The raw side runs through withContraction(false),
# an option only internal/opt's tests define (contract_test.go); no
# caller of the package can turn contraction off. -short keeps it to
# the small sizes.
contract-smoke:
	$(GO) test -race -short -run 'TestContractedMatchesRaw|TestCapSearchMatchesReference' ./internal/opt/

verify: build vet test race cli-smoke serve-smoke session-smoke loadgen-smoke cluster-smoke trace-smoke

# bench runs the solver benchmark family (the solver by instance size,
# contraction on and off, plus BenchmarkOptScheduleTraceComponents, the
# trace-stream solve per component, and the cap-search probes) and archives the numbers — ns/op,
# allocs/op and the solver-internal counters reported via b.ReportMetric
# — as BENCH_opt.json. Every benchmark runs 5 times and benchjson
# archives each metric's median over the runs with the run count: a
# single short run moves ~±30% in wall time. Each benchmark on pooled
# arenas solves once untimed, on one P, so its B/op and allocs/op are
# the steady state's (internal/opt/bench_test.go). The contraction
# on/off pair runs at 40 iterations, the rest at 3. The raw
# benchstat-compatible text lands in bench_opt.txt for
# `benchstat old.txt bench_opt.txt` comparisons.
bench:
	$(GO) test -bench=. -benchtime=1x -run xxx .
	$(GO) test -run xxx -bench 'BenchmarkOptSchedule[0-9]|BenchmarkOptScheduleTraceComponents|BenchmarkFeasibleAtSpeed|BenchmarkMinFeasibleCap' \
		-benchtime 3x -count 5 ./internal/opt/ | tee bench_opt.txt
	$(GO) test -run xxx -bench 'BenchmarkOptScheduleContracted' \
		-benchtime 40x -count 5 ./internal/opt/ | tee -a bench_opt.txt
	$(GO) run ./cmd/benchjson -o BENCH_opt.json < bench_opt.txt >/dev/null
	$(GO) test -run xxx -bench 'BenchmarkHistogram|BenchmarkLabeledCounter|BenchmarkWritePrometheus' \
		-benchtime 100x -count 1 ./internal/obs/ | tee bench_obs.txt
	$(GO) run ./cmd/benchjson -o BENCH_obs.json < bench_obs.txt >/dev/null
	sh scripts/bench_trace.sh

# bench-trace archives streamed-trace throughput (jobs/sec, peak RSS at
# 100k and 1M jobs, streamed vs the bounded one-instance baseline) on
# its own; BENCH_TRACE_OFF_TIMEOUT caps the baseline's time and a fixed
# 2 GB limit its address space (see the script).
bench-trace:
	sh scripts/bench_trace.sh

# bench-smoke is the fast CI variant: one iteration of the small sizes
# and of the trace-component solve.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkOptSchedule64Jobs|BenchmarkOptScheduleTraceComponents' \
		-benchtime 1x -count 1 ./internal/opt/

clean:
	$(GO) clean ./...
