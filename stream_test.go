package mpss

import (
	"bytes"
	"errors"
	"runtime"
	"strings"
	"testing"
)

// writeTestTrace returns a serialized diurnal trace.
func writeTestTrace(t *testing.T, spec WorkloadSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf, spec.M)
	if err != nil {
		t.Fatal(err)
	}
	if err := GenerateTrace(tw, spec); err != nil {
		t.Fatal(err)
	}
	if err := tw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// The streamed decomposed solve must agree with the materialized
// monolithic solve of the same trace: identical job/component counts and
// identical energy (the decomposition differential suite proves the
// schedules bit-equal; the summaries sum energies in the same component
// order).
func TestSolveTraceStreamMatchesMonolithic(t *testing.T) {
	spec := WorkloadSpec{N: 400, M: 4, Seed: 12}
	data := writeTestTrace(t, spec)
	p := MustAlpha(3)

	rec := NewRecorder()
	streamed, err := SolveTraceStream(bytes.NewReader(data), p, WithRecorder(rec), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := SolveTraceStream(bytes.NewReader(data), p, WithDecomposition(false))
	if err != nil {
		t.Fatal(err)
	}

	if streamed.Jobs != spec.N || mono.Jobs != spec.N {
		t.Fatalf("jobs: streamed %d, mono %d, want %d", streamed.Jobs, mono.Jobs, spec.N)
	}
	if streamed.M != spec.M || mono.M != spec.M {
		t.Fatalf("m: streamed %d, mono %d, want %d", streamed.M, mono.M, spec.M)
	}
	if streamed.Components != mono.Components || streamed.Components < 2 {
		t.Fatalf("components: streamed %d, mono %d (want equal, >= 2)", streamed.Components, mono.Components)
	}
	if streamed.MaxComponentJobs != mono.MaxComponentJobs {
		t.Fatalf("max component jobs: streamed %d, mono %d", streamed.MaxComponentJobs, mono.MaxComponentJobs)
	}
	if streamed.Phases != mono.Phases {
		t.Fatalf("phases: streamed %d, mono %d", streamed.Phases, mono.Phases)
	}
	if streamed.Energy != mono.Energy {
		t.Fatalf("energy: streamed %v, mono %v", streamed.Energy, mono.Energy)
	}

	snap := rec.Snapshot()
	if got := snap.Counters["opt.components"]; got != int64(streamed.Components) {
		t.Errorf("opt.components = %d, want %d", got, streamed.Components)
	}
	if got := snap.Counters["opt.decompose_cuts"]; got != int64(streamed.Components-1) {
		t.Errorf("opt.decompose_cuts = %d, want %d", got, streamed.Components-1)
	}
	if got := snap.Counters["opt.component_jobs_max"]; got != int64(streamed.MaxComponentJobs) {
		t.Errorf("opt.component_jobs_max = %d, want %d", got, streamed.MaxComponentJobs)
	}
}

// Determinism across worker counts: the summary is accumulated in
// component order regardless of completion order.
func TestSolveTraceStreamWorkerIndependence(t *testing.T) {
	data := writeTestTrace(t, WorkloadSpec{N: 300, M: 3, Seed: 4})
	p := MustAlpha(2)
	base, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		got, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		if *got != *base {
			t.Fatalf("workers=%d: summary %+v != baseline %+v", workers, got, base)
		}
	}
}

// The one-shot Solve path must honor WithDecomposition and stay
// bit-identical to the default monolithic solve.
func TestSolveWithDecomposition(t *testing.T) {
	in, err := GenerateWorkload("diurnal", WorkloadSpec{N: 256, M: 4, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	mono, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := OptimalSchedule(in, WithDecomposition(true), WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(mono.Phases) != len(dec.Phases) {
		t.Fatalf("phases: mono %d, decomposed %d", len(mono.Phases), len(dec.Phases))
	}
	for i := range mono.Phases {
		if mono.Phases[i].Speed != dec.Phases[i].Speed {
			t.Fatalf("phase %d speed: mono %v, decomposed %v", i, mono.Phases[i].Speed, dec.Phases[i].Speed)
		}
	}
	if len(mono.Schedule.Segments) != len(dec.Schedule.Segments) {
		t.Fatalf("segments: mono %d, decomposed %d", len(mono.Schedule.Segments), len(dec.Schedule.Segments))
	}
	for i := range mono.Schedule.Segments {
		if mono.Schedule.Segments[i] != dec.Schedule.Segments[i] {
			t.Fatalf("segment %d: mono %v, decomposed %v", i, mono.Schedule.Segments[i], dec.Schedule.Segments[i])
		}
	}
	if err := Verify(dec.Schedule, in); err != nil {
		t.Fatal(err)
	}
}

func TestSolveTraceStreamRejectsBadInput(t *testing.T) {
	p := MustAlpha(3)
	if _, err := SolveTraceStream(strings.NewReader("not a trace\n"), p); err == nil {
		t.Error("malformed header accepted")
	}
	if _, err := SolveTraceStream(strings.NewReader(`{"format":"mpss-trace-v1","m":2}`+"\n"), p); err == nil {
		t.Error("empty trace accepted")
	}
	unsorted := `{"format":"mpss-trace-v1","m":2}
{"id":1,"release":5,"deadline":6,"work":1}
{"id":2,"release":0,"deadline":1,"work":1}
`
	if _, err := SolveTraceStream(strings.NewReader(unsorted), p); err == nil {
		t.Error("unsorted trace accepted")
	}
	if !IsTraceStream([]byte(unsorted)) {
		t.Error("IsTraceStream rejected a trace header")
	}
}

// Rounds and edges scanned are the solver's cost, and deterministic
// counts, so they gate regressions where wall time on a shared box
// cannot. A rejected round removes every job the residual graph
// certifies as excluded, and each later phase starts from the block the
// last rejected round excluded instead of from every remaining job; that
// keeps a diurnal trace near one round per job. Every round solves from
// zero on the phase-network kernel (flow.PhaseNet): Dinic's first level
// phase as one direct pass, then levels taken from the sink, so the DFS
// never enters a dead end and the last BFS is the exclusion cut. That
// scans ~451 edges per job, counting only the arcs whose residual the
// kernel reads (~923 on the generic flow.Graph, ~1,110 when rejected
// rounds drained and re-augmented their flow instead). Restarting each
// phase from every remaining job costs about two rounds and ~7,500 edges
// per job, removing one job per round about sixteen rounds.
func TestSolveTraceStreamRoundsPerJob(t *testing.T) {
	data := writeTestTrace(t, WorkloadSpec{N: 2048, M: 8, Seed: 1})
	rec := NewRecorder()
	sum, err := SolveTraceStream(bytes.NewReader(data), MustAlpha(3), WithParallelism(1), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != 2048 {
		t.Fatalf("jobs = %d, want 2048", sum.Jobs)
	}
	if limit := 5 * sum.Jobs / 4; sum.Rounds > limit {
		t.Fatalf("rounds = %d for %d jobs (%.2f per job), want <= %d",
			sum.Rounds, sum.Jobs, float64(sum.Rounds)/float64(sum.Jobs), limit)
	}
	c := rec.Snapshot().Counters
	edges := c["flow.dinic.edges_scanned"]
	if limit := int64(475 * sum.Jobs); edges == 0 || edges > limit {
		t.Fatalf("flow.dinic.edges_scanned = %d for %d jobs (%.0f per job), want in (0, %d]",
			edges, sum.Jobs, float64(edges)/float64(sum.Jobs), limit)
	}
	// One max flow per round, plus one emission re-solve per contracted
	// phase: a rejected round resets its network in place, so no accepted
	// round needs a canonicalizing re-solve.
	if limit := c["opt.rounds"] + c["opt.emit_rebuilds"]; c["flow.solves"] > limit {
		t.Fatalf("flow.solves = %d, want <= opt.rounds + opt.emit_rebuilds = %d", c["flow.solves"], limit)
	}
}

// Allocations are a deterministic cost too. Emission packs each phase
// straight into the schedule from engine-owned scratch, and nothing per
// phase is formatted when observability is off, so the trace above
// allocates ~19k times (~114k with per-phase maps, slices and span
// names).
func TestSolveTraceStreamAllocs(t *testing.T) {
	data := writeTestTrace(t, WorkloadSpec{N: 2048, M: 8, Seed: 1})
	p := MustAlpha(3)
	var solveErr error
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(1)); err != nil {
			solveErr = err
		}
	})
	if solveErr != nil {
		t.Fatal(solveErr)
	}
	if allocs > 40000 {
		t.Fatalf("%.0f allocations per 2048-job trace, want <= 40000", allocs)
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// The same trace in bytes. Each solve's segments are emitted into a
// buffer kept in the pooled arena and copied out once at exact size, and
// every phase's job IDs and m_ij are slices of two arrays allocated once
// per solve, so the trace allocates ~3.1 MB (~5.3 MB when the segments
// grew by append and each phase allocated its own two slices).
func TestSolveTraceStreamBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops pooled arenas at random")
	}
	data := writeTestTrace(t, WorkloadSpec{N: 2048, M: 8, Seed: 1})
	p := MustAlpha(3)
	solve := func() {
		if _, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(1)); err != nil {
			t.Fatal(err)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	solve() // size the pooled arena
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		solve()
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 4_500_000 {
		t.Fatalf("%d bytes allocated per 2048-job trace, want <= 4500000", perRun)
	}
}

// Job IDs must be unique within a component on the streamed path (and
// within the whole trace when decomposition is off): emission orders
// each interval's pieces by job ID. A repeated ID inside one component
// is rejected as the one-shot solve rejects it; repeated across
// components it is fine.
func TestSolveTraceStreamRejectsDuplicateIDs(t *testing.T) {
	p := MustAlpha(3)
	within := `{"format":"mpss-trace-v1","m":2}
{"id":1,"release":0,"deadline":4,"work":1}
{"id":1,"release":1,"deadline":3,"work":2}
{"id":2,"release":2,"deadline":5,"work":1}
`
	if _, err := SolveTraceStream(strings.NewReader(within), p); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("duplicate ID inside one component: err = %v, want ErrInvalidInstance", err)
	}
	across := `{"format":"mpss-trace-v1","m":2}
{"id":1,"release":0,"deadline":2,"work":1}
{"id":1,"release":3,"deadline":5,"work":2}
`
	sum, err := SolveTraceStream(strings.NewReader(across), p)
	if err != nil {
		t.Fatalf("duplicate ID across components: %v", err)
	}
	if sum.Components != 2 {
		t.Fatalf("components = %d, want 2", sum.Components)
	}
	if _, err := SolveTraceStream(strings.NewReader(across), p, WithDecomposition(false)); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("duplicate ID in a monolithic solve: err = %v, want ErrInvalidInstance", err)
	}
}

// The same trace solved monolithically: one flow network over all 2048
// jobs. Each phase starts from the last excluded block, so even here the
// rounds stay near one per job (a phase loop that restarted from every
// remaining job needs ~4.5 per job and ~45× the time), and the summary
// must agree with the streamed solve.
func TestSolveTraceMonolithicRoundsPerJob(t *testing.T) {
	data := writeTestTrace(t, WorkloadSpec{N: 2048, M: 8, Seed: 1})
	p := MustAlpha(3)
	streamed, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	mono, err := SolveTraceStream(bytes.NewReader(data), p, WithDecomposition(false))
	if err != nil {
		t.Fatal(err)
	}
	if mono.Jobs != streamed.Jobs || mono.Phases != streamed.Phases || mono.Energy != streamed.Energy {
		t.Fatalf("monolithic jobs/phases/energy %d/%d/%v, streamed %d/%d/%v",
			mono.Jobs, mono.Phases, mono.Energy, streamed.Jobs, streamed.Phases, streamed.Energy)
	}
	if limit := 5 * mono.Jobs / 4; mono.Rounds > limit {
		t.Fatalf("monolithic rounds = %d for %d jobs (%.2f per job), want <= %d",
			mono.Rounds, mono.Jobs, float64(mono.Rounds)/float64(mono.Jobs), limit)
	}
}
