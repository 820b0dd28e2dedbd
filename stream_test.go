package mpss

import (
	"bytes"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
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

// readTestTrace materializes a serialized trace as one instance.
func readTestTrace(t *testing.T, data []byte) *Instance {
	t.Helper()
	r, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	in := &Instance{M: r.M()}
	for {
		j, err := r.Next()
		if err == io.EOF {
			return in
		}
		if err != nil {
			t.Fatal(err)
		}
		in.Jobs = append(in.Jobs, j)
	}
}

// matchOneShot holds a streamed summary to one OptimalSchedule of the
// materialized instance: the same jobs and phases, and the same energy
// to within 1e-12 relative (the summary adds component energies, the
// schedule's energy adds segments). It returns the one-shot result.
func matchOneShot(t *testing.T, sum *TraceSolveSummary, in *Instance, p PowerFunction) *OptimalResult {
	t.Helper()
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Jobs != in.N() || sum.M != in.M || sum.Phases != len(res.Phases) {
		t.Fatalf("streamed jobs/m/phases %d/%d/%d, one-shot %d/%d/%d",
			sum.Jobs, sum.M, sum.Phases, in.N(), in.M, len(res.Phases))
	}
	if e := res.Schedule.Energy(p); math.Abs(sum.Energy-e) > 1e-12*e {
		t.Fatalf("energy: streamed %v, one-shot %v", sum.Energy, e)
	}
	return res
}

// The streamed solve, components cut as the reader crosses them and
// solved over four workers, agrees with the one-shot solve of the
// materialized trace, and the component counters with the summary.
func TestSolveTraceStreamMatchesMonolithic(t *testing.T) {
	spec := WorkloadSpec{N: 400, M: 4, Seed: 12}
	data := writeTestTrace(t, spec)
	p := MustAlpha(3)

	rec := NewRecorder()
	streamed, err := SolveTraceStream(bytes.NewReader(data), p, WithRecorder(rec), WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Jobs != spec.N || streamed.M != spec.M || streamed.Components < 2 {
		t.Fatalf("jobs/m/components %d/%d/%d, want %d/%d/>= 2", streamed.Jobs, streamed.M, streamed.Components, spec.N, spec.M)
	}
	matchOneShot(t, streamed, readTestTrace(t, data), p)

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

// The streamed trace is the "diurnal" workload: the summary of its
// stream agrees with the one-shot solve of the generated instance,
// whose schedule verifies.
func TestSolveTraceStreamMatchesDiurnalWorkload(t *testing.T) {
	spec := WorkloadSpec{N: 256, M: 4, Seed: 8}
	in, err := GenerateWorkload("diurnal", spec)
	if err != nil {
		t.Fatal(err)
	}
	data := writeTestTrace(t, spec)
	if got := readTestTrace(t, data); !slices.Equal(got.Jobs, in.Jobs) {
		t.Fatal("the trace's jobs differ from the diurnal workload's")
	}
	p := MustAlpha(3)
	sum, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	res := matchOneShot(t, sum, in, p)
	if err := Verify(res.Schedule, in); err != nil {
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
// certifies as excluded, each later phase starts from the block the
// last rejected round excluded instead of from every remaining job, and
// each popped block is split at its time gaps, so no round is spent
// excluding a part of a block that shares no interval with the rest;
// that keeps this
// diurnal trace at 1,826 rounds for 2,048 jobs (2,031 when blocks were
// solved whole). Every round solves from zero on the phase-network
// kernel (flow.PhaseNet): Dinic's first level phase as one direct pass,
// then levels taken from the sink, so the DFS never enters a dead end
// and the last BFS is the exclusion cut. Each round's network is built
// for its own candidates over the phase's span, contracted, and the
// accepted round's flow is emitted as it stands. That scans ~307 edges
// per job, counting only the arcs whose residual the kernel reads (~324
// with blocks solved whole, ~451 when contracted phases re-solved the
// raw network for emission, ~923 on the generic flowref.Graph, ~1,110 when
// rejected rounds drained and re-augmented their flow instead).
// Restarting each phase from every remaining job costs about two rounds
// and ~7,500 edges per job, removing one job per round about sixteen
// rounds.
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
	if limit := 1826; sum.Rounds > limit {
		t.Fatalf("rounds = %d for %d jobs (%.2f per job), want <= %d",
			sum.Rounds, sum.Jobs, float64(sum.Rounds)/float64(sum.Jobs), limit)
	}
	c := rec.Snapshot().Counters
	edges := c["flow.dinic.edges_scanned"]
	if limit := int64(310 * sum.Jobs); edges == 0 || edges > limit {
		t.Fatalf("flow.dinic.edges_scanned = %d for %d jobs (%.0f per job), want in (0, %d]",
			edges, sum.Jobs, float64(edges)/float64(sum.Jobs), limit)
	}
	// One max flow per round, and none for emission.
	if c["flow.solves"] != c["opt.rounds"] {
		t.Fatalf("flow.solves = %d, want opt.rounds = %d", c["flow.solves"], c["opt.rounds"])
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
// within the whole instance on a one-shot solve): emission orders
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
	if _, err := OptimalSchedule(readTestTrace(t, []byte(across))); !errors.Is(err, ErrInvalidInstance) {
		t.Errorf("duplicate ID in a one-shot solve: err = %v, want ErrInvalidInstance", err)
	}
}

// The same trace solved as one instance: the first block the phase loop
// pops is the whole trace, which it splits into the components the
// stream cuts, so the one-shot solve takes exactly the streamed rounds,
// and its summary agrees with the streamed solve.
func TestSolveTraceMonolithicRoundsPerJob(t *testing.T) {
	data := writeTestTrace(t, WorkloadSpec{N: 2048, M: 8, Seed: 1})
	p := MustAlpha(3)
	streamed, err := SolveTraceStream(bytes.NewReader(data), p, WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	mono := matchOneShot(t, streamed, readTestTrace(t, data), p)
	if mono.Stats.Rounds != streamed.Rounds {
		t.Fatalf("one-shot rounds = %d, streamed %d", mono.Stats.Rounds, streamed.Rounds)
	}
}
