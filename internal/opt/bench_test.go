package opt

import (
	"fmt"
	"runtime"
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// The benchmark family behind `make bench` and BENCH_opt.json: the
// optimal solver at increasing instance sizes (one network per round,
// built on the phase's span and solved from zero). Custom metrics expose
// the solver-internal counters next to ns/op.
//
// Every benchmark on pooled arenas runs on one P and solves once before
// its timer starts, so that its figures are those of a steady state, not
// of a solve sizing a fresh arena: the harness collects garbage before
// each run, which can empty the pool, and the pool keeps a returned
// arena in its P's private slot, which no other P takes, so a benchmark
// goroutine that moved to another P would size a fresh arena inside the
// timed loop.
func benchOptSchedule(b *testing.B, n int) {
	in, err := workload.Uniform(workload.Spec{N: n, M: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Schedule(in); err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(in, WithRecorder(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := rec.Snapshot()
	div := float64(b.N)
	b.ReportMetric(float64(snap.Counters["opt.rounds"])/div, "opt.rounds/op")
	b.ReportMetric(float64(snap.Counters["opt.graph_rebuilds"])/div, "opt.graph_rebuilds/op")
}

func BenchmarkOptSchedule64Jobs(b *testing.B)   { benchOptSchedule(b, 64) }
func BenchmarkOptSchedule256Jobs(b *testing.B)  { benchOptSchedule(b, 256) }
func BenchmarkOptSchedule1024Jobs(b *testing.B) { benchOptSchedule(b, 1024) }

// BenchmarkOptScheduleTraceComponents is the streamed trace solve without
// the stream: the separable components of a 2048-job diurnal instance
// (the trace TestSolveTraceStreamRoundsPerJob gates), solved one after
// another on pooled arenas, as a trace component worker does. The timed
// loop runs with observability off, so allocs/op is the production
// figure; one observed pass before it supplies the per-job counters.
func BenchmarkOptScheduleTraceComponents(b *testing.B) {
	in, err := workload.Diurnal(workload.Spec{N: 2048, M: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var parts []*job.Instance
	for _, c := range components(in) {
		parts = append(parts, subInstance(in, c))
	}
	solveAll := func(opts ...Option) {
		for _, part := range parts {
			if _, err := Schedule(part, opts...); err != nil {
				b.Fatal(err)
			}
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rec := obs.New()
	solveAll(WithRecorder(rec))
	snap := rec.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		solveAll()
	}
	b.StopTimer()
	jobs := float64(in.N())
	b.ReportMetric(float64(snap.Counters["flow.dinic.edges_scanned"])/jobs, "edges_scanned/job")
	b.ReportMetric(float64(snap.Counters["flow.dinic.aug_paths"])/jobs, "aug_paths/job")
	b.ReportMetric(float64(snap.Counters["flow.dinic.bfs_passes"])/jobs, "bfs_passes/job")
	b.ReportMetric(float64(snap.Counters["flow.solves"])/jobs, "flow.solves/job")
	b.ReportMetric(float64(snap.Counters["opt.rounds"])/jobs, "opt.rounds/job")
	b.ReportMetric(float64(len(parts)), "components")
}

// The contraction benchmark family: the slotted workload aligns all
// windows to a shared grid, so once the fine tiers finish, long runs
// of atomic intervals share their active set and the contracted graph
// is a fraction of the raw one. The contract=off sub-run is the
// raw-graph baseline; both produce bit-identical phases.
func benchOptScheduleSlotted(b *testing.B, n int, contract bool) {
	in, err := workload.Slotted(workload.Spec{N: n, M: 2, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := Schedule(in, withContraction(contract)); err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Schedule(in, withContraction(contract), WithRecorder(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := rec.Snapshot()
	div := float64(b.N)
	b.ReportMetric(float64(snap.Counters["opt.rounds"])/div, "opt.rounds/op")
	b.ReportMetric(float64(snap.Counters["opt.intervals_raw"])/div, "opt.intervals_raw/op")
	b.ReportMetric(float64(snap.Counters["opt.intervals_contracted"])/div, "opt.intervals_contracted/op")
}

func BenchmarkOptScheduleContracted1024Jobs(b *testing.B) {
	for _, c := range []bool{true, false} {
		b.Run(fmt.Sprintf("contract=%v", c), func(b *testing.B) {
			benchOptScheduleSlotted(b, 1024, c)
		})
	}
}

func BenchmarkOptScheduleContracted4096Jobs(b *testing.B) {
	for _, c := range []bool{true, false} {
		b.Run(fmt.Sprintf("contract=%v", c), func(b *testing.B) {
			benchOptScheduleSlotted(b, 4096, c)
		})
	}
}

// Feasibility probes run on the pooled solver arena's capNet; this
// guards the admission-control latency the online planner depends on.
func BenchmarkFeasibleAtSpeed256Jobs(b *testing.B) {
	in, err := workload.Uniform(workload.Spec{N: 256, M: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	res, err := Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	cap := res.Phases[0].Speed * 1.01
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := FeasibleAtSpeed(in, cap); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := FeasibleAtSpeed(in, cap)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("expected feasible")
		}
	}
}

// The minimum-cap search: the first-phase solve, then one probe.
func BenchmarkMinFeasibleCap256Jobs(b *testing.B) {
	in, err := workload.Uniform(workload.Spec{N: 256, M: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := MinFeasibleCap(in); err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinFeasibleCap(in, WithRecorder(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := rec.Snapshot()
	div := float64(b.N)
	b.ReportMetric(float64(snap.Counters["opt.feasibility_probes"])/div, "opt.feasibility_probes/op")
	b.ReportMetric(float64(snap.Counters["opt.bracket_solves"])/div, "opt.bracket_solves/op")
}

// The minimum-cap search on the wire-solve shape (64 jobs, m = 4): the
// first-phase solve and the one probe that checks its speed.
func BenchmarkMinFeasibleCap64Jobs(b *testing.B) {
	in, err := workload.Bursty(workload.Spec{N: 64, M: 4, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if _, err := MinFeasibleCap(in); err != nil {
		b.Fatal(err)
	}
	rec := obs.New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MinFeasibleCap(in, WithRecorder(rec)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := rec.Snapshot()
	div := float64(b.N)
	b.ReportMetric(float64(snap.Counters["opt.feasibility_probes"])/div, "opt.feasibility_probes/op")
	b.ReportMetric(float64(snap.Counters["flow.dinic.edges_scanned"])/div, "flow.edges_scanned/op")
}
