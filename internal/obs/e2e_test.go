package obs_test

import (
	"math"
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/online"
	"mpss/internal/opt"
)

// threeJobInstance is the deterministic gadget the exact-count assertions
// below are built on: three identical jobs sharing two processors over a
// common window. The optimum is a single phase at speed 3 decided by one
// flow round, and OA's single arrival makes the middle job migrate once
// under McNaughton wrap-around.
func threeJobInstance(t *testing.T) *job.Instance {
	t.Helper()
	in, err := job.NewInstance(2, []job.Job{
		{ID: 1, Release: 0, Deadline: 3, Work: 6},
		{ID: 2, Release: 0, Deadline: 3, Work: 6},
		{ID: 3, Release: 0, Deadline: 3, Work: 6},
	})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func wantCounter(t *testing.T, rec *obs.Recorder, name string, want int64) {
	t.Helper()
	if got := rec.Value(name); got != want {
		t.Errorf("counter %s = %d, want %d", name, got, want)
	}
}

func TestOptimizerExactCounts(t *testing.T) {
	in := threeJobInstance(t)
	rec := obs.New()
	res, err := opt.Schedule(in, opt.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(res.Phases))
	}

	wantCounter(t, rec, "opt.phases", 1)
	wantCounter(t, rec, "opt.rounds", 1)
	wantCounter(t, rec, "flow.solves", 1)
	// One Dinic solve on the 7-vertex network: two BFS passes (one that
	// finds the level graph, one that certifies exhaustion) routing three
	// augmenting paths, one per job.
	wantCounter(t, rec, "flow.dinic.bfs_passes", 2)
	wantCounter(t, rec, "flow.dinic.aug_paths", 3)

	snap := rec.Snapshot()
	if len(snap.Trace) != 1 {
		t.Fatalf("trace roots = %d, want exactly 1 phase span", len(snap.Trace))
	}
	ph := snap.Trace[0]
	if ph.Name != "phase 1" {
		t.Errorf("span name = %q, want \"phase 1\"", ph.Name)
	}
	if ph.Counters["flow_calls"] != 1 || ph.Counters["jobs_saturated"] != 3 {
		t.Errorf("phase span counters = %v, want flow_calls=1 jobs_saturated=3", ph.Counters)
	}
	if math.Abs(ph.Values["speed"]-3) > 1e-9 {
		t.Errorf("phase span speed = %v, want 3", ph.Values["speed"])
	}
	if sum, ok := snap.Histograms["opt.flow_solve_seconds"]; !ok || sum.N != 1 {
		t.Errorf("opt.flow_solve_seconds histogram = %+v, want N=1", sum)
	}
}

func TestOptimizerExactArithmeticCounts(t *testing.T) {
	in := threeJobInstance(t)
	rec := obs.New()
	res, err := opt.Schedule(in, opt.Exact(), opt.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 1 {
		t.Fatalf("phases = %d, want 1", len(res.Phases))
	}
	wantCounter(t, rec, "opt.phases", 1)
	wantCounter(t, rec, "flow.solves", 1)
	if got := rec.Value("flow.exact.aug_paths"); got != 3 {
		t.Errorf("flow.exact.aug_paths = %d, want 3", got)
	}
	snap := rec.Snapshot()
	if len(snap.Trace) != 1 || snap.Trace[0].Name != "phase 1 (exact)" {
		t.Fatalf("trace = %+v, want one span \"phase 1 (exact)\"", snap.Trace)
	}
}

func TestFeasibilityProbeCounts(t *testing.T) {
	in := threeJobInstance(t)
	rec := obs.New()
	ok, err := opt.FeasibleAtSpeed(in, 3, opt.WithRecorder(rec))
	if err != nil || !ok {
		t.Fatalf("FeasibleAtSpeed(3) = %v, %v; want feasible", ok, err)
	}
	wantCounter(t, rec, "opt.feasibility_probes", 1)
	wantCounter(t, rec, "flow.solves", 1)
}

func TestOAExactCounts(t *testing.T) {
	in := threeJobInstance(t)
	rec := obs.New()
	res, err := online.OA(in, online.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}

	// All three jobs arrive at t=0: one arrival event, one replan, and
	// McNaughton wrap-around migrates exactly the middle job.
	wantCounter(t, rec, "oa.arrivals", 1)
	wantCounter(t, rec, "oa.replans", 1)
	wantCounter(t, rec, "oa.speed_recomputations", 1)
	wantCounter(t, rec, "oa.migrations", 1)
	wantCounter(t, rec, "oa.preemptions", 1)
	// The replanned sub-instance runs through the instrumented optimizer
	// under the same recorder.
	wantCounter(t, rec, "opt.phases", 1)
	wantCounter(t, rec, "flow.solves", 1)

	snap := rec.Snapshot()
	if len(snap.Trace) != 1 || snap.Trace[0].Name != "OA" {
		t.Fatalf("trace = %+v, want one OA run span", snap.Trace)
	}
	run := snap.Trace[0]
	if run.Counters["migrations"] != 1 {
		t.Errorf("OA run span migrations = %d, want 1", run.Counters["migrations"])
	}
	if len(run.Children) != 1 {
		t.Fatalf("OA run span has %d event children, want 1", len(run.Children))
	}
	if math.Abs(run.Values["max_speed"]-3) > 1e-9 {
		t.Errorf("OA run span max_speed = %v, want 3", run.Values["max_speed"])
	}
}

func TestAVRExactCounts(t *testing.T) {
	in := threeJobInstance(t)
	rec := obs.New()
	res, err := online.AVR(in, online.WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	wantCounter(t, rec, "avr.intervals", 1)
	wantCounter(t, rec, "avr.speed_recomputations", 1)
	wantCounter(t, rec, "avr.migrations", 1)
	wantCounter(t, rec, "avr.dedicated_jobs", 0)

	snap := rec.Snapshot()
	if len(snap.Trace) != 1 || snap.Trace[0].Name != "AVR" {
		t.Fatalf("trace = %+v, want one AVR run span", snap.Trace)
	}
	run := snap.Trace[0]
	if len(run.Children) != 1 || run.Children[0].Counters["pool_jobs"] != 3 {
		t.Errorf("AVR interval spans = %+v, want one interval with pool_jobs=3", run.Children)
	}
}

// TestRecorderOff asserts the no-op path: the same solves with a nil
// recorder must succeed and produce identical schedules.
func TestRecorderOff(t *testing.T) {
	in := threeJobInstance(t)
	withRec := obs.New()
	a, err := opt.Schedule(in, opt.WithRecorder(withRec))
	if err != nil {
		t.Fatal(err)
	}
	b, err := opt.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Phases) != len(b.Phases) || a.Phases[0].Speed != b.Phases[0].Speed {
		t.Errorf("instrumented and plain solves disagree: %+v vs %+v", a.Phases, b.Phases)
	}
	if _, err := online.OA(in); err != nil {
		t.Errorf("OA without recorder: %v", err)
	}
	if _, err := online.AVR(in); err != nil {
		t.Errorf("AVR without recorder: %v", err)
	}
}
