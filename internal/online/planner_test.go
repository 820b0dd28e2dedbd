package online

import (
	"math"
	"sort"
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
)

func TestPlannerValidation(t *testing.T) {
	if _, err := NewPlanner(0); err == nil {
		t.Error("m=0 accepted")
	}
	p, err := NewPlanner(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Arrive(1); err == nil {
		t.Error("empty arrival accepted")
	}
	if err := p.Arrive(1, job.Job{ID: 1, Release: 5, Deadline: 9, Work: 1}); err == nil {
		t.Error("mismatched release accepted")
	}
	if err := p.Arrive(1, job.Job{ID: 1, Deadline: 3, Work: 1}); err != nil {
		t.Fatalf("zero-release fill-in failed: %v", err)
	}
	if err := p.Arrive(1.5, job.Job{ID: 1, Deadline: 5, Work: 1}); err == nil {
		t.Error("duplicate live ID accepted")
	}
	if err := p.Arrive(0.5, job.Job{ID: 2, Deadline: 5, Work: 1}); err == nil {
		t.Error("time travel accepted")
	}
}

// Feeding an instance's jobs in release order must reproduce the batch
// OA(m) run exactly.
func TestPlannerMatchesBatchOA(t *testing.T) {
	p2 := power.MustAlpha(2)
	for seed := int64(0); seed < 6; seed++ {
		in, err := workload.Uniform(workload.Spec{N: 10, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		batch, err := OA(in)
		if err != nil {
			t.Fatal(err)
		}

		pl, err := NewPlanner(in.M)
		if err != nil {
			t.Fatal(err)
		}
		// Group jobs by release time, ascending.
		byRelease := map[float64][]job.Job{}
		var times []float64
		for _, j := range in.Jobs {
			if _, ok := byRelease[j.Release]; !ok {
				times = append(times, j.Release)
			}
			byRelease[j.Release] = append(byRelease[j.Release], j)
		}
		sort.Float64s(times)
		for _, tm := range times {
			if err := pl.Arrive(tm, byRelease[tm]...); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		_, horizon := in.Horizon()
		if err := pl.FinishHorizon(horizon); err != nil {
			t.Fatal(err)
		}

		got := pl.Executed()
		if err := got.Verify(in); err != nil {
			t.Fatalf("seed %d: planner schedule infeasible: %v", seed, err)
		}
		a, b := batch.Schedule.Energy(p2), got.Energy(p2)
		if math.Abs(a-b) > 1e-6*(1+a) {
			t.Errorf("seed %d: batch OA energy %v, planner energy %v", seed, a, b)
		}
		if pl.Replans() != batch.Replans {
			t.Errorf("seed %d: replans %d vs %d", seed, pl.Replans(), batch.Replans)
		}
	}
}

func TestPlannerStateQueries(t *testing.T) {
	pl, err := NewPlanner(1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Current() != nil {
		t.Error("plan before first arrival")
	}
	if err := pl.Arrive(0, job.Job{ID: 1, Deadline: 4, Work: 8}); err != nil {
		t.Fatal(err)
	}
	if pl.Current() == nil || pl.Now() != 0 || pl.Replans() != 1 {
		t.Errorf("state after arrival: now=%v replans=%d", pl.Now(), pl.Replans())
	}
	rem := pl.Remaining()
	if math.Abs(rem[1]-8) > 1e-12 {
		t.Errorf("remaining = %v", rem)
	}
	// Half-way through, half the work is left (speed 2 over [0,4)).
	if err := pl.FinishHorizon(2); err != nil {
		t.Fatal(err)
	}
	rem = pl.Remaining()
	if math.Abs(rem[1]-4) > 1e-6 {
		t.Errorf("remaining after half = %v", rem)
	}
	if err := pl.FinishHorizon(4); err != nil {
		t.Fatal(err)
	}
	if len(pl.Remaining()) != 0 {
		t.Errorf("jobs left at horizon: %v", pl.Remaining())
	}
}

func TestPlannerLateJobDetected(t *testing.T) {
	pl, err := NewPlanner(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Arrive(0, job.Job{ID: 1, Deadline: 1, Work: 1}); err != nil {
		t.Fatal(err)
	}
	// Jump past the deadline without executing enough, then push another
	// job: the stale live job is impossible and must be reported.
	pl.plan = nil // simulate an execution blackout
	if err := pl.Arrive(2, job.Job{ID: 2, Deadline: 5, Work: 1}); err == nil {
		t.Error("missed deadline not detected")
	}
}

func TestPlannerCanAdmit(t *testing.T) {
	pl, err := NewPlanner(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Arrive(0, job.Job{ID: 1, Deadline: 4, Work: 4}); err != nil {
		t.Fatal(err)
	}
	// Current load needs speed 1. A new job of 4 work due at 4 doubles
	// the requirement: admissible at cap 2, not at cap 1.5.
	cand := job.Job{ID: 2, Deadline: 4, Work: 4}
	ok, err := pl.CanAdmit(2, cand)
	if err != nil || !ok {
		t.Errorf("CanAdmit(2) = %v, %v; want true", ok, err)
	}
	ok, err = pl.CanAdmit(1.5, cand)
	if err != nil || ok {
		t.Errorf("CanAdmit(1.5) = %v, %v; want false", ok, err)
	}
	// Admission must not mutate state.
	if len(pl.Remaining()) != 1 {
		t.Error("CanAdmit mutated the live set")
	}
	if _, err := pl.CanAdmit(2, job.Job{ID: 1, Deadline: 9, Work: 1}); err == nil {
		t.Error("duplicate ID accepted")
	}
	if _, err := pl.CanAdmit(2, job.Job{ID: 3, Deadline: -1, Work: 1}); err == nil {
		t.Error("invalid candidate accepted")
	}
}

// CanAdmit probes the same network on every call: the live jobs enter
// the admission instance in ID order, so repeated probes of one planner
// state scan the same edges and push the same paths, and a verdict near
// the minimum cap cannot flip between calls.
func TestPlannerCanAdmitDeterministic(t *testing.T) {
	in, err := workload.Uniform(workload.Spec{N: 60, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	jobs := append([]job.Job(nil), in.Jobs...)
	for i := range jobs {
		jobs[i].Release = 0
	}
	pl, err := NewPlanner(in.M)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Arrive(0, jobs...); err != nil {
		t.Fatal(err)
	}
	cand := job.Job{ID: 1000, Deadline: 30, Work: 20}
	all, err := job.NewInstance(in.M, append(jobs, cand))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := opt.MinFeasibleCap(all)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{1, 1.25, 1.5, 2} {
		var first [2]int64
		var firstOK bool
		for call := 0; call < 10; call++ {
			rec := obs.New()
			pl.SetRecorder(rec)
			ok, err := pl.CanAdmit(f*s1, cand)
			if err != nil {
				t.Fatal(err)
			}
			ops := [2]int64{rec.Value("flow.dinic.edges_scanned"), rec.Value("flow.dinic.aug_paths")}
			if call == 0 {
				first, firstOK = ops, ok
				continue
			}
			if ops != first || ok != firstOK {
				t.Fatalf("cap %g·s_1, call %d: verdict %v, (edges scanned, aug paths) %v; call 0: %v, %v",
					f, call, ok, ops, firstOK, first)
			}
		}
		if !firstOK {
			t.Errorf("cap %g·s_1 refused", f)
		}
	}
}
