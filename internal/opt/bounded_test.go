package opt

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

func TestFeasibleAtSpeedSingleJob(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 8}})
	// Density 2: feasible at 2 and above, infeasible below.
	for _, c := range []struct {
		s    float64
		want bool
	}{{1.9, false}, {2.0, true}, {2.5, true}} {
		got, err := FeasibleAtSpeed(in, c.s)
		if err != nil {
			t.Fatal(err)
		}
		if got != c.want {
			t.Errorf("FeasibleAtSpeed(%v) = %v, want %v", c.s, got, c.want)
		}
	}
}

func TestFeasibleAtSpeedSharing(t *testing.T) {
	// Three equal jobs on two processors over [0,3): total 18 work on
	// 6 processor-time units needs cap >= 3; each job alone needs >= 2.
	jobs := []job.Job{
		{ID: 1, Release: 0, Deadline: 3, Work: 6},
		{ID: 2, Release: 0, Deadline: 3, Work: 6},
		{ID: 3, Release: 0, Deadline: 3, Work: 6},
	}
	in := mustInstance(t, 2, jobs)
	if ok, _ := FeasibleAtSpeed(in, 2.9); ok {
		t.Error("cap 2.9 accepted (needs 3)")
	}
	if ok, _ := FeasibleAtSpeed(in, 3.0); !ok {
		t.Error("cap 3.0 rejected")
	}
}

func TestFeasibleAtSpeedValidation(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 1, Work: 1}})
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := FeasibleAtSpeed(in, s); err == nil {
			t.Errorf("speed %v accepted", s)
		}
	}
}

func TestMinFeasibleCapMatchesTopPhaseSpeed(t *testing.T) {
	// The minimum feasible cap equals the unbounded optimum's top speed:
	// the optimum never runs faster than necessary, and below s_1 the
	// phase-1 jobs cannot finish.
	for seed := int64(0); seed < 6; seed++ {
		in, err := workload.Uniform(workload.Spec{N: 8, M: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		cap, err := MinFeasibleCap(in, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		s1 := res.Phases[0].Speed
		if math.Abs(cap-s1) > 1e-6*(1+s1) {
			t.Errorf("seed %d: MinFeasibleCap = %v, top phase speed = %v", seed, cap, s1)
		}
	}
}

// Property: feasibility is monotone in the cap.
func TestFeasibilityMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		in, err := workload.Tight(workload.Spec{N: 8, M: 2, Seed: seed})
		if err != nil {
			return false
		}
		cap, err := MinFeasibleCap(in, 1e-6)
		if err != nil {
			return false
		}
		below, err := FeasibleAtSpeed(in, cap*0.99)
		if err != nil {
			return false
		}
		above, err := FeasibleAtSpeed(in, cap*1.01)
		if err != nil {
			return false
		}
		return !below && above
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestBracketFastPathMatchesSchedule checks that the first-phase-only
// bracket solve returns exactly the full solver's top phase speed.
func TestBracketFastPathMatchesSchedule(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		in, err := workload.Uniform(workload.Spec{N: 12, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		sv := new(arena)
		sv.fe.contract = true
		sv.fr.reset(in)
		top, cut, err := sv.bracketSpeed(nil, &sv.fr, rec, rec.Root())
		if err != nil {
			t.Fatal(err)
		}
		if top != res.Phases[0].Speed {
			t.Fatalf("seed %d: bracket speed %v != Phases[0].Speed %v",
				seed, top, res.Phases[0].Speed)
		}
		// The certificate is the accepted set's W(J_1) and C(J_1).
		if cut.work/cut.time != top {
			t.Fatalf("seed %d: cut certificate %v/%v != bracket speed %v", seed, cut.work, cut.time, top)
		}
		if rec.Value("opt.bracket_solves") != 1 {
			t.Fatal("bracket solve not counted")
		}
	}
}

// MinFeasibleCap's "bracket phase" span nests where every other solver
// span does: under UnderSpan's parent, else under the span the context
// carries, and never on the recorder root beside them.
func TestBracketSpanNestsUnderParent(t *testing.T) {
	in, err := workload.Uniform(workload.Spec{N: 8, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []string{"UnderSpan", "context"} {
		rec := obs.New()
		parent := rec.StartSpan("parent")
		opts := []Option{WithRecorder(rec), UnderSpan(parent)}
		if via == "context" {
			opts = []Option{WithRecorder(rec), WithContext(obs.ContextWithSpan(context.Background(), parent))}
		}
		if _, err := MinFeasibleCap(in, 1e-9, opts...); err != nil {
			t.Fatal(err)
		}
		parent.End()
		trace := rec.Snapshot().Trace
		if len(trace) != 1 || trace[0].Name != "parent" {
			t.Fatalf("%s: root holds %d spans, want only parent: %+v", via, len(trace), trace)
		}
		kids := trace[0].Children
		if len(kids) != 1 || kids[0].Name != "bracket phase" {
			t.Fatalf("%s: parent's children = %+v, want one bracket phase", via, kids)
		}
	}
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}
