package opt

import (
	"math"
	"testing"

	"mpss/internal/job"
	"mpss/internal/power"
	"mpss/internal/workload"
)

func TestScheduleAtCapSingleJob(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 8}})
	s, err := ScheduleAtCap(in, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Verify(in); err != nil {
		t.Fatal(err)
	}
	// Runs at 4 for 2 time units somewhere in the window.
	for _, seg := range s.Segments {
		if math.Abs(seg.Speed-4) > 1e-12 {
			t.Errorf("segment at speed %v, want 4", seg.Speed)
		}
	}
	p := power.MustAlpha(2)
	if got := s.Energy(p); math.Abs(got-32) > 1e-6 {
		t.Errorf("energy = %v, want 32 (16 power * 2s)", got)
	}
}

func TestScheduleAtCapInfeasible(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 8}})
	if _, err := ScheduleAtCap(in, 1.5); err == nil {
		t.Error("infeasible cap accepted")
	}
	if _, err := ScheduleAtCap(in, -1); err == nil {
		t.Error("negative cap accepted")
	}
}

func TestScheduleAtCapAtMinimum(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		in, err := workload.Uniform(workload.Spec{N: 8, M: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		cap, err := MinFeasibleCap(in)
		if err != nil {
			t.Fatal(err)
		}
		s, err := ScheduleAtCap(in, cap*(1+1e-7))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := s.Verify(in); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		// Fixed frequency can never beat the optimal multi-speed profile.
		p := power.MustAlpha(2)
		optRes, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if capE, optE := s.Energy(p), optRes.Schedule.Energy(p); capE < optE-1e-6*(1+optE) {
			t.Errorf("seed %d: cap energy %v below optimum %v", seed, capE, optE)
		}
	}
}
