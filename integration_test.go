package mpss

// End-to-end integration tests exercising full pipelines across modules:
// generate -> schedule (offline/online/discrete/non-migratory) -> verify ->
// cross-compare. The heavier sweeps are skipped under -short.

import (
	"math"
	"testing"
)

// Every scheduler in the repository, on every workload family, must emit
// a feasible schedule whose energy brackets correctly against the
// offline optimum.
func TestIntegrationAllSchedulersAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short mode")
	}
	p := MustAlpha(2.5)
	for _, name := range Workloads() {
		for _, m := range []int{1, 3} {
			in, err := GenerateWorkload(name, WorkloadSpec{N: 10, M: m, Seed: 77})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			optRes, err := OptimalSchedule(in)
			if err != nil {
				t.Fatalf("%s m=%d: %v", name, m, err)
			}
			if err := Verify(optRes.Schedule, in); err != nil {
				t.Fatalf("%s m=%d optimal: %v", name, m, err)
			}
			optE := optRes.Schedule.Energy(p)

			check := func(alg string, s *Schedule, bound float64) {
				t.Helper()
				if err := Verify(s, in); err != nil {
					t.Errorf("%s m=%d %s: infeasible: %v", name, m, alg, err)
					return
				}
				ratio := s.Energy(p) / optE
				if ratio < 1-1e-6 {
					t.Errorf("%s m=%d %s: ratio %v below 1", name, m, alg, ratio)
				}
				if bound > 0 && ratio > bound+1e-6 {
					t.Errorf("%s m=%d %s: ratio %v above bound %v", name, m, alg, ratio, bound)
				}
			}

			oa, err := OA(in)
			if err != nil {
				t.Fatalf("%s m=%d OA: %v", name, m, err)
			}
			check("OA", oa.Schedule, OABound(2.5))

			avr, err := AVR(in)
			if err != nil {
				t.Fatalf("%s m=%d AVR: %v", name, m, err)
			}
			check("AVR", avr.Schedule, AVRBound(2.5))

			for polName, a := range map[string]Assignment{
				"nonmig-rr": RoundRobinAssignment(),
				"nonmig-lw": LeastWorkAssignment(),
			} {
				s, err := NonMigratory(in, a)
				if err != nil {
					t.Fatalf("%s m=%d %s: %v", name, m, polName, err)
				}
				check(polName, s, 0)
			}

			if m == 1 {
				bk, err := BKP(in.Jobs, 16)
				if err != nil {
					t.Fatalf("%s BKP: %v", name, err)
				}
				check("BKP", bk, BKPBound(2.5))
			}

			menu, err := UniformSpeedMenu(optRes.Phases[0].Speed*1.4, 10)
			if err != nil {
				t.Fatal(err)
			}
			disc, err := DiscreteSchedule(in, p, menu)
			if err != nil {
				t.Fatalf("%s m=%d discrete: %v", name, m, err)
			}
			check("discrete", disc.Schedule, 0)
		}
	}
}

// The exact-arithmetic solver and the float solver must agree across the
// whole workload catalogue.
func TestIntegrationExactAgreesEverywhere(t *testing.T) {
	if testing.Short() {
		t.Skip("exact sweep skipped in -short mode")
	}
	p := MustAlpha(3)
	for _, name := range Workloads() {
		in, err := GenerateWorkload(name, WorkloadSpec{N: 8, M: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := OptimalSchedule(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		exact, err := OptimalScheduleExact(in)
		if err != nil {
			t.Fatalf("%s exact: %v", name, err)
		}
		fe, ee := fast.Schedule.Energy(p), exact.Schedule.Energy(p)
		if math.Abs(fe-ee) > 1e-6*(1+ee) {
			t.Errorf("%s: float %v vs exact %v", name, fe, ee)
		}
	}
}

// A periodic task set scheduled optimally, capped, discretized and
// simulated online — the full production pipeline on one instance.
func TestIntegrationPeriodicPipeline(t *testing.T) {
	in, err := ExpandPeriodic(2, []PeriodicTask{
		{Period: 8, WCET: 2, Phase: 0},
		{Period: 12, WCET: 3, Phase: 1},
		{Period: 6, WCET: 1, Phase: 2},
	}, 48)
	if err != nil {
		t.Fatal(err)
	}
	p := MustAlpha(3)

	optRes, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(optRes.Schedule, in); err != nil {
		t.Fatal(err)
	}

	cap, err := MinFeasibleCap(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cap-optRes.Phases[0].Speed) > 1e-4*(1+cap) {
		t.Errorf("cap %v vs top speed %v", cap, optRes.Phases[0].Speed)
	}

	menu, err := UniformSpeedMenu(cap*1.2, 8)
	if err != nil {
		t.Fatal(err)
	}
	disc, err := DiscreteSchedule(in, p, menu)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(disc.Schedule, in); err != nil {
		t.Fatal(err)
	}

	oa, err := OA(in)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPotentialTracker(in, oa, optRes.Schedule, 3)
	if err != nil {
		t.Fatal(err)
	}
	start, end := in.Horizon()
	r := tr.Drift(start, end, p)
	if r.LHS > 1e-5*(1+27*r.EOPT) {
		t.Errorf("potential drift positive on periodic pipeline: %+v", r)
	}
}

// Large-instance stress: the solver must stay feasible and verified well
// beyond the harness sizes (this is where accumulated floating-point
// slack would first show up).
func TestIntegrationLargeInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("large instance skipped in -short mode")
	}
	in, err := GenerateWorkload("uniform", WorkloadSpec{N: 200, M: 6, Seed: 42, Horizon: 300})
	if err != nil {
		t.Fatal(err)
	}
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(res.Schedule, in); err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) > in.N() {
		t.Errorf("%d phases for %d jobs", len(res.Phases), in.N())
	}
	// The online algorithms must also survive this size.
	avr, err := AVR(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(avr.Schedule, in); err != nil {
		t.Fatal(err)
	}
}
