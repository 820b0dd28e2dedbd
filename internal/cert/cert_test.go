package cert

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"mpss/internal/job"
	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/workload"
)

// sweepSizes are the instance sizes of the sweeps; -short keeps n <= 24.
func sweepSizes() []int {
	if testing.Short() {
		return []int{8, 24}
	}
	return []int{8, 24, 64, 160}
}

// sweep calls f on every generator × n × m ∈ {1,2,4,8} × seeds 1–4
// instance of the given sizes.
func sweep(t *testing.T, sizes []int, f func(t *testing.T, label string, in *job.Instance)) {
	for _, gen := range workload.All() {
		t.Run(gen.Name, func(t *testing.T) {
			t.Parallel()
			for _, n := range sizes {
				for _, m := range []int{1, 2, 4, 8} {
					for seed := int64(1); seed <= 4; seed++ {
						in, err := gen.Make(workload.Spec{N: n, M: m, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						f(t, fmt.Sprintf("n=%d m=%d seed=%d", n, m, seed), in)
					}
				}
			}
		})
	}
}

// Every optimal schedule the solver emits certifies.
func TestOptimalSchedulesCertify(t *testing.T) {
	sweep(t, sweepSizes(), func(t *testing.T, label string, in *job.Instance) {
		res, err := opt.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if err := Check(res.Schedule, in); err != nil {
			t.Errorf("%s: %v", label, err)
		}
	})
}

// Every online schedule whose energy is more than 1e-6 above the optimum
// fails the certificate, and fails it as not optimal rather than as
// infeasible.
func TestSuboptimalOnlineSchedulesFail(t *testing.T) {
	p := power.MustAlpha(3)
	var rejected atomic.Int64
	t.Cleanup(func() {
		if rejected.Load() == 0 {
			t.Error("no online schedule was above the optimum")
		}
	})
	sweep(t, sweepSizes(), func(t *testing.T, label string, in *job.Instance) {
		res, err := opt.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		best := res.Schedule.Energy(p)
		avr, err := online.AVR(in)
		if err != nil {
			t.Fatalf("%s: AVR: %v", label, err)
		}
		oa, err := online.OA(in)
		if err != nil {
			t.Fatalf("%s: OA: %v", label, err)
		}
		for name, s := range map[string]*schedule.Schedule{"AVR": avr.Schedule, "OA": oa.Schedule} {
			if s.Energy(p) <= best*(1+1e-6) {
				continue
			}
			rejected.Add(1)
			if err := Check(s, in); !errors.Is(err, ErrNotOptimal) {
				t.Errorf("%s: %s schedule %.9g above OPT %.9g: Check = %v, want ErrNotOptimal",
					label, name, s.Energy(p), best, err)
			}
		}
	})
}

// Speeding up one segment of an optimal schedule and shortening it to
// the same work keeps the schedule feasible, but either gives its job a
// second speed or leaves a processor idle while that job waits.
func TestSpedUpSegmentFails(t *testing.T) {
	var mutated atomic.Int64
	t.Cleanup(func() {
		if mutated.Load() == 0 {
			t.Error("no schedule was mutated")
		}
	})
	sweep(t, []int{8, 24}, func(t *testing.T, label string, in *job.Instance) {
		res, err := opt.Schedule(in)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s := res.Schedule
		start, end := s.Span()
		long := 0
		for i, seg := range s.Segments {
			if seg.Len() > s.Segments[long].Len() {
				long = i
			}
		}
		if s.Segments[long].Len() < 1e-3*(end-start) {
			return
		}
		mutated.Add(1)
		mut := &schedule.Schedule{M: s.M, Segments: append([]schedule.Segment(nil), s.Segments...)}
		seg := &mut.Segments[long]
		seg.End = seg.Start + seg.Len()/2
		seg.Speed *= 2
		if err := mut.Verify(in); err != nil {
			t.Fatalf("%s: mutation infeasible: %v", label, err)
		}
		if err := Check(mut, in); !errors.Is(err, ErrNotOptimal) {
			t.Errorf("%s: sped-up segment %v: Check = %v, want ErrNotOptimal", label, *seg, err)
		}
	})
}

// The mutations of hand-built schedules: each is feasible and fails the
// certificate for one reason; the optimal schedule of the same instance
// passes.
func TestMutations(t *testing.T) {
	seg := func(proc int, start, end float64, id int, speed float64) schedule.Segment {
		return schedule.Segment{Proc: proc, Start: start, End: end, JobID: id, Speed: speed}
	}
	one, err := job.NewInstance(1, []job.Job{{ID: 1, Release: 0, Deadline: 2, Work: 2}})
	if err != nil {
		t.Fatal(err)
	}
	two, err := job.NewInstance(1, []job.Job{
		{ID: 1, Release: 0, Deadline: 2, Work: 2},
		{ID: 2, Release: 0, Deadline: 2, Work: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := job.NewInstance(2, []job.Job{
		{ID: 1, Release: 0, Deadline: 2, Work: 2},
		{ID: 2, Release: 0, Deadline: 2, Work: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		in   *job.Instance
		segs []schedule.Segment
		ok   bool
	}{
		// Both jobs share [0,2) at speed 3/2.
		{"optimal shared", two, []schedule.Segment{seg(0, 0, 4.0/3, 1, 1.5), seg(0, 4.0/3, 2, 2, 1.5)}, true},
		// Time moved from job 2 to job 1: both run part of [0,2), at
		// different speeds.
		{"time between speeds", two, []schedule.Segment{seg(0, 0, 1, 1, 2), seg(0, 1, 2, 2, 1)}, false},
		// Job 1 at two speeds.
		{"two speeds", one, []schedule.Segment{seg(0, 0, 1, 1, 1.5), seg(0, 1, 2, 1, 0.5)}, false},
		// Each job on its own processor for all of [0,2).
		{"optimal parallel", parallel, []schedule.Segment{seg(0, 0, 2, 1, 1), seg(1, 0, 2, 2, 0.5)}, true},
		// Job 2 runs half of [0,2) while processor 1 idles.
		{"idle while waiting", parallel, []schedule.Segment{seg(0, 0, 2, 1, 1), seg(1, 0, 1, 2, 1)}, false},
	} {
		s := &schedule.Schedule{M: c.in.M, Segments: c.segs}
		if err := s.Verify(c.in); err != nil {
			t.Fatalf("%s: not feasible: %v", c.name, err)
		}
		err := Check(s, c.in)
		if c.ok && err != nil {
			t.Errorf("%s: Check = %v, want nil", c.name, err)
		}
		if !c.ok && !errors.Is(err, ErrNotOptimal) {
			t.Errorf("%s: Check = %v, want ErrNotOptimal", c.name, err)
		}
	}
}

// An infeasible schedule is reported as such.
func TestInfeasibleFails(t *testing.T) {
	in, err := job.NewInstance(1, []job.Job{{ID: 1, Release: 0, Deadline: 2, Work: 2}})
	if err != nil {
		t.Fatal(err)
	}
	s := &schedule.Schedule{M: 1, Segments: []schedule.Segment{{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 1}}}
	if err := Check(s, in); err == nil || errors.Is(err, ErrNotOptimal) {
		t.Fatalf("Check = %v, want an infeasibility error", err)
	}
}
