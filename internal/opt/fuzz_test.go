package opt

import (
	"math/rand"
	"testing"

	"mpss/internal/job"
	"mpss/internal/power"
	"mpss/internal/yds"
)

// FuzzSchedule drives the offline optimum with fuzzer-chosen instance
// shapes and checks the full invariant set: feasibility, phase structure,
// agreement with YDS at m = 1, and bit-equality of every engine variant
// with the one-removal-per-round reference (reference_test.go).
func FuzzSchedule(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1))
	f.Add(int64(2), uint8(10), uint8(2))
	f.Add(int64(3), uint8(3), uint8(4))
	f.Add(int64(-9), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawM uint8) {
		n := 1 + int(rawN%12)
		m := 1 + int(rawM%4)
		rng := rand.New(rand.NewSource(seed))
		jobs := make([]job.Job, n)
		for i := range jobs {
			r := rng.Float64() * 20
			jobs[i] = job.Job{
				ID:       i + 1,
				Release:  r,
				Deadline: r + 0.01 + rng.Float64()*10,
				Work:     0.01 + rng.Float64()*5,
			}
		}
		in, err := job.NewInstance(m, jobs)
		if err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}
		res, err := Schedule(in)
		if err != nil {
			t.Fatalf("Schedule failed: %v", err)
		}
		if err := res.Schedule.Verify(in); err != nil {
			t.Fatalf("infeasible schedule: %v", err)
		}
		if len(res.Phases) > n {
			t.Fatalf("%d phases for %d jobs", len(res.Phases), n)
		}
		for i := 1; i < len(res.Phases); i++ {
			if res.Phases[i].Speed >= res.Phases[i-1].Speed+1e-9 {
				t.Fatalf("phase speeds not decreasing: %v then %v",
					res.Phases[i-1].Speed, res.Phases[i].Speed)
			}
		}
		checkAgainstReference(t, "fuzz", in, refFloat)
		checkAgainstReference(t, "fuzz", in, refExact)
		if m == 1 {
			p := power.MustAlpha(2)
			want, err := yds.Energy(in.Jobs, p)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Schedule.Energy(p)
			if diff := got - want; diff > 1e-6*(1+want) || diff < -1e-6*(1+want) {
				t.Fatalf("m=1 energy %v != YDS %v", got, want)
			}
		}
	})
}
