package mpss_test

import (
	"context"
	"errors"
	"fmt"

	"mpss"
)

// The offline optimum: three jobs, two processors, one call.
func ExampleOptimalSchedule() {
	jobs := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 2, Work: 8},
		{ID: 2, Release: 0, Deadline: 10, Work: 6},
		{ID: 3, Release: 4, Deadline: 10, Work: 3},
	}
	in, _ := mpss.NewInstance(2, jobs)
	res, _ := mpss.OptimalSchedule(in)
	for i, ph := range res.Phases {
		fmt.Printf("phase %d: jobs %v at speed %.2f\n", i+1, ph.JobIDs, ph.Speed)
	}
	fmt.Printf("energy: %.2f\n", res.Schedule.Energy(mpss.MustAlpha(2)))
	// Output:
	// phase 1: jobs [1] at speed 4.00
	// phase 2: jobs [2] at speed 0.60
	// phase 3: jobs [3] at speed 0.50
	// energy: 37.10
}

// The online Optimal Available algorithm replans at each arrival and is
// alpha^alpha-competitive (Theorem 2).
func ExampleOA() {
	jobs := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 4},
		{ID: 2, Release: 2, Deadline: 4, Work: 2},
	}
	in, _ := mpss.NewInstance(1, jobs)
	res, _ := mpss.OA(in)
	opt, _ := mpss.OptimalSchedule(in)
	p := mpss.MustAlpha(2)
	fmt.Printf("replans: %d\n", res.Replans)
	fmt.Printf("OA %.0f vs optimal %.0f (bound %.0f)\n",
		res.Schedule.Energy(p), opt.Schedule.Energy(p), mpss.OABound(2))
	// Output:
	// replans: 2
	// OA 10 vs optimal 9 (bound 4)
}

// AVR assigns every job its density; high-density jobs get dedicated
// processors (Theorem 3).
func ExampleAVR() {
	jobs := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 2, Work: 20}, // density 10
		{ID: 2, Release: 0, Deadline: 2, Work: 2},  // density 1
		{ID: 3, Release: 0, Deadline: 2, Work: 2},
		{ID: 4, Release: 0, Deadline: 2, Work: 2},
	}
	in, _ := mpss.NewInstance(3, jobs)
	res, _ := mpss.AVR(in)
	lv := res.Levels[0]
	fmt.Printf("dedicated: %v, pool speed: %.1f\n", lv.Dedicated, lv.PoolSpeed)
	// Output:
	// dedicated: [1], pool speed: 1.5
}

// A Solver bundles default options for repeated calls — the right
// shape for servers and batch loops; it is safe for concurrent use.
// Results are bit-identical to the package-level one-shot functions.
func ExampleNewSolver() {
	s := mpss.NewSolver()
	jobs := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 1, Deadline: 5, Work: 2},
	}
	in, _ := mpss.NewInstance(2, jobs)
	res, _ := s.Solve(in)
	cap, _ := s.MinFeasibleCap(in, 1e-9)
	fmt.Printf("energy: %.2f\n", res.Schedule.Energy(mpss.MustAlpha(3)))
	fmt.Printf("min cap: %.2f\n", cap)
	// Output:
	// energy: 32.50
	// min cap: 2.00
}

// WithContext threads a context into a solve; cancellation or deadline
// expiry unwinds at the next phase/round boundary with ErrCanceled.
func ExampleWithContext() {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before solving: the solve aborts at its first round
	in, _ := mpss.NewInstance(1, []mpss.Job{{ID: 1, Release: 0, Deadline: 2, Work: 3}})
	_, err := mpss.OptimalSchedule(in, mpss.WithContext(ctx))
	fmt.Println(errors.Is(err, mpss.ErrCanceled))
	// Output:
	// true
}

// The incremental Planner is the push-style form of OA(m).
func ExampleNewPlanner() {
	pl, _ := mpss.NewPlanner(2)
	_ = pl.Arrive(0, mpss.Job{ID: 1, Deadline: 4, Work: 4})
	_ = pl.Arrive(1, mpss.Job{ID: 2, Deadline: 3, Work: 2})
	_ = pl.FinishHorizon(4)
	fmt.Printf("replans: %d, unfinished: %d\n", pl.Replans(), len(pl.Remaining()))
	// Output:
	// replans: 2, unfinished: 0
}

// Discrete speed menus stay optimal by mixing adjacent levels.
func ExampleDiscreteSchedule() {
	in, _ := mpss.NewInstance(1, []mpss.Job{{ID: 1, Release: 0, Deadline: 2, Work: 3}})
	res, _ := mpss.DiscreteSchedule(in, mpss.MustAlpha(2), []float64{1, 2})
	fmt.Printf("energy: %.1f with %d split\n", res.Energy, res.Splits)
	// Output:
	// energy: 5.0 with 1 split
}
