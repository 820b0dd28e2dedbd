package mpss_test

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"testing"
	"time"

	"mpss"
)

// TestSolverDifferential pins the Solver methods to the package-level
// functions: the one-shot wrappers must be bit-identical to calling the
// same methods on a long-lived Solver, across every entry point and
// repeated reuse of one Solver (warm arenas must not change results).
func TestSolverDifferential(t *testing.T) {
	s := mpss.NewSolver()
	alpha := mpss.MustAlpha(3)
	for _, seed := range []int64{1, 2, 3} {
		for _, gen := range []string{"uniform", "bursty"} {
			in, err := mpss.GenerateWorkload(gen, mpss.WorkloadSpec{N: 20, M: 3, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			// Solve each instance twice per path: the second Solver call
			// runs on warm arenas and must still agree bit-for-bit.
			for rep := 0; rep < 2; rep++ {
				pkgOpt, err1 := mpss.OptimalSchedule(in)
				sesOpt, err2 := s.Solve(in)
				requireSameResult(t, gen, seed, "optimal", err1, err2)
				if err1 == nil {
					if a, b := pkgOpt.Schedule.Energy(alpha), sesOpt.Schedule.Energy(alpha); a != b {
						t.Errorf("%s/%d optimal: package energy %v, Solver %v", gen, seed, a, b)
					}
					requireSameJSON(t, gen, seed, "optimal schedule", pkgOpt.Schedule, sesOpt.Schedule)
				}

				pkgOA, err1 := mpss.OA(in)
				sesOA, err2 := s.OA(in)
				requireSameResult(t, gen, seed, "oa", err1, err2)
				if err1 == nil {
					requireSameJSON(t, gen, seed, "oa schedule", pkgOA.Schedule, sesOA.Schedule)
					if pkgOA.Replans != sesOA.Replans {
						t.Errorf("%s/%d oa: package replans %d, Solver %d", gen, seed, pkgOA.Replans, sesOA.Replans)
					}
				}

				pkgAVR, err1 := mpss.AVR(in)
				sesAVR, err2 := s.AVR(in)
				requireSameResult(t, gen, seed, "avr", err1, err2)
				if err1 == nil {
					requireSameJSON(t, gen, seed, "avr schedule", pkgAVR.Schedule, sesAVR.Schedule)
				}

				pkgCap, err1 := mpss.MinFeasibleCap(in, 1e-9)
				sesCap, err2 := s.MinFeasibleCap(in, 1e-9)
				requireSameResult(t, gen, seed, "mincap", err1, err2)
				if pkgCap != sesCap {
					t.Errorf("%s/%d mincap: package %v, Solver %v", gen, seed, pkgCap, sesCap)
				}

				pkgFeas, err1 := mpss.FeasibleAtSpeed(in, pkgCap*1.01)
				sesFeas, err2 := s.FeasibleAtSpeed(in, pkgCap*1.01)
				requireSameResult(t, gen, seed, "feasible", err1, err2)
				if pkgFeas != sesFeas || !pkgFeas {
					t.Errorf("%s/%d feasible at 1.01*mincap: package %v, Solver %v, want both true",
						gen, seed, pkgFeas, sesFeas)
				}
			}
		}
	}
}

func requireSameResult(t *testing.T, gen string, seed int64, what string, err1, err2 error) {
	t.Helper()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s/%d %s: package err %v, Solver err %v", gen, seed, what, err1, err2)
	}
	if err1 != nil {
		t.Fatalf("%s/%d %s: %v", gen, seed, what, err1)
	}
}

func requireSameJSON(t *testing.T, gen string, seed int64, what string, a, b any) {
	t.Helper()
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Errorf("%s/%d %s: package and Solver JSON differ:\n%s\n%s", gen, seed, what, ja, jb)
	}
}

// TestSolverExactMatchesPackage covers the exact-arithmetic path.
func TestSolverExactMatchesPackage(t *testing.T) {
	in, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: 8, M: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := mpss.NewSolver()
	pkg, err1 := mpss.OptimalScheduleExact(in)
	ses, err2 := s.SolveExact(in)
	requireSameResult(t, "uniform", 5, "exact", err1, err2)
	requireSameJSON(t, "uniform", 5, "exact schedule", pkg.Schedule, ses.Schedule)
}

// TestSolverSessionOptions checks that options given to NewSolver act as
// the Solver's defaults and per-call options layer on top.
func TestSolverSessionOptions(t *testing.T) {
	rec := mpss.NewRecorder()
	s := mpss.NewSolver(mpss.WithRecorder(rec))
	in, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: 10, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Solve(in); err != nil {
		t.Fatal(err)
	}
	if rec.Value("opt.rounds") == 0 {
		t.Error("the default recorder saw no opt.rounds; NewSolver options not applied")
	}

	// A canceled per-call context must override the default...
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Solve(in, mpss.WithContext(canceled)); !errors.Is(err, mpss.ErrCanceled) {
		t.Errorf("Solve with canceled ctx: err %v, want ErrCanceled", err)
	}
	// ...without sticking to the Solver: the next plain call succeeds.
	if _, err := s.Solve(in); err != nil {
		t.Errorf("Solve after canceled call: %v", err)
	}
}

// TestCancellationMidSolve drives a large instance with a deadline that
// expires mid-solve and checks three things: the solve unwinds promptly
// with ErrCanceled, the CLI-visible sentinel matches, and the same
// Solver solves correctly afterwards (no arena poisoning).
func TestCancellationMidSolve(t *testing.T) {
	big, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 600, M: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := mpss.NewSolver()

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = s.Solve(big, mpss.WithContext(ctx))
	if !errors.Is(err, mpss.ErrCanceled) {
		t.Fatalf("mid-solve cancel: err %v, want ErrCanceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("cancellation took %v; want prompt unwind at a round boundary", d)
	}

	// The Solver must be unpoisoned: re-solve a small instance and
	// compare against a fresh one-shot call.
	small, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: 16, M: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want, err := mpss.OptimalSchedule(small)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Solve(small)
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	requireSameJSON(t, "uniform", 3, "post-cancel schedule", want.Schedule, got.Schedule)
}

// TestCancellationAllEntryPoints checks every context-aware entry point
// returns ErrCanceled for an already-canceled context.
func TestCancellationAllEntryPoints(t *testing.T) {
	in, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: 20, M: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	withCtx := mpss.WithContext(ctx)

	calls := map[string]func() error{
		"OptimalSchedule": func() error { _, err := mpss.OptimalSchedule(in, withCtx); return err },
		"OA":              func() error { _, err := mpss.OA(in, withCtx); return err },
		"AVR":             func() error { _, err := mpss.AVR(in, withCtx); return err },
		"MinFeasibleCap":  func() error { _, err := mpss.MinFeasibleCap(in, 1e-6, withCtx); return err },
	}
	for name, call := range calls {
		if err := call(); !errors.Is(err, mpss.ErrCanceled) {
			t.Errorf("%s: err %v, want ErrCanceled", name, err)
		}
	}

	// A background (never-canceled) context must not disturb results.
	bg := mpss.WithContext(context.Background())
	plain, err := mpss.OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	withBG, err := mpss.OptimalSchedule(in, bg)
	if err != nil {
		t.Fatal(err)
	}
	requireSameJSON(t, "uniform", 2, "ctx vs no-ctx schedule", plain.Schedule, withBG.Schedule)
}

// TestParallelismOnlyFansOutComponents pins the one meaning
// WithParallelism has: how many trace components SolveTraceStream
// solves at once. Every other entry point ignores it: a solve and a cap
// search must be bit-identical to the default's, down to the number of
// feasibility probes the search spends. The 256-job instance builds
// flow networks well past 4096 edges, so no size-gated engine switch
// can hide.
func TestParallelismOnlyFansOutComponents(t *testing.T) {
	cases := []struct {
		gen  string
		spec mpss.WorkloadSpec
	}{
		{"uniform", mpss.WorkloadSpec{N: 24, M: 3, Seed: 1}},
		{"bursty", mpss.WorkloadSpec{N: 24, M: 2, Seed: 2}},
		{"uniform", mpss.WorkloadSpec{N: 256, M: 8, Seed: 1}},
	}
	for _, c := range cases {
		in, err := mpss.GenerateWorkload(c.gen, c.spec)
		if err != nil {
			t.Fatal(err)
		}
		seed := c.spec.Seed
		base, err1 := mpss.OptimalSchedule(in)
		par, err2 := mpss.OptimalSchedule(in, mpss.WithParallelism(4))
		requireSameResult(t, c.gen, seed, "optimal", err1, err2)
		requireSameJSON(t, c.gen, seed, "optimal vs parallelism 4", base, par)
		ses, err2 := mpss.NewSolver(mpss.WithParallelism(4)).Solve(in)
		requireSameResult(t, c.gen, seed, "solver", err1, err2)
		requireSameJSON(t, c.gen, seed, "solver vs parallelism 4", base, ses)

		baseRec, parRec := mpss.NewRecorder(), mpss.NewRecorder()
		baseCap, err1 := mpss.MinFeasibleCap(in, 1e-9, mpss.WithRecorder(baseRec))
		parCap, err2 := mpss.MinFeasibleCap(in, 1e-9, mpss.WithRecorder(parRec), mpss.WithParallelism(4))
		requireSameResult(t, c.gen, seed, "mincap", err1, err2)
		if math.Float64bits(baseCap) != math.Float64bits(parCap) {
			t.Errorf("%s/%d mincap: %v by default, %v at parallelism 4", c.gen, seed, baseCap, parCap)
		}
		for _, name := range []string{"opt.feasibility_probes", "opt.probe_waves"} {
			if a, b := baseRec.Value(name), parRec.Value(name); a != b {
				t.Errorf("%s/%d mincap %s: %d by default, %d at parallelism 4", c.gen, seed, name, a, b)
			}
		}
	}
}

// TestFeasibleAtSpeedVariadic pins the redesigned signature: cap as a
// plain argument, options variadic.
func TestFeasibleAtSpeedVariadic(t *testing.T) {
	in, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: 10, M: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rec := mpss.NewRecorder()
	ok, err := mpss.FeasibleAtSpeed(in, 1e6, mpss.WithRecorder(rec))
	if err != nil || !ok {
		t.Fatalf("huge cap: ok=%v err=%v, want feasible", ok, err)
	}
	if rec.Value("opt.feasibility_probes") == 0 && rec.Value("flow.maxflow_calls") == 0 {
		t.Error("recorder option ignored by FeasibleAtSpeed")
	}
	ok, err = mpss.FeasibleAtSpeed(in, 1e-9)
	if err != nil || ok {
		t.Fatalf("tiny cap: ok=%v err=%v, want infeasible", ok, err)
	}
}
