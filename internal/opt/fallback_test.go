package opt

import (
	"errors"
	"testing"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

func fallbackInstance(t *testing.T) *job.Instance {
	t.Helper()
	return mustInstance(t, 2, []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 1, Deadline: 5, Work: 2},
		{ID: 3, Release: 0, Deadline: 2, Work: 6},
	})
}

// TestFallbackExactRescues forces a flow invariant violation on every
// float-engine round and checks the ladder walks cold → exact, the exact
// engine produces a verified schedule, and the fallback counters fire —
// the ISSUE's "forced internal invariant violation" acceptance test.
func TestFallbackExactRescues(t *testing.T) {
	in := fallbackInstance(t)
	testHookRound = func(exact bool) {
		if !exact {
			panic(&flow.InvariantViolation{Numeric: true, Msg: "injected: drain failed to converge"})
		}
	}
	defer func() { testHookRound = nil }()

	rec := obs.New()
	res, err := Schedule(in, WithRecorder(rec))
	if err != nil {
		t.Fatalf("exact fallback should have rescued the solve, got %v", err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatalf("rescued schedule infeasible: %v", err)
	}
	if got := rec.Value("opt.fallback_cold"); got != 1 {
		t.Errorf("opt.fallback_cold = %d, want 1", got)
	}
	if got := rec.Value("opt.fallback_exact"); got != 1 {
		t.Errorf("opt.fallback_exact = %d, want 1", got)
	}
	// One float attempt warm, one cold: two contained panics.
	if got := rec.Value("opt.panics_recovered"); got != 2 {
		t.Errorf("opt.panics_recovered = %d, want 2", got)
	}
}

// TestFallbackExhausted panics on every round of every engine: the caller
// must see a typed error — never a crash — and the ladder must still have
// tried (and counted) each rung.
func TestFallbackExhausted(t *testing.T) {
	in := fallbackInstance(t)
	testHookRound = func(bool) {
		panic(&flow.InvariantViolation{Numeric: true, Msg: "injected: always fails"})
	}
	defer func() { testHookRound = nil }()

	rec := obs.New()
	res, err := Schedule(in, WithRecorder(rec))
	if err == nil {
		t.Fatal("want an error when every engine fails")
	}
	if res != nil {
		t.Errorf("want nil result with error, got %+v", res)
	}
	if !errors.Is(err, mpsserr.ErrNumeric) {
		t.Errorf("err = %v, want ErrNumeric", err)
	}
	if got := rec.Value("opt.fallback_cold"); got != 1 {
		t.Errorf("opt.fallback_cold = %d, want 1", got)
	}
	if got := rec.Value("opt.fallback_exact"); got != 1 {
		t.Errorf("opt.fallback_exact = %d, want 1", got)
	}
	if got := rec.Value("opt.panics_recovered"); got != 3 {
		t.Errorf("opt.panics_recovered = %d, want 3", got)
	}
}

// TestFallbackNonNumericPanicContained checks that an arbitrary
// (non-InvariantViolation) panic surfaces as ErrInternal — still retried
// by the ladder — and that phase/round context lands in the message.
func TestFallbackNonNumericPanicContained(t *testing.T) {
	in := fallbackInstance(t)
	testHookRound = func(bool) { panic("injected: slice index out of range") }
	defer func() { testHookRound = nil }()

	_, err := Schedule(in)
	if err == nil {
		t.Fatal("want an error")
	}
	if !errors.Is(err, mpsserr.ErrInternal) {
		t.Errorf("err = %v, want ErrInternal", err)
	}
}

// TestExactPathNoLadder: an explicit Exact() run has no deeper rung to
// fall back to, so an injected violation must surface immediately as a
// typed error with no fallback counters.
func TestExactPathNoLadder(t *testing.T) {
	in := fallbackInstance(t)
	testHookRound = func(exact bool) {
		if exact {
			panic(&flow.InvariantViolation{Numeric: false, Msg: "injected: exact invariant"})
		}
	}
	defer func() { testHookRound = nil }()

	rec := obs.New()
	_, err := Schedule(in, Exact(), WithRecorder(rec))
	if !errors.Is(err, mpsserr.ErrInternal) {
		t.Errorf("err = %v, want ErrInternal", err)
	}
	if got := rec.Value("opt.fallback_cold") + rec.Value("opt.fallback_exact"); got != 0 {
		t.Errorf("fallback counters = %d, want 0 on the explicit exact path", got)
	}
}

// TestFallbackColdRescues: a violation only on the default in-place
// path — simulated by failing just the first float attempt — is rescued
// by the cold rung without reaching exact.
func TestFallbackColdRescues(t *testing.T) {
	in := fallbackInstance(t)
	calls := 0
	testHookRound = func(exact bool) {
		calls++
		if calls == 1 {
			panic(&flow.InvariantViolation{Numeric: true, Msg: "injected: warm-only failure"})
		}
	}
	defer func() { testHookRound = nil }()

	rec := obs.New()
	res, err := Schedule(in, WithRecorder(rec))
	if err != nil {
		t.Fatalf("cold fallback should have rescued the solve, got %v", err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatalf("rescued schedule infeasible: %v", err)
	}
	if got := rec.Value("opt.fallback_cold"); got != 1 {
		t.Errorf("opt.fallback_cold = %d, want 1", got)
	}
	if got := rec.Value("opt.fallback_exact"); got != 0 {
		t.Errorf("opt.fallback_exact = %d, want 0", got)
	}
}

// TestValidateForSolve covers the solver-boundary input check directly.
func TestValidateForSolve(t *testing.T) {
	cases := []struct {
		name string
		in   *job.Instance
	}{
		{"nil instance", nil},
		{"no processors", &job.Instance{M: 0, Jobs: []job.Job{{ID: 1, Release: 0, Deadline: 1, Work: 1}}}},
		{"empty", &job.Instance{M: 1}},
		{"bad job", &job.Instance{M: 1, Jobs: []job.Job{{ID: 1, Release: 2, Deadline: 1, Work: 1}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Schedule(tc.in)
			if !errors.Is(err, mpsserr.ErrInvalidInstance) {
				t.Errorf("err = %v, want ErrInvalidInstance", err)
			}
			if res != nil {
				t.Errorf("want nil result, got %+v", res)
			}
		})
	}
}
