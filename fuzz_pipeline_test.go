package mpss

import (
	"errors"
	"math"
	"testing"

	"mpss/internal/cert"
)

// FuzzSolvePipeline feeds raw, hostile job fields — NaN, infinities,
// inverted windows, zero processors — straight into the public solver
// entry points, bypassing NewInstance the way decoded JSON or hand-built
// struct literals can. The contract under test is the ISSUE's hardening
// guarantee: every call returns either a typed error or a feasible
// schedule; no input may panic.
func FuzzSolvePipeline(f *testing.F) {
	// Well-formed baseline.
	f.Add(int8(2), 0.0, 4.0, 8.0, 1.0, 5.0, 2.0, 0.0, 2.0, 3.0)
	// Inverted and empty windows.
	f.Add(int8(1), 5.0, 2.0, 1.0, 0.0, 0.0, 1.0, 3.0, 3.0, 1.0)
	// Hostile floats: NaN work, Inf deadline, denormal work.
	f.Add(int8(2), 0.0, 1.0, math.NaN(), 0.0, math.Inf(1), 1.0, 0.0, 1.0, 5e-324)
	// Zero processors, negative work.
	f.Add(int8(0), 0.0, 1.0, 1.0, 0.0, 2.0, -1.0, 1.0, 2.0, 1.0)
	// Range extremes: huge volumes in tiny windows (speed overflow) and
	// tiny volumes in huge windows (speed underflow).
	f.Add(int8(1), 0.0, 5e-324, math.MaxFloat64, -1e300, 1e300, 5e-324, 0.0, 1.0, 1.0)
	// Overlapping staggered windows on three processors: valid and sane,
	// so every differential leg of the body runs.
	f.Add(int8(3), 0.0, 6.0, 9.0, 1.0, 7.0, 4.0, 2.0, 8.0, 5.0)
	// Grid-aligned windows: two jobs share a window and the third spans
	// both. TestBatchExclusionMatchesReference in internal/opt solves
	// this instance and the next one with contraction on and off against
	// the one-at-a-time reference.
	f.Add(int8(2), 0.0, 4.0, 6.0, 0.0, 4.0, 3.0, 0.0, 8.0, 5.0)
	// Nested aligned windows with a shared left endpoint: three phases,
	// the last solved on a contracted network.
	f.Add(int8(2), 0.0, 2.0, 5.0, 0.0, 4.0, 2.0, 0.0, 8.0, 1.0)

	f.Fuzz(func(t *testing.T, m int8, r1, d1, w1, r2, d2, w2, r3, d3, w3 float64) {
		in := &Instance{M: int(m), Jobs: []Job{
			{ID: 1, Release: r1, Deadline: d1, Work: w1},
			{ID: 2, Release: r2, Deadline: d2, Work: w2},
			{ID: 3, Release: r3, Deadline: d3, Work: w3},
		}}
		valid := ValidateInstance(in) == nil

		check := func(name string, err error) {
			t.Helper()
			if err == nil {
				return
			}
			if !errors.Is(err, ErrInvalidInstance) && !errors.Is(err, ErrInfeasible) &&
				!errors.Is(err, ErrNumeric) && !errors.Is(err, ErrInternal) {
				t.Errorf("%s: untyped error %v", name, err)
			}
			if !valid && !errors.Is(err, ErrInvalidInstance) {
				t.Errorf("%s: invalid instance got %v, want ErrInvalidInstance", name, err)
			}
		}

		res, err := OptimalSchedule(in)
		check("OptimalSchedule", err)
		if err == nil {
			if res == nil || res.Schedule == nil {
				t.Fatal("OptimalSchedule: nil result without error")
			}
			// The solver accepted the instance: its output must verify.
			// Restrict the feasibility assertion to numerically sane
			// inputs; at float64's range edges a schedule can be
			// structurally right yet fail verification by rounding alone.
			// On them the schedule must also pass the optimality
			// certificate, which shares no code with the solver.
			if sane(in) {
				if verr := Verify(res.Schedule, in); verr != nil {
					t.Errorf("OptimalSchedule: infeasible schedule for valid instance: %v", verr)
				}
				if cerr := cert.Check(res.Schedule, in); cerr != nil {
					t.Errorf("OptimalSchedule: %v", cerr)
				}
			}
		}

		_, err = OA(in)
		check("OA", err)
		_, err = AVR(in)
		check("AVR", err)
	})
}

// sane bounds the fields to a range where float64 rounding cannot turn a
// correct schedule into a verification failure.
func sane(in *Instance) bool {
	for _, j := range in.Jobs {
		for _, v := range []float64{j.Release, j.Deadline, j.Work} {
			if math.Abs(v) > 1e9 {
				return false
			}
		}
		if j.Work < 1e-9 || j.Span() < 1e-9 {
			return false
		}
	}
	return true
}
