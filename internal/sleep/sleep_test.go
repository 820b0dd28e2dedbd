package sleep

import (
	"math"
	"testing"

	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/workload"
)

func TestModelValidate(t *testing.T) {
	if err := (Model{IdlePower: 1, WakeCost: 2}).Validate(); err != nil {
		t.Errorf("valid model rejected: %v", err)
	}
	for _, m := range []Model{
		{IdlePower: -1}, {WakeCost: -1},
		{IdlePower: math.NaN()}, {WakeCost: math.Inf(1)},
	} {
		if err := m.Validate(); err == nil {
			t.Errorf("invalid model accepted: %+v", m)
		}
	}
}

func TestBreakEven(t *testing.T) {
	if got := (Model{IdlePower: 2, WakeCost: 6}).BreakEven(); got != 3 {
		t.Errorf("BreakEven = %v, want 3", got)
	}
	if got := (Model{IdlePower: 0, WakeCost: 6}).BreakEven(); !math.IsInf(got, 1) {
		t.Errorf("BreakEven = %v, want +Inf", got)
	}
}

func TestEvaluateSleepVsIdle(t *testing.T) {
	p := power.MustAlpha(2)
	s := schedule.New(1)
	s.Add(schedule.Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 2})
	s.Add(schedule.Segment{Proc: 0, Start: 5, End: 6, JobID: 2, Speed: 2}) // gap of 4

	// Idle power 1, wake cost 10: idling the 4-gap (cost 4) beats
	// sleeping (cost 10).
	b, err := Evaluate(s, p, Model{IdlePower: 1, WakeCost: 10}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b.IdleGaps != 1 || b.Sleeps != 1 { // one idle gap + the initial wake
		t.Errorf("breakdown = %+v", b)
	}
	// Dynamic 4+4, static 2*1 while running, idle 4, wake 10.
	if math.Abs(b.Total-(8+2+4+10)) > 1e-9 {
		t.Errorf("Total = %v, want 24", b.Total)
	}

	// Wake cost 2: sleeping the gap (2) beats idling (4).
	b2, err := Evaluate(s, p, Model{IdlePower: 1, WakeCost: 2}, 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if b2.Sleeps != 2 || b2.IdleGaps != 0 {
		t.Errorf("breakdown = %+v", b2)
	}
	// Dynamic 8, static 2, no idle, two wakes at 2.
	if math.Abs(b2.Total-(8+2+0+4)) > 1e-9 {
		t.Errorf("Total = %v, want 14", b2.Total)
	}
}

func TestEvaluateValidation(t *testing.T) {
	p := power.MustAlpha(2)
	s := schedule.New(1)
	if _, err := Evaluate(s, p, Model{IdlePower: -1}, 0, 1); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := Evaluate(s, p, Model{}, 2, 1); err == nil {
		t.Error("inverted horizon accepted")
	}
}

// With leakage, racing at a fixed high frequency and sleeping can beat
// the stretch-everything optimum — the tension the paper's conclusion
// describes. This test exhibits the crossover on one instance.
func TestRaceToIdleCrossover(t *testing.T) {
	in, err := workload.Uniform(workload.Spec{N: 8, M: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	p := power.MustAlpha(3)

	optRes, err := opt.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	capSpeed, err := opt.MinFeasibleCap(in)
	if err != nil {
		t.Fatal(err)
	}
	race, err := opt.ScheduleAtCap(in, capSpeed*2) // race well above the minimum
	if err != nil {
		t.Fatal(err)
	}
	start, end := in.Horizon()

	// Without leakage, stretching wins.
	noLeak := Model{IdlePower: 0, WakeCost: 0}
	bOpt, err := Evaluate(optRes.Schedule, p, noLeak, start, end)
	if err != nil {
		t.Fatal(err)
	}
	bRace, err := Evaluate(race, p, noLeak, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if bOpt.Total >= bRace.Total {
		t.Fatalf("without leakage stretch (%v) should beat race (%v)", bOpt.Total, bRace.Total)
	}

	// With heavy leakage and cheap wake-ups, racing to sleep wins.
	leak := Model{IdlePower: 5 * math.Pow(capSpeed, 3), WakeCost: 1e-3}
	bOptL, err := Evaluate(optRes.Schedule, p, leak, start, end)
	if err != nil {
		t.Fatal(err)
	}
	bRaceL, err := Evaluate(race, p, leak, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if bRaceL.Total >= bOptL.Total {
		t.Fatalf("with heavy leakage race (%v) should beat stretch (%v)", bRaceL.Total, bOptL.Total)
	}
}

func TestEvaluateMonotoneInIdlePower(t *testing.T) {
	in, err := workload.Bursty(workload.Spec{N: 8, M: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := opt.Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	p := power.MustAlpha(2)
	start, end := in.Horizon()
	prev := -1.0
	for _, idle := range []float64{0, 0.1, 0.5, 2, 10} {
		b, err := Evaluate(optRes.Schedule, p, Model{IdlePower: idle, WakeCost: 3}, start, end)
		if err != nil {
			t.Fatal(err)
		}
		if b.Total < prev-1e-9 {
			t.Errorf("total energy decreased when idle power rose to %v", idle)
		}
		prev = b.Total
	}
}

func TestEvaluateEmptySchedule(t *testing.T) {
	b, err := Evaluate(schedule.New(2), power.MustAlpha(2), Model{IdlePower: 1, WakeCost: 1}, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total != 0 {
		t.Errorf("empty schedule total = %v", b.Total)
	}
}
