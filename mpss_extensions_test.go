package mpss

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

func TestPublicDiscretePipeline(t *testing.T) {
	in := quickInstance(t)
	p := MustAlpha(2)
	cont, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	menu, err := UniformSpeedMenu(cont.Phases[0].Speed*1.5, 8)
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
	contE := cont.Schedule.Energy(p)
	if disc.Energy < contE-1e-9 {
		t.Errorf("discrete %v beat continuous %v", disc.Energy, contE)
	}
}

func TestPublicBoundedSpeed(t *testing.T) {
	in := quickInstance(t)
	cap, err := MinFeasibleCap(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := FeasibleAtSpeed(in, cap*1.01)
	if err != nil || !ok {
		t.Errorf("FeasibleAtSpeed above cap: %v, %v", ok, err)
	}
	ok, err = FeasibleAtSpeed(in, cap*0.9)
	if err != nil || ok {
		t.Errorf("FeasibleAtSpeed below cap: %v, %v", ok, err)
	}
}

func TestPublicPotentialTracker(t *testing.T) {
	in := quickInstance(t)
	oa, err := OA(in)
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewPotentialTracker(in, oa, optRes.Schedule, 2)
	if err != nil {
		t.Fatal(err)
	}
	start, end := in.Horizon()
	if phi := tr.Phi(start - 1); phi != 0 {
		t.Errorf("Phi before horizon = %v", phi)
	}
	p := MustAlpha(2)
	r := tr.Drift(start, end, p)
	if r.LHS > 1e-5*(1+4*r.EOPT) {
		t.Errorf("whole-run drift positive: %+v", r)
	}
}

func TestPublicPowerConstructors(t *testing.T) {
	poly, err := NewPolynomial(PowerTerm{C: 1, E: 2}, PowerTerm{C: 0.5, E: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := poly.Power(2); math.Abs(got-5) > 1e-12 {
		t.Errorf("poly.Power(2) = %v, want 5", got)
	}
	pl, err := SamplePiecewiseAlpha(2, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Power(4) < 16-1e-9 {
		t.Errorf("PL fit below exact at breakpoint: %v", pl.Power(4))
	}
	if _, err := NewPolynomial(); err == nil {
		t.Error("empty polynomial accepted")
	}
}

func TestPublicPeriodicAndTrace(t *testing.T) {
	in, err := ExpandPeriodic(2, []PeriodicTask{
		{Period: 10, WCET: 2},
		{Period: 5, WCET: 1, Phase: 1},
	}, 20)
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

	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	back, err := InstanceFromTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != in.N() || back.M != in.M {
		t.Errorf("trace round trip: %d/%d vs %d/%d", back.N(), back.M, in.N(), in.M)
	}
}

func TestPublicMetricsAndGantt(t *testing.T) {
	in := quickInstance(t)
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Schedule.ComputeMetrics()
	if m.Jobs != in.N() || m.BusyTime <= 0 || m.Utilization <= 0 || m.Utilization > 1 {
		t.Errorf("metrics = %+v", m)
	}
	if g := res.Schedule.Gantt(40); len(g) == 0 {
		t.Error("empty Gantt")
	}
}

func TestPublicCapAndSleep(t *testing.T) {
	in := quickInstance(t)
	p := MustAlpha(3)
	cap, err := MinFeasibleCap(in, 0)
	if err != nil {
		t.Fatal(err)
	}
	race, err := ScheduleAtCap(in, cap*1.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(race, in); err != nil {
		t.Fatal(err)
	}
	start, end := in.Horizon()
	b, err := EvaluateWithSleep(race, p, SleepModel{IdlePower: 1, WakeCost: 0.5}, start, end)
	if err != nil {
		t.Fatal(err)
	}
	if b.Total <= 0 || b.Dynamic <= 0 {
		t.Errorf("breakdown = %+v", b)
	}
	if math.Abs(b.Total-(b.Dynamic+b.Static+b.Idle+b.Wake)) > 1e-9 {
		t.Errorf("breakdown does not sum: %+v", b)
	}
	if _, err := ScheduleAtCap(in, cap*0.5); err == nil {
		t.Error("infeasible cap accepted")
	}
}

func TestPublicBKP(t *testing.T) {
	in, err := NewInstance(1, quickInstance(t).Jobs)
	if err != nil {
		t.Fatal(err)
	}
	s, err := BKP(in.Jobs, 24)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(s, in); err != nil {
		t.Fatal(err)
	}
	optS, err := YDS(in.Jobs)
	if err != nil {
		t.Fatal(err)
	}
	p := MustAlpha(2)
	ratio := s.Energy(p) / optS.Energy(p)
	if ratio < 1-1e-9 || ratio > BKPBound(2) {
		t.Errorf("BKP ratio %v outside [1, %v]", ratio, BKPBound(2))
	}
}

func TestPublicPlanner(t *testing.T) {
	pl, err := NewPlanner(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := pl.Arrive(0,
		Job{ID: 1, Deadline: 4, Work: 4},
		Job{ID: 2, Deadline: 6, Work: 2},
	); err != nil {
		t.Fatal(err)
	}
	if err := pl.Arrive(2, Job{ID: 3, Deadline: 5, Work: 3}); err != nil {
		t.Fatal(err)
	}
	if err := pl.FinishHorizon(6); err != nil {
		t.Fatal(err)
	}
	in, err := NewInstance(2, []Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 4},
		{ID: 2, Release: 0, Deadline: 6, Work: 2},
		{ID: 3, Release: 2, Deadline: 5, Work: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(pl.Executed(), in); err != nil {
		t.Fatal(err)
	}
	if pl.Replans() != 2 {
		t.Errorf("replans = %d, want 2", pl.Replans())
	}
}

func TestPublicCanonicalize(t *testing.T) {
	in := quickInstance(t)
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	canon, err := Canonicalize(res.Schedule, res.Intervals)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(canon, in); err != nil {
		t.Fatal(err)
	}
	p := MustAlpha(2)
	if math.Abs(canon.Energy(p)-res.Schedule.Energy(p)) > 1e-9 {
		t.Error("canonicalization changed energy")
	}
}

func TestPublicRenderSVG(t *testing.T) {
	in := quickInstance(t)
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSVG(&buf, res.Schedule, SVGOptions{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("<svg")) {
		t.Error("no SVG root element")
	}
}

func TestPublicPowerProfile(t *testing.T) {
	in := quickInstance(t)
	res, err := OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	p := MustAlpha(2)
	prof := res.Schedule.PowerProfile(p)
	if len(prof) < 2 {
		t.Fatalf("profile too short: %v", prof)
	}
	if math.Abs(ProfileEnergy(prof)-res.Schedule.Energy(p)) > 1e-9 {
		t.Error("profile energy mismatch")
	}
}
