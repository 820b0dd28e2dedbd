package bench

import (
	"fmt"
	"math"

	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
)

// E14Row probes the paper's second open problem: "devise and analyze
// online algorithms for general convex power functions. Even for a
// single processor, no competitive strategy is known."
//
// OA(m) is a natural candidate: its schedule never consults the power
// function (it replans with the offline optimum, which is
// simultaneously optimal for every convex non-decreasing P), so it IS a
// well-defined online algorithm for general convex P — only its
// competitive ratio is unknown. Because our offline optimum is also
// P-oblivious, the true optimum under any convex P is computable, and
// the ratio can be measured. No violation check applies (there is no
// proven bound); the experiment reports the observed range.
type E14Row struct {
	Workload string
	PowerFn  string
	M        int
	Seeds    int
	MeanOA   float64
	MaxOA    float64
	MeanAVR  float64
	MaxAVR   float64
}

// E14 measures OA(m) and AVR(m) under non-polynomial convex power
// functions.
func E14(cfg Config) ([]E14Row, error) {
	cfg = cfg.normalize()
	poly, err := power.NewPolynomial(power.Term{C: 1, E: 2}, power.Term{C: 0.5, E: 1})
	if err != nil {
		return nil, err
	}
	// Sample the PL fit over the speed range these workloads actually
	// use; below the first breakpoint a chord through the origin is
	// linear, and under linear power all feasible schedules cost the
	// same, which would blunt the probe.
	pl, err := power.SampleAlpha(2.5, 4, 32)
	if err != nil {
		return nil, err
	}
	powers := []struct {
		name string
		p    power.Function
	}{
		{"s^2+0.5s", poly},
		{"PL(s^2.5)", pl},
	}

	var rows []E14Row
	for _, gname := range []string{"uniform", "bursty"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, pf := range powers {
			for _, m := range []int{1, 2, 4} {
				row := E14Row{Workload: gname, PowerFn: pf.name, M: m, Seeds: cfg.Seeds}
				for seed := 0; seed < cfg.Seeds; seed++ {
					in, err := gen.Make(workload.Spec{N: cfg.N, M: m, Seed: int64(seed)})
					if err != nil {
						return nil, err
					}
					optRes, err := opt.Schedule(in)
					if err != nil {
						return nil, fmt.Errorf("E14 %s m=%d seed=%d: %w", gname, m, seed, err)
					}
					optE := optRes.Schedule.Energy(pf.p)
					oa, err := online.OA(in)
					if err != nil {
						return nil, err
					}
					avr, err := online.AVR(in)
					if err != nil {
						return nil, err
					}
					rOA := oa.Schedule.Energy(pf.p) / optE
					rAVR := avr.Schedule.Energy(pf.p) / optE
					row.MeanOA += rOA
					row.MeanAVR += rAVR
					row.MaxOA = math.Max(row.MaxOA, rOA)
					row.MaxAVR = math.Max(row.MaxAVR, rAVR)
				}
				row.MeanOA /= float64(cfg.Seeds)
				row.MeanAVR /= float64(cfg.Seeds)
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderE14 prints the E14 table.
func RenderE14(rows []E14Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, r.PowerFn, d(r.M), d(r.Seeds),
			f4(r.MeanOA), f4(r.MaxOA), f4(r.MeanAVR), f4(r.MaxAVR),
		})
	}
	return "E14 — open problem probe: OA(m)/AVR(m) under general convex power functions (no proven bound exists)\n" +
		table([]string{"workload", "power", "m", "seeds", "oa-mean", "oa-max", "avr-mean", "avr-max"}, out)
}

// E14Check only sanity-checks that no online algorithm beat the optimum.
func E14Check(rows []E14Row) error {
	for _, r := range rows {
		if r.MeanOA < 1-1e-6 || r.MeanAVR < 1-1e-6 {
			return fmt.Errorf("E14 %s %s m=%d: ratio below 1 (optimum not optimal?)", r.Workload, r.PowerFn, r.M)
		}
	}
	return nil
}
