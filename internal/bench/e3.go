package bench

import (
	"fmt"
	"math"

	"mpss/internal/job"
	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
)

// RatioRow is one cell of a competitive-ratio sweep (used by E3 and E4).
type RatioRow struct {
	Algorithm string
	Workload  string
	Alpha     float64
	M         int
	Mean      float64 // mean measured ratio over seeds
	Max       float64 // worst measured ratio
	Bound     float64 // proven competitive ratio
	Seeds     int
}

// E3 measures the competitive ratio of OA(m) across alphas, machine
// counts and workloads against the alpha^alpha bound of Theorem 2,
// including the common-deadline gadget that stresses the replanning.
func E3(cfg Config) ([]RatioRow, error) {
	runOA := func(in ratioInstance) (float64, error) {
		r, err := online.OA(in.in, online.WithRecorder(cfg.Recorder))
		if err != nil {
			return 0, err
		}
		if err := r.Schedule.Verify(in.in); err != nil {
			return 0, fmt.Errorf("OA schedule infeasible: %w", err)
		}
		return r.Schedule.Energy(in.p), nil
	}
	rows, err := ratioSweep(cfg, "OA", runOA, func(p power.Alpha) float64 { return p.OABound() })
	if err != nil {
		return nil, err
	}
	for _, alpha := range []float64{1.5, 2, 3} {
		p := power.MustAlpha(alpha)
		for _, m := range []int{1, 2} {
			in, err := workload.OAAdversarial(workload.Spec{N: 10, M: m, Seed: 1})
			if err != nil {
				return nil, err
			}
			optRes, err := opt.Schedule(in)
			if err != nil {
				return nil, err
			}
			algE, err := runOA(ratioInstance{in: in, p: p})
			if err != nil {
				return nil, err
			}
			ratio := algE / optRes.Schedule.Energy(p)
			rows = append(rows, RatioRow{
				Algorithm: "OA", Workload: "oa-adversarial", Alpha: alpha, M: m,
				Mean: ratio, Max: ratio, Bound: p.OABound(), Seeds: 1,
			})
		}
	}
	return rows, nil
}

// E4 measures the competitive ratio of AVR(m) against the
// (2 alpha)^alpha / 2 + 1 bound of Theorem 3, including the adversarial
// nested-deadline gadget.
func E4(cfg Config) ([]RatioRow, error) {
	rows, err := ratioSweep(cfg, "AVR", func(in ratioInstance) (float64, error) {
		r, err := online.AVR(in.in, online.WithRecorder(cfg.Recorder))
		if err != nil {
			return 0, err
		}
		if err := r.Schedule.Verify(in.in); err != nil {
			return 0, fmt.Errorf("AVR schedule infeasible: %w", err)
		}
		return r.Schedule.Energy(in.p), nil
	}, func(p power.Alpha) float64 { return p.AVRBound() })
	if err != nil {
		return nil, err
	}
	// Adversarial gadget rows: nested deadlines blow up the accumulated
	// density, pushing AVR toward its bound.
	cfgN := cfg.normalize()
	for _, alpha := range []float64{1.5, 2, 3} {
		p := power.MustAlpha(alpha)
		for _, m := range []int{1, 2} {
			in, err := workload.AVRAdversarial(workload.Spec{N: 10, M: m, Seed: 1})
			if err != nil {
				return nil, err
			}
			optRes, err := opt.Schedule(in)
			if err != nil {
				return nil, err
			}
			optE := optRes.Schedule.Energy(p)
			r, err := online.AVR(in)
			if err != nil {
				return nil, err
			}
			ratio := r.Schedule.Energy(p) / optE
			rows = append(rows, RatioRow{
				Algorithm: "AVR", Workload: "avr-adversarial", Alpha: alpha, M: m,
				Mean: ratio, Max: ratio, Bound: p.AVRBound(), Seeds: 1,
			})
		}
	}
	_ = cfgN
	return rows, nil
}

type ratioInstance struct {
	in *job.Instance
	p  power.Alpha
}

// ratioSweep runs an online algorithm over the (workload, alpha, m) grid
// and reports measured ratios against the proven bound.
func ratioSweep(cfg Config, name string, run func(ratioInstance) (float64, error), bound func(power.Alpha) float64) ([]RatioRow, error) {
	cfg = cfg.normalize()
	var rows []RatioRow
	for _, gname := range []string{"uniform", "bursty", "tight"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, alpha := range []float64{1.5, 2, 2.5, 3} {
			p := power.MustAlpha(alpha)
			for _, m := range []int{1, 2, 4} {
				var sum, worst float64
				for seed := 0; seed < cfg.Seeds; seed++ {
					in, err := gen.Make(workload.Spec{N: cfg.N, M: m, Seed: int64(seed)})
					if err != nil {
						return nil, err
					}
					optRes, err := opt.Schedule(in)
					if err != nil {
						return nil, fmt.Errorf("%s %s m=%d seed=%d: %w", name, gname, m, seed, err)
					}
					optE := optRes.Schedule.Energy(p)
					algE, err := run(ratioInstance{in: in, p: p})
					if err != nil {
						return nil, fmt.Errorf("%s %s m=%d seed=%d: %w", name, gname, m, seed, err)
					}
					ratio := algE / optE
					sum += ratio
					worst = math.Max(worst, ratio)
				}
				rows = append(rows, RatioRow{
					Algorithm: name, Workload: gname, Alpha: alpha, M: m,
					Mean: sum / float64(cfg.Seeds), Max: worst,
					Bound: bound(p), Seeds: cfg.Seeds,
				})
			}
		}
	}
	return rows, nil
}

// RenderRatios prints an E3/E4 table.
func RenderRatios(title string, rows []RatioRow) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Algorithm, r.Workload, f3(r.Alpha), d(r.M),
			f4(r.Mean), f4(r.Max), f3(r.Bound), d(r.Seeds),
		})
	}
	return title + "\n" +
		table([]string{"alg", "workload", "alpha", "m", "mean-ratio", "max-ratio", "bound", "seeds"}, out)
}

// RatioCheck verifies that every measured ratio respects [1, bound].
func RatioCheck(rows []RatioRow) error {
	for _, r := range rows {
		if r.Max > r.Bound+1e-6 {
			return fmt.Errorf("%s on %s (alpha=%v m=%d): measured ratio %v exceeds proven bound %v",
				r.Algorithm, r.Workload, r.Alpha, r.M, r.Max, r.Bound)
		}
		if r.Mean < 1-1e-6 {
			return fmt.Errorf("%s on %s (alpha=%v m=%d): mean ratio %v below 1",
				r.Algorithm, r.Workload, r.Alpha, r.M, r.Mean)
		}
	}
	return nil
}
