package bench

import (
	"fmt"
	"math"

	"mpss/internal/job"
	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
	"mpss/internal/yds"
)

// E10Row audits the energy decomposition inside the proof of Theorem 3
// (inequality (9) and the two bounds on its terms):
//
//	E_AVR(m) <= m^(1-alpha) * sum_t Delta_t^alpha |I_t|  +  sum_i delta_i^alpha (d_i - r_i)
//	            `------------- term1 -------------'        `-------- term2 --------'
//	term1 <= (2 alpha)^alpha / 2 * E^1_OPT   (single-processor AVR bound [15])
//	term2 <= E_OPT(m)                        (per-job density lower bound)
type E10Row struct {
	Workload string
	Alpha    float64
	M        int
	Seeds    int
	Decomp   float64 // max over seeds of E_AVR / (m^(1-a) term1 + term2); <= 1
	Term1    float64 // max over seeds of term1 / ((2a)^a/2 * E1_OPT); <= 1
	Term2    float64 // max over seeds of term2 / E_OPT(m); <= 1
}

// E10 measures the three inequalities chained in the proof of Theorem 3.
func E10(cfg Config) ([]E10Row, error) {
	cfg = cfg.normalize()
	var rows []E10Row
	for _, gname := range []string{"uniform", "bursty"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, alpha := range []float64{2, 3} {
			p := power.MustAlpha(alpha)
			for _, m := range []int{2, 4} {
				row := E10Row{Workload: gname, Alpha: alpha, M: m, Seeds: cfg.Seeds}
				for seed := 0; seed < cfg.Seeds; seed++ {
					in, err := gen.Make(workload.Spec{N: cfg.N, M: m, Seed: int64(seed)})
					if err != nil {
						return nil, err
					}
					avr, err := online.AVR(in)
					if err != nil {
						return nil, fmt.Errorf("E10 %s seed=%d: %w", gname, seed, err)
					}
					eAVR := avr.Schedule.Energy(p)

					term1 := accumulatedDensityEnergy(in, alpha)
					term2 := perJobDensityEnergy(in, alpha)

					optRes, err := opt.Schedule(in)
					if err != nil {
						return nil, err
					}
					eOPT := optRes.Schedule.Energy(p)
					e1, err := yds.Energy(in.Jobs, p)
					if err != nil {
						return nil, err
					}

					decomp := eAVR / (math.Pow(float64(m), 1-alpha)*term1 + term2)
					t1 := term1 / (math.Pow(2*alpha, alpha) / 2 * e1)
					t2 := term2 / eOPT
					row.Decomp = math.Max(row.Decomp, decomp)
					row.Term1 = math.Max(row.Term1, t1)
					row.Term2 = math.Max(row.Term2, t2)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// accumulatedDensityEnergy is sum_t Delta_t^alpha |I_t| — the energy the
// single-processor AVR algorithm would consume on this job sequence.
func accumulatedDensityEnergy(in *job.Instance, alpha float64) float64 {
	ivs := job.Partition(in.Jobs)
	var e float64
	for _, iv := range ivs {
		var density float64
		for _, j := range in.Jobs {
			if j.ActiveIn(iv.Start, iv.End) {
				density += j.Density()
			}
		}
		e += math.Pow(density, alpha) * iv.Len()
	}
	return e
}

// perJobDensityEnergy is sum_i delta_i^alpha (d_i - r_i) — each job's
// energy if it ran alone at its density, a lower bound on any schedule.
func perJobDensityEnergy(in *job.Instance, alpha float64) float64 {
	var e float64
	for _, j := range in.Jobs {
		e += math.Pow(j.Density(), alpha) * j.Span()
	}
	return e
}

// RenderE10 prints the E10 table.
func RenderE10(rows []E10Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, f3(r.Alpha), d(r.M), d(r.Seeds),
			f4(r.Decomp), f4(r.Term1), f4(r.Term2),
		})
	}
	return "E10 — Theorem 3 decomposition: each normalized term must be <= 1\n" +
		table([]string{"workload", "alpha", "m", "seeds", "decomp", "term1/bound", "term2/opt"}, out)
}

// E10Check enforces all three inequalities.
func E10Check(rows []E10Row) error {
	for _, r := range rows {
		if r.Decomp > 1+1e-6 {
			return fmt.Errorf("E10 %s alpha=%v m=%d: decomposition ratio %v > 1", r.Workload, r.Alpha, r.M, r.Decomp)
		}
		if r.Term1 > 1+1e-6 {
			return fmt.Errorf("E10 %s alpha=%v m=%d: term1 ratio %v > 1", r.Workload, r.Alpha, r.M, r.Term1)
		}
		if r.Term2 > 1+1e-6 {
			return fmt.Errorf("E10 %s alpha=%v m=%d: term2 ratio %v > 1", r.Workload, r.Alpha, r.M, r.Term2)
		}
	}
	return nil
}
