package bench

import (
	"fmt"
	"math"

	"mpss/internal/job"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
	"mpss/internal/yds"
)

// E8Row verifies one cell of the power inequality from the proof of
// Theorem 3 (equation (10)): E_OPT(m) >= m^(1-alpha) * E^1_OPT.
type E8Row struct {
	Workload string
	M        int
	Alpha    float64
	Seeds    int
	MinRatio float64 // min over seeds of E_OPT(m) / (m^(1-alpha) E^1_OPT); must be >= 1
	MaxRatio float64
}

// E8 measures the relation between the m-processor optimum and the
// single-processor optimum that anchors the AVR(m) analysis.
func E8(cfg Config) ([]E8Row, error) {
	cfg = cfg.normalize()
	var rows []E8Row
	for _, gname := range []string{"uniform", "bursty"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, m := range []int{2, 4, 8} {
			for _, alpha := range []float64{2.0, 3.0} {
				p := power.MustAlpha(alpha)
				row := E8Row{Workload: gname, M: m, Alpha: alpha, Seeds: cfg.Seeds, MinRatio: 1e18}
				for seed := 0; seed < cfg.Seeds; seed++ {
					base, err := gen.Make(workload.Spec{N: cfg.N, M: 1, Seed: int64(seed)})
					if err != nil {
						return nil, err
					}
					single, err := yds.Energy(base.Jobs, p)
					if err != nil {
						return nil, err
					}
					inM, err := job.NewInstance(m, base.Jobs)
					if err != nil {
						return nil, err
					}
					multi, err := opt.Schedule(inM)
					if err != nil {
						return nil, fmt.Errorf("E8 %s m=%d seed=%d: %w", gname, m, seed, err)
					}
					bound := math.Pow(float64(m), 1-alpha) * single
					ratio := multi.Schedule.Energy(p) / bound
					if ratio < row.MinRatio {
						row.MinRatio = ratio
					}
					if ratio > row.MaxRatio {
						row.MaxRatio = ratio
					}
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// RenderE8 prints the E8 table.
func RenderE8(rows []E8Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, d(r.M), f3(r.Alpha), d(r.Seeds), f4(r.MinRatio), f4(r.MaxRatio),
		})
	}
	return "E8 — Theorem 3 proof chain: E_OPT(m) / (m^(1-alpha) E^1_OPT) (must be >= 1)\n" +
		table([]string{"workload", "m", "alpha", "seeds", "min-ratio", "max-ratio"}, out)
}

// E8Check enforces the inequality.
func E8Check(rows []E8Row) error {
	for _, r := range rows {
		if r.MinRatio < 1-1e-6 {
			return fmt.Errorf("E8 %s m=%d alpha=%v: ratio %v violates E_OPT(m) >= m^(1-alpha) E^1_OPT",
				r.Workload, r.M, r.Alpha, r.MinRatio)
		}
	}
	return nil
}
