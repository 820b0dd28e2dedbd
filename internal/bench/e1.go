package bench

import (
	"fmt"
	"math"

	"mpss/internal/bg"
	"mpss/internal/convexopt"
	"mpss/internal/opt"
	"mpss/internal/pool"
	"mpss/internal/power"
	"mpss/internal/workload"
)

// E1Row is one cell of the Theorem-1 optimality cross-check.
type E1Row struct {
	Workload string
	N, M     int
	Alpha    float64
	Opt      float64 // combinatorial optimum energy
	FWUpper  float64 // Frank-Wolfe feasible value (upper bound on OPT)
	FWLower  float64 // Frank-Wolfe certificate
	LP       float64 // BG-style LP value (upper bound, grid-limited)
	RatioFW  float64 // Opt / FWUpper — must be ~1
	RatioLP  float64 // Opt / LP     — must be <= ~1
}

// E1 cross-checks the combinatorial optimum against the convex bound and
// the LP baseline over a (workload, m, alpha) grid. The grid cells are
// independent and run on a worker pool.
func E1(cfg Config) ([]E1Row, error) {
	cfg = cfg.normalize()
	type cell struct {
		gname string
		m     int
		alpha float64
	}
	var cells []cell
	for _, gname := range []string{"uniform", "bursty"} {
		for _, m := range []int{1, 2, 4} {
			for _, alpha := range []float64{1.5, 2, 3} {
				cells = append(cells, cell{gname: gname, m: m, alpha: alpha})
			}
		}
	}
	return pool.Map(len(cells), 0, func(ci int) (E1Row, error) {
		c := cells[ci]
		gen, err := workload.ByName(c.gname)
		if err != nil {
			return E1Row{}, err
		}
		p := power.MustAlpha(c.alpha)
		var sumOpt, sumFWU, sumFWL, sumLP float64
		for seed := 0; seed < cfg.Seeds; seed++ {
			in, err := gen.Make(workload.Spec{N: cfg.N, M: c.m, Seed: int64(seed), Horizon: 30})
			if err != nil {
				return E1Row{}, err
			}
			r, err := opt.Schedule(in)
			if err != nil {
				return E1Row{}, fmt.Errorf("E1 %s m=%d seed=%d: %w", c.gname, c.m, seed, err)
			}
			e := r.Schedule.Energy(p)
			cvx, err := convexopt.Bound(in, c.alpha, 250, 1e-5)
			if err != nil {
				return E1Row{}, err
			}
			lpRes, err := bg.Solve(in, p, bg.Options{SpeedLevels: 20})
			if err != nil {
				return E1Row{}, err
			}
			sumOpt += e
			sumFWU += cvx.Upper
			sumFWL += math.Max(0, cvx.Lower)
			sumLP += lpRes.Energy
		}
		return E1Row{
			Workload: c.gname, N: cfg.N, M: c.m, Alpha: c.alpha,
			Opt:     sumOpt / float64(cfg.Seeds),
			FWUpper: sumFWU / float64(cfg.Seeds),
			FWLower: sumFWL / float64(cfg.Seeds),
			LP:      sumLP / float64(cfg.Seeds),
			RatioFW: sumOpt / sumFWU,
			RatioLP: sumOpt / sumLP,
		}, nil
	})
}

// RenderE1 prints the E1 table.
func RenderE1(rows []E1Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, d(r.N), d(r.M), f3(r.Alpha),
			f3(r.Opt), f3(r.FWUpper), f3(r.LP), f6(r.RatioFW), f6(r.RatioLP),
		})
	}
	return "E1 — Theorem 1: optimality cross-check (ratios must be ~1, <=1)\n" +
		table([]string{"workload", "n", "m", "alpha", "opt", "fw-upper", "lp", "opt/fw", "opt/lp"}, out)
}

// E1Check verifies the E1 rows against the theorem: the combinatorial
// optimum may be neither measurably above the Frank-Wolfe upper bound nor
// above the LP value.
func E1Check(rows []E1Row) error {
	for _, r := range rows {
		if r.RatioFW > 1.02 {
			return fmt.Errorf("E1 %s m=%d alpha=%v: opt exceeds convex upper bound (ratio %v)", r.Workload, r.M, r.Alpha, r.RatioFW)
		}
		// Frank-Wolfe converges at O(1/k); with the default iteration
		// budget the upper bound can sit a few percent above the optimum
		// at high alpha, so the lower-side check is intentionally loose.
		if r.RatioFW < 0.94 {
			return fmt.Errorf("E1 %s m=%d alpha=%v: opt suspiciously below convex optimum (ratio %v)", r.Workload, r.M, r.Alpha, r.RatioFW)
		}
		if r.RatioLP > 1.0+1e-6 {
			return fmt.Errorf("E1 %s m=%d alpha=%v: opt above LP upper bound (ratio %v)", r.Workload, r.M, r.Alpha, r.RatioLP)
		}
	}
	return nil
}
