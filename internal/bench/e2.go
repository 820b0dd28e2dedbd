package bench

import (
	"fmt"
	"time"

	"mpss/internal/bg"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
)

// E2Row is one size point of the combinatorial-vs-LP runtime comparison.
// LPNanos is zero when the LP leg was skipped (n above lpSizeCap).
type E2Row struct {
	N         int
	OptNanos  int64 // wall time of the flow-based optimum
	LPNanos   int64 // wall time of the LP baseline (0 = skipped)
	Speedup   float64
	OptRounds int // flow computations used
	LPVars    int
	LPPivots  int
}

// lpSizeCap bounds the LP leg of E2: beyond it the dense-tableau simplex
// takes minutes to hours, which is exactly the impracticality the paper
// reports about the LP approach — observed once, not re-measured on
// every run.
const lpSizeCap = 24

// E2 measures how the combinatorial algorithm and the LP baseline scale
// with the number of jobs — the comparison that motivates the paper's
// Section 2 ("the complexity of [the LP] algorithm is too high for most
// practical applications").
func E2(cfg Config, sizes []int) ([]E2Row, error) {
	cfg = cfg.normalize()
	if len(sizes) == 0 {
		sizes = []int{8, 16, 32, 64}
	}
	p := power.MustAlpha(2)
	var rows []E2Row
	for _, n := range sizes {
		var optNs, lpNs int64
		var rounds, vars, pivots int
		for seed := 0; seed < cfg.Seeds; seed++ {
			in, err := workload.Uniform(workload.Spec{N: n, M: 4, Seed: int64(seed), Horizon: 50})
			if err != nil {
				return nil, err
			}
			t0 := time.Now()
			r, err := opt.Schedule(in, opt.WithRecorder(cfg.Recorder))
			if err != nil {
				return nil, fmt.Errorf("E2 n=%d seed=%d: %w", n, seed, err)
			}
			optNs += time.Since(t0).Nanoseconds()
			rounds += r.Stats.Rounds

			if n <= lpSizeCap {
				t1 := time.Now()
				lpRes, err := bg.Solve(in, p, bg.Options{SpeedLevels: 10})
				if err != nil {
					return nil, fmt.Errorf("E2 LP n=%d seed=%d: %w", n, seed, err)
				}
				lpNs += time.Since(t1).Nanoseconds()
				vars += lpRes.Vars
				pivots += lpRes.Pivots
			}
		}
		s := cfg.Seeds
		row := E2Row{
			N:         n,
			OptNanos:  optNs / int64(s),
			OptRounds: rounds / s,
		}
		if lpNs > 0 {
			row.LPNanos = lpNs / int64(s)
			row.Speedup = float64(lpNs) / float64(optNs)
			row.LPVars = vars / s
			row.LPPivots = pivots / s
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderE2 prints the E2 table.
func RenderE2(rows []E2Row) string {
	out := [][]string{}
	for _, r := range rows {
		lpTime, speedup, lpVars, lpPivots := "-", "-", "-", "-"
		if r.LPNanos > 0 {
			lpTime, speedup = dur(r.LPNanos), f3(r.Speedup)
			lpVars, lpPivots = d(r.LPVars), d(r.LPPivots)
		}
		out = append(out, []string{
			d(r.N), dur(r.OptNanos), lpTime, speedup,
			d(r.OptRounds), lpVars, lpPivots,
		})
	}
	return "E2 — Theorem 1 motivation: flow-based optimum vs LP baseline runtime (m=4)\n" +
		table([]string{"n", "opt-time", "lp-time", "lp/opt", "flow-rounds", "lp-vars", "lp-pivots"}, out)
}
