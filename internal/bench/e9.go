package bench

import (
	"fmt"
	"math"

	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
	"mpss/internal/yds"
)

// E9Row compares the multi-processor algorithm at m = 1 against the
// classic YDS optimum across instance sizes.
type E9Row struct {
	N         int
	Seeds     int
	MaxDiff   float64 // max relative energy difference; must be ~0
	OptRounds int     // average flow rounds used by the m=1 run
}

// E9 confirms that the m-processor algorithm degenerates to YDS on a
// single processor.
func E9(cfg Config, sizes []int) ([]E9Row, error) {
	cfg = cfg.normalize()
	if len(sizes) == 0 {
		sizes = []int{4, 8, 16, 32}
	}
	p := power.MustAlpha(2.5)
	var rows []E9Row
	for _, n := range sizes {
		row := E9Row{N: n, Seeds: cfg.Seeds}
		rounds := 0
		for seed := 0; seed < cfg.Seeds; seed++ {
			in, err := workload.Uniform(workload.Spec{N: n, M: 1, Seed: int64(seed)})
			if err != nil {
				return nil, err
			}
			multi, err := opt.Schedule(in)
			if err != nil {
				return nil, fmt.Errorf("E9 n=%d seed=%d: %w", n, seed, err)
			}
			rounds += multi.Stats.Rounds
			single, err := yds.Energy(in.Jobs, p)
			if err != nil {
				return nil, err
			}
			diff := math.Abs(multi.Schedule.Energy(p)-single) / (1 + single)
			if diff > row.MaxDiff {
				row.MaxDiff = diff
			}
		}
		row.OptRounds = rounds / cfg.Seeds
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderE9 prints the E9 table.
func RenderE9(rows []E9Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{d(r.N), d(r.Seeds), f6(r.MaxDiff), d(r.OptRounds)})
	}
	return "E9 — degeneration: |opt(m=1) - YDS| / YDS (must be ~0)\n" +
		table([]string{"n", "seeds", "max-rel-diff", "avg-flow-rounds"}, out)
}

// E9Check enforces agreement.
func E9Check(rows []E9Row) error {
	for _, r := range rows {
		if r.MaxDiff > 1e-6 {
			return fmt.Errorf("E9 n=%d: opt(m=1) deviates from YDS by %v", r.N, r.MaxDiff)
		}
	}
	return nil
}
