package bench

import (
	"fmt"
	"math"

	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/workload"
)

// E7Row quantifies the energy premium of forbidding migration for one
// (workload, m) cell: the ratio baseline / migratory-optimum per
// assignment policy.
type E7Row struct {
	Workload   string
	M          int
	Seeds      int
	Random     float64 // random assignment + per-processor YDS
	RoundRobin float64
	LeastWork  float64
	BestOf3    float64 // min of the three, averaged over seeds
	// OptMigrations is the mean number of job migrations the optimal
	// schedule performs — the price (in scheduler events, not energy) of
	// the savings above.
	OptMigrations float64
}

// E7 compares the migratory optimum against non-migratory baselines in
// the style of reference [8] (assignment + YDS per processor).
func E7(cfg Config) ([]E7Row, error) {
	cfg = cfg.normalize()
	p := power.MustAlpha(2)
	var rows []E7Row
	for _, gname := range []string{"uniform", "bursty", "longshort"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, m := range []int{2, 4, 8} {
			row := E7Row{Workload: gname, M: m, Seeds: cfg.Seeds}
			for seed := 0; seed < cfg.Seeds; seed++ {
				in, err := gen.Make(workload.Spec{N: cfg.N, M: m, Seed: int64(seed)})
				if err != nil {
					return nil, err
				}
				optRes, err := opt.Schedule(in)
				if err != nil {
					return nil, fmt.Errorf("E7 %s m=%d seed=%d: %w", gname, m, seed, err)
				}
				optE := optRes.Schedule.Energy(p)
				row.OptMigrations += float64(optRes.Schedule.ComputeMetrics().Migrations)
				ratio := func(a online.Assignment) (float64, error) {
					s, err := online.NonMigratory(in, a)
					if err != nil {
						return 0, err
					}
					return s.Energy(p) / optE, nil
				}
				r1, err := ratio(online.RandomAssignment(int64(seed) + 1))
				if err != nil {
					return nil, err
				}
				r2, err := ratio(online.RoundRobinAssignment())
				if err != nil {
					return nil, err
				}
				r3, err := ratio(online.LeastWorkAssignment())
				if err != nil {
					return nil, err
				}
				row.Random += r1
				row.RoundRobin += r2
				row.LeastWork += r3
				row.BestOf3 += math.Min(r1, math.Min(r2, r3))
			}
			s := float64(cfg.Seeds)
			row.Random /= s
			row.RoundRobin /= s
			row.LeastWork /= s
			row.BestOf3 /= s
			row.OptMigrations /= s
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderE7 prints the E7 table.
func RenderE7(rows []E7Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, d(r.M), d(r.Seeds),
			f3(r.Random), f3(r.RoundRobin), f3(r.LeastWork), f3(r.BestOf3),
			f3(r.OptMigrations),
		})
	}
	return "E7 — value of migration: non-migratory baseline energy / migratory optimum (alpha=2)\n" +
		table([]string{"workload", "m", "seeds", "random", "round-robin", "least-work", "best-of-3", "opt-migrations"}, out)
}

// E7Check requires all baselines to be at least as expensive as the
// migratory optimum.
func E7Check(rows []E7Row) error {
	for _, r := range rows {
		for name, v := range map[string]float64{
			"random": r.Random, "round-robin": r.RoundRobin, "least-work": r.LeastWork,
		} {
			if v < 1-1e-6 {
				return fmt.Errorf("E7 %s m=%d: %s baseline ratio %v below 1", r.Workload, r.M, name, v)
			}
		}
	}
	return nil
}
