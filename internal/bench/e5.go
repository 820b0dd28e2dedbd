package bench

import (
	"fmt"

	"mpss/internal/opt"
	"mpss/internal/workload"
)

// E5Row summarizes the structural invariants (Lemmas 1-3) over one
// workload family.
type E5Row struct {
	Workload       string
	Seeds          int
	MaxPhases      int // max p observed (Lemma 1: p <= n)
	N              int
	SpeedsMonotone bool // phase speeds strictly decreasing
	Lemma3Holds    bool // m_ij = min(n_ij, m - sum m_lj) in every cell
	AvgRounds      float64
}

// E5 checks the structure of optimal schedules on random instances:
// at most n distinct speeds, strictly decreasing phase speeds, and the
// Lemma 3 processor-count formula.
func E5(cfg Config) ([]E5Row, error) {
	cfg = cfg.normalize()
	var rows []E5Row
	for _, gname := range []string{"uniform", "bursty", "staircase", "tight"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		row := E5Row{Workload: gname, Seeds: cfg.Seeds, N: cfg.N, SpeedsMonotone: true, Lemma3Holds: true}
		var rounds int
		for seed := 0; seed < cfg.Seeds; seed++ {
			in, err := gen.Make(workload.Spec{N: cfg.N, M: 3, Seed: int64(seed)})
			if err != nil {
				return nil, err
			}
			res, err := opt.Schedule(in)
			if err != nil {
				return nil, fmt.Errorf("E5 %s seed=%d: %w", gname, seed, err)
			}
			rounds += res.Stats.Rounds
			if len(res.Phases) > row.MaxPhases {
				row.MaxPhases = len(res.Phases)
			}
			for i := 1; i < len(res.Phases); i++ {
				if res.Phases[i].Speed >= res.Phases[i-1].Speed+1e-9 {
					row.SpeedsMonotone = false
				}
			}
			// Lemma 3 audit.
			used := make([]int, len(res.Intervals))
			for _, ph := range res.Phases {
				for jx, iv := range res.Intervals {
					nij := 0
					for _, id := range ph.JobIDs {
						j, _ := in.ByID(id)
						if j.ActiveIn(iv.Start, iv.End) {
							nij++
						}
					}
					want := nij
					if free := in.M - used[jx]; free < want {
						want = free
					}
					if ph.Procs[jx] != want {
						row.Lemma3Holds = false
					}
					used[jx] += ph.Procs[jx]
				}
			}
		}
		row.AvgRounds = float64(rounds) / float64(cfg.Seeds)
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderE5 prints the E5 table.
func RenderE5(rows []E5Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, d(r.Seeds), d(r.N), d(r.MaxPhases),
			fmt.Sprintf("%v", r.SpeedsMonotone), fmt.Sprintf("%v", r.Lemma3Holds), f3(r.AvgRounds),
		})
	}
	return "E5 — Lemmas 1-3: structure of optimal schedules (m=3)\n" +
		table([]string{"workload", "seeds", "n", "max-phases", "speeds-desc", "lemma3", "avg-flow-rounds"}, out)
}

// E5Check validates the invariants.
func E5Check(rows []E5Row) error {
	for _, r := range rows {
		if r.MaxPhases > r.N {
			return fmt.Errorf("E5 %s: %d phases exceed n=%d (Lemma 1)", r.Workload, r.MaxPhases, r.N)
		}
		if !r.SpeedsMonotone {
			return fmt.Errorf("E5 %s: phase speeds not strictly decreasing", r.Workload)
		}
		if !r.Lemma3Holds {
			return fmt.Errorf("E5 %s: Lemma 3 processor counts violated", r.Workload)
		}
	}
	return nil
}
