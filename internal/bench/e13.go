package bench

import (
	"fmt"

	"mpss/internal/opt"
	"mpss/internal/power"
	"mpss/internal/sleep"
	"mpss/internal/workload"
)

// E13Row sweeps static (leakage) power and compares two operating modes
// under the combined speed-scaling + sleep model of [9] that the paper's
// conclusion highlights as future work:
//
//   - "stretch": the paper's energy-optimal multi-speed schedule, which
//     spreads work across the horizon, and
//   - "race": fixed-frequency execution at twice the minimum feasible cap
//     followed by sleeping.
//
// Without leakage stretching is provably optimal; as leakage grows the
// race-to-sleep mode overtakes it. The row records the total energy of
// both modes at one leakage level (expressed as a fraction of the
// dynamic power at the minimum cap).
type E13Row struct {
	Workload string
	IdleFrac float64 // IdlePower / P(minCap)
	Stretch  float64 // mean total energy of the optimal schedule
	Race     float64 // mean total energy of the 2x-cap race schedule
	RaceWins int     // seeds where racing beat stretching
	Seeds    int
}

// E13 runs the leakage sweep.
func E13(cfg Config) ([]E13Row, error) {
	cfg = cfg.normalize()
	p := power.MustAlpha(3)
	var rows []E13Row
	for _, gname := range []string{"uniform", "bursty"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			return nil, err
		}
		for _, frac := range []float64{0, 0.1, 0.5, 2, 8} {
			row := E13Row{Workload: gname, IdleFrac: frac, Seeds: cfg.Seeds}
			for seed := 0; seed < cfg.Seeds; seed++ {
				in, err := gen.Make(workload.Spec{N: cfg.N, M: 2, Seed: int64(seed)})
				if err != nil {
					return nil, err
				}
				optRes, err := opt.Schedule(in, opt.WithRecorder(cfg.Recorder))
				if err != nil {
					return nil, fmt.Errorf("E13 %s seed=%d: %w", gname, seed, err)
				}
				minCap, err := opt.MinFeasibleCap(in, opt.WithRecorder(cfg.Recorder))
				if err != nil {
					return nil, err
				}
				race, err := opt.ScheduleAtCap(in, minCap*2)
				if err != nil {
					return nil, err
				}
				model := sleep.Model{
					IdlePower: frac * p.Power(minCap),
					WakeCost:  0.05 * p.Power(minCap), // cheap transitions
				}
				start, end := in.Horizon()
				bS, err := sleep.Evaluate(optRes.Schedule, p, model, start, end)
				if err != nil {
					return nil, err
				}
				bR, err := sleep.Evaluate(race, p, model, start, end)
				if err != nil {
					return nil, err
				}
				row.Stretch += bS.Total
				row.Race += bR.Total
				if bR.Total < bS.Total {
					row.RaceWins++
				}
			}
			row.Stretch /= float64(cfg.Seeds)
			row.Race /= float64(cfg.Seeds)
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderE13 prints the E13 table.
func RenderE13(rows []E13Row) string {
	out := [][]string{}
	for _, r := range rows {
		out = append(out, []string{
			r.Workload, f3(r.IdleFrac), f3(r.Stretch), f3(r.Race),
			fmt.Sprintf("%d/%d", r.RaceWins, r.Seeds),
		})
	}
	return "E13 — speed scaling vs race-to-sleep under leakage (alpha=3, m=2; idle power as fraction of P(min cap))\n" +
		table([]string{"workload", "idle-frac", "stretch-energy", "race-energy", "race-wins"}, out)
}

// E13Check validates the expected crossover shape: without leakage
// stretching must win everywhere; at the heaviest leakage racing must win
// at least somewhere.
func E13Check(rows []E13Row) error {
	sawHeavyRaceWin := false
	for _, r := range rows {
		if r.IdleFrac == 0 && r.RaceWins > 0 {
			return fmt.Errorf("E13 %s: race won without leakage", r.Workload)
		}
		if r.IdleFrac >= 8 && r.RaceWins > 0 {
			sawHeavyRaceWin = true
		}
	}
	if !sawHeavyRaceWin {
		return fmt.Errorf("E13: race-to-sleep never won under heavy leakage (crossover missing)")
	}
	return nil
}
