// Package bg implements a Bingham–Greenstreet-style linear-programming
// baseline for optimal multi-processor speed scaling with migration
// (reference [6] of the paper). The paper's combinatorial algorithm was
// motivated by the observation that this LP approach, while correct, is
// "too high [in complexity] for most practical applications"; experiment
// E2 measures exactly that gap.
//
// Formulation. Fix a speed grid 0 < sigma_1 < ... < sigma_K. For every
// job k, event interval I_j in which it is active, and level l, variable
// y_{kjl} >= 0 is the time job k runs at speed sigma_l inside I_j:
//
//	sum_{j,l} sigma_l y_{kjl}  = w_k          (job k completes)
//	sum_l     y_{kjl}         <= |I_j|        (job k fits in I_j; McNaughton)
//	sum_{k,l} y_{kjl}         <= m |I_j|      (processor capacity in I_j)
//	minimize  sum P(sigma_l) y_{kjl}
//
// Any feasible y is schedulable by the wrap-around rule, so for a
// piecewise-linear power function with breakpoints on the grid the LP
// value equals the true optimum; for smooth convex P it upper-bounds the
// optimum and converges as the grid refines (chords of a convex function
// lie above it).
package bg

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpss/internal/job"
	"mpss/internal/lp"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/yds"
)

// Options configures the baseline.
type Options struct {
	// SpeedLevels is the grid size K (default 16).
	SpeedLevels int
	// MaxSpeed is the top of the speed grid. Zero selects the maximum
	// critical intensity of the single-processor YDS schedule, which upper
	// bounds every speed an m-processor optimum uses.
	MaxSpeed float64
}

// Result is the LP baseline outcome.
type Result struct {
	Energy   float64
	Schedule *schedule.Schedule
	Grid     []float64 // the speed levels used
	Vars     int
	Rows     int
	Pivots   int
}

// Solve runs the LP baseline on the instance under power function p.
func Solve(in *job.Instance, p power.Function, o Options) (*Result, error) {
	k := o.SpeedLevels
	if k == 0 {
		k = 16
	}
	if k < 1 {
		return nil, fmt.Errorf("bg: SpeedLevels = %d < 1", k)
	}
	smax := o.MaxSpeed
	if smax == 0 {
		r, err := yds.Schedule(in.Jobs)
		if err != nil {
			return nil, fmt.Errorf("bg: bounding speed grid: %w", err)
		}
		smax = r.Intensity[0]
	}
	if smax <= 0 {
		return nil, errors.New("bg: non-positive MaxSpeed")
	}

	ivs := job.Partition(in.Jobs)
	grid := make([]float64, k)
	for l := range grid {
		grid[l] = smax * float64(l+1) / float64(k)
	}

	// Variable layout: for each (job, active interval) pair, K consecutive
	// levels.
	var pairs []pair
	for ji := range in.Jobs {
		for vi, iv := range ivs {
			if in.Jobs[ji].ActiveIn(iv.Start, iv.End) {
				pairs = append(pairs, pair{ji, vi})
			}
		}
	}
	nv := len(pairs) * k
	if nv == 0 {
		return nil, errors.New("bg: no schedulable (job, interval) pairs")
	}

	prob := &lp.Problem{Obj: make([]float64, nv)}
	for pi, pr := range pairs {
		_ = pr
		for l := 0; l < k; l++ {
			prob.Obj[pi*k+l] = p.Power(grid[l])
		}
	}

	// Job completion (equalities).
	for ji, j := range in.Jobs {
		row := make([]float64, nv)
		for pi, pr := range pairs {
			if pr.jobIdx != ji {
				continue
			}
			for l := 0; l < k; l++ {
				row[pi*k+l] = grid[l]
			}
		}
		if err := prob.AddRow(row, lp.EQ, j.Work); err != nil {
			return nil, err
		}
	}
	// Per job-per interval time bound.
	for pi, pr := range pairs {
		row := make([]float64, nv)
		for l := 0; l < k; l++ {
			row[pi*k+l] = 1
		}
		if err := prob.AddRow(row, lp.LE, ivs[pr.ivIdx].Len()); err != nil {
			return nil, err
		}
	}
	// Interval capacity.
	for vi, iv := range ivs {
		row := make([]float64, nv)
		any := false
		for pi, pr := range pairs {
			if pr.ivIdx != vi {
				continue
			}
			any = true
			for l := 0; l < k; l++ {
				row[pi*k+l] = 1
			}
		}
		if !any {
			continue
		}
		if err := prob.AddRow(row, lp.LE, float64(in.M)*iv.Len()); err != nil {
			return nil, err
		}
	}

	sol, err := lp.Solve(prob)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.Infeasible:
		return nil, fmt.Errorf("bg: LP infeasible — raise MaxSpeed (%g) or SpeedLevels", smax)
	case lp.Unbounded:
		return nil, errors.New("bg: LP unbounded (internal error)")
	}

	sched, err := buildSchedule(in, ivs, pairs, grid, sol.X, k)
	if err != nil {
		return nil, err
	}
	return &Result{
		Energy:   sol.Value,
		Schedule: sched,
		Grid:     grid,
		Vars:     nv,
		Rows:     len(prob.Rows),
		Pivots:   sol.Pivots,
	}, nil
}

// pair indexes one (job, active interval) block of K variables.
type pair struct{ jobIdx, ivIdx int }

func buildSchedule(in *job.Instance, ivs []job.Interval, pairs []pair, grid, x []float64, k int) (*schedule.Schedule, error) {
	sched := schedule.New(in.M)
	procs := make([]int, in.M)
	for i := range procs {
		procs[i] = i
	}
	const tiny = 1e-9
	for vi, iv := range ivs {
		var pieces []schedule.Piece
		for pi, pr := range pairs {
			if pr.ivIdx != vi {
				continue
			}
			for l := 0; l < k; l++ {
				dur := x[pi*k+l]
				if dur > tiny {
					pieces = append(pieces, schedule.Piece{
						JobID:    in.Jobs[pr.jobIdx].ID,
						Duration: math.Min(dur, iv.Len()),
						Speed:    grid[l],
					})
				}
			}
		}
		if len(pieces) == 0 {
			continue
		}
		// Keep same-job pieces adjacent so the wrap-around rule sees each
		// job as one contiguous chunk of length <= |I_j|.
		sort.Slice(pieces, func(a, b int) bool {
			if pieces[a].JobID != pieces[b].JobID {
				return pieces[a].JobID < pieces[b].JobID
			}
			return pieces[a].Speed < pieces[b].Speed
		})
		var err error
		sched.Segments, err = schedule.WrapAround(sched.Segments, iv.Start, iv.End, procs, pieces)
		if err != nil {
			return nil, fmt.Errorf("bg: packing %v: %w", iv, err)
		}
	}
	sched.Normalize()
	return sched, nil
}
