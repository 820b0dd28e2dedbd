// Package cert checks that a schedule is energy-optimal without running
// a max flow and without any code of the solver (internal/opt): it reads
// only the instance and the schedule's segments, and builds its own
// event partition from the raw job windows.
//
// The certificate is the KKT system of the time-allocation convex
// program (Angel, Bampis, Kacem and Letsios, arXiv 1107.2105) over the
// event intervals I_k: with t_jk the time job j runs in I_k, minimize
// Σ_j t_j·P(w_j/t_j) subject to t_jk ≤ |I_k| and Σ_j t_jk ≤ m|I_k|. The
// stationarity condition of t_jk equates g(s_j) = s_j·P'(s_j) − P(s_j)
// with the interval's multiplier, and g is nondecreasing for every
// convex P, so the conditions become speed orderings that hold for all
// P at once. A feasible schedule is optimal for every convex
// nondecreasing power function with P(0) = 0 (the paper's Theorem 1) if
//
//   - each job runs at one speed s_j; and
//   - in every event interval I_k, one of these holds:
//   - some processor time is idle, and every active job runs for all
//     of I_k; or
//   - the active jobs that run for part of I_k share one speed σ_k,
//     every job that runs for all of I_k is at least that fast, and
//     every active job that gets no time there is at most that fast.
//
// Tolerances. Time is compared absolutely, to within 1e-9 of the
// horizon: the latest deadline minus the earliest release, or the
// largest event time in magnitude when that is larger, since float64
// times are no finer than their magnitude allows. A job runs for all of
// I_k when it misses less than that, and gets no time there when it
// gets less; I_k idles when its m processors leave more than that each
// unused. The solver's rounding is absolute in the horizon's units, not
// relative to each interval: an event interval can be shorter than the
// rounding slack of the flow it sits in. Speeds are compared
// relatively, to within 1e-9. The same tolerances apply to every
// instance.
package cert

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpss/internal/job"
	"mpss/internal/schedule"
)

const (
	timeTol  = 1e-9 // times: absolute, in units of the horizon
	speedTol = 1e-9 // speeds: relative
)

// ErrNotOptimal marks a feasible schedule that fails the certificate.
var ErrNotOptimal = errors.New("cert: schedule is not optimal")

// Check returns nil when s is a feasible schedule for in (schedule.Verify)
// that satisfies the optimality conditions of the package doc. A feasible
// schedule that fails them yields an error wrapping ErrNotOptimal that
// names the job or interval at fault. The cost is O(segments·log +
// Σ_k |active jobs in I_k|).
func Check(s *schedule.Schedule, in *job.Instance) error {
	if err := s.Verify(in); err != nil {
		return fmt.Errorf("cert: infeasible: %w", err)
	}
	n := in.N()
	if n == 0 {
		return nil
	}
	times := make([]float64, 0, 2*n)
	for _, j := range in.Jobs {
		times = append(times, j.Release, j.Deadline)
	}
	sort.Float64s(times)
	w := 1
	for _, t := range times[1:] {
		if t != times[w-1] {
			times[w] = t
			w++
		}
	}
	times = times[:w]
	nIv := len(times) - 1
	tol := timeTol * max(times[nIv]-times[0], math.Abs(times[0]), math.Abs(times[nIv]))

	// Job k is active in intervals lo[k] .. lo[k]+len-1; its time there
	// accumulates in at[off[k]:off[k+1]].
	idx := make(map[int]int, n)
	lo := make([]int, n)
	off := make([]int, n+1)
	for k, j := range in.Jobs {
		idx[j.ID] = k
		lo[k] = sort.SearchFloat64s(times, j.Release)
		off[k+1] = off[k] + sort.SearchFloat64s(times, j.Deadline) - lo[k]
	}
	at := make([]float64, off[n])
	speed := make([]float64, n)
	for _, seg := range s.Segments {
		k := idx[seg.JobID]
		switch {
		case speed[k] == 0:
			speed[k] = seg.Speed
		case !within(seg.Speed, speed[k]):
			return fmt.Errorf("%w: job %d runs at two speeds, %g and %g", ErrNotOptimal, seg.JobID, speed[k], seg.Speed)
		}
		// The active intervals the segment overlaps; Verify allows it to
		// reach its window's edge by rounding, which counts nowhere.
		r := max(0, sort.SearchFloat64s(times, seg.Start+tol)-1) - lo[k]
		for ; r < off[k+1]-off[k] && times[lo[k]+r] < seg.End; r++ {
			if r >= 0 {
				at[off[k]+r] += min(seg.End, times[lo[k]+r+1]) - max(seg.Start, times[lo[k]+r])
			}
		}
	}

	// Per interval: the processor time used, then the slowest job that
	// runs for part or all of it (high) and the fastest that runs for
	// part or none of it (low), with the jobs they belong to.
	busy := make([]float64, nIv)
	for k := range in.Jobs {
		for r, t := range at[off[k]:off[k+1]] {
			busy[lo[k]+r] += t
		}
	}
	high := make([]bound, nIv)
	low := make([]bound, nIv)
	for i := range high {
		high[i], low[i] = bound{math.Inf(1), -1}, bound{0, -1}
	}
	for k, j := range in.Jobs {
		for r, t := range at[off[k]:off[k+1]] {
			i := lo[k] + r
			size := times[i+1] - times[i]
			idle := float64(in.M)*(size-tol) > busy[i]
			full := t >= size-tol
			if idle && !full {
				return fmt.Errorf("%w: job %d runs %g of [%g,%g) while processors idle", ErrNotOptimal, j.ID, t, times[i], times[i+1])
			}
			if full || t > tol {
				high[i] = minBound(high[i], bound{speed[k], k})
			}
			if !full {
				low[i] = maxBound(low[i], bound{speed[k], k})
			}
		}
	}
	for i := range high {
		if h, l := high[i], low[i]; h.job >= 0 && l.job >= 0 && l.speed > h.speed*(1+speedTol) {
			return fmt.Errorf("%w: in [%g,%g) job %d (speed %g) gets time that job %d (speed %g) could use",
				ErrNotOptimal, times[i], times[i+1], in.Jobs[h.job].ID, h.speed, in.Jobs[l.job].ID, l.speed)
		}
	}
	return nil
}

// bound is a speed and the job (instance index, -1 for none) it is of.
type bound struct {
	speed float64
	job   int
}

func within(a, b float64) bool { return math.Abs(a-b) <= speedTol*math.Max(a, b) }

func minBound(a, b bound) bound {
	if b.speed < a.speed {
		return b
	}
	return a
}

func maxBound(a, b bound) bound {
	if b.speed > a.speed {
		return b
	}
	return a
}
