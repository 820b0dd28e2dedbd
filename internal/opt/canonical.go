package opt

import (
	"fmt"
	"math"
	"sort"

	"mpss/internal/job"
	"mpss/internal/schedule"
)

// Canonicalize rewrites an optimal schedule into the canonical form used
// throughout the paper's analysis (Lemma 6): within every event interval
// the per-processor sub-schedules are permuted so that processor 0 runs
// the fastest speed, processor 1 the next, and so on. For schedules in
// the paper's optimal class this makes every processor's speed sequence
// non-increasing over time — the staircase property the OA(m) analysis
// leans on (and which the tests verify on the solver's output).
//
// Permuting whole per-interval processor timelines never changes any
// segment's time window, so feasibility and energy are untouched.
func Canonicalize(s *schedule.Schedule, ivs []job.Interval) (*schedule.Schedule, error) {
	out := schedule.New(s.M)
	for jx, iv := range ivs {
		// Collect this interval's segments per processor, clipping
		// segments that Normalize merged across interval boundaries.
		perProc := make([][]schedule.Segment, s.M)
		for _, seg := range s.Segments {
			lo := math.Max(seg.Start, iv.Start)
			hi := math.Min(seg.End, iv.End)
			if hi <= lo {
				continue
			}
			clipped := seg
			clipped.Start, clipped.End = lo, hi
			perProc[seg.Proc] = append(perProc[seg.Proc], clipped)
		}
		// Lemma 2: each processor uses one speed inside the interval.
		type procSpeed struct {
			proc  int
			speed float64
		}
		speeds := make([]procSpeed, 0, s.M)
		for p, segs := range perProc {
			sp := 0.0
			for _, seg := range segs {
				if sp == 0 {
					sp = seg.Speed
				} else if math.Abs(seg.Speed-sp) > 1e-9*(1+sp) {
					return nil, fmt.Errorf("opt: processor %d uses speeds %v and %v inside %v (violates Lemma 2)",
						p, sp, seg.Speed, ivs[jx])
				}
			}
			speeds = append(speeds, procSpeed{proc: p, speed: sp})
		}
		// Sort processors by speed, descending; stable on index for
		// determinism.
		sort.SliceStable(speeds, func(a, b int) bool { return speeds[a].speed > speeds[b].speed })
		for newProc, ps := range speeds {
			for _, seg := range perProc[ps.proc] {
				seg.Proc = newProc
				out.Add(seg)
			}
		}
	}
	out.Normalize()
	return out, nil
}

// StaircaseViolation locates the first breach of the Lemma 6 property in
// a canonicalized schedule: a processor whose speed increases from one
// event interval to the next. It returns ok = true when the staircase
// holds everywhere (idle counts as speed zero).
func StaircaseViolation(s *schedule.Schedule, ivs []job.Interval) (proc int, interval int, ok bool) {
	speedAt := func(p int, iv job.Interval) float64 {
		// Sample a few points to be robust against partial idleness at
		// the interval edges (the fastest speed on the processor within
		// the interval is its Lemma 2 speed).
		best := 0.0
		for _, f := range []float64{0.25, 0.5, 0.75} {
			t := iv.Start + (iv.End-iv.Start)*f
			sp := s.SpeedsAt(t)[p]
			best = math.Max(best, sp)
		}
		return best
	}
	for p := 0; p < s.M; p++ {
		prev := math.Inf(1)
		for jx, iv := range ivs {
			sp := speedAt(p, iv)
			if sp > prev*(1+1e-9)+1e-9 {
				return p, jx, false
			}
			prev = sp
		}
	}
	return 0, 0, true
}
