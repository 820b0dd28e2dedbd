package opt

import (
	"fmt"
	"math"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/schedule"
)

// ScheduleAtCap constructs a feasible schedule in which every processor
// runs either at exactly the speed cap or idles — the "fixed frequency +
// race to idle" operating mode of real systems that lack fine-grained
// DVFS. It fails when the instance is infeasible at the cap (see
// FeasibleAtSpeed / MinFeasibleCap).
//
// Experiment E13 uses it to quantify how much energy the paper's optimal
// multi-speed profile saves over single-frequency operation.
func ScheduleAtCap(in *job.Instance, cap float64) (*schedule.Schedule, error) {
	if cap <= 0 || math.IsNaN(cap) || math.IsInf(cap, 0) {
		return nil, fmt.Errorf("opt: invalid speed cap %v: %w", cap, mpsserr.ErrInvalidInstance)
	}
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	ivs := job.Partition(in.Jobs)

	node := 1 + in.N()
	ivNode := make([]int, len(ivs))
	for jx := range ivs {
		ivNode[jx] = node
		node++
	}
	sink := node
	g := flow.AcquireGraph(node + 1)
	defer flow.ReleaseGraph(g)

	type midEdge struct {
		jobIdx, ivIdx int
		id            flow.EdgeID
	}
	var mids []midEdge
	var demand float64
	for k, j := range in.Jobs {
		need := j.Work / cap
		if need > j.Span()*(1+flow.DefaultTolerance) {
			return nil, fmt.Errorf("opt: job %d cannot finish inside its window at cap %v: %w", j.ID, cap, mpsserr.ErrInfeasible)
		}
		g.AddEdge(0, 1+k, need)
		demand += need
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				id := g.AddEdge(1+k, ivNode[jx], iv.Len())
				mids = append(mids, midEdge{jobIdx: k, ivIdx: jx, id: id})
			}
		}
	}
	for jx, iv := range ivs {
		g.AddEdge(ivNode[jx], sink, float64(in.M)*iv.Len())
	}

	value := g.MaxFlow(0, sink)
	if value < demand-flow.SolveTolerance*math.Max(1, demand) {
		return nil, fmt.Errorf("opt: instance infeasible at cap %v (flow %v of %v): %w", cap, value, demand, mpsserr.ErrInfeasible)
	}

	perIv := make([][]schedule.Piece, len(ivs))
	for _, e := range mids {
		t := g.Flow(e.id)
		if t <= flow.DefaultTolerance {
			continue
		}
		perIv[e.ivIdx] = append(perIv[e.ivIdx], schedule.Piece{
			JobID:    in.Jobs[e.jobIdx].ID,
			Duration: math.Min(t, ivs[e.ivIdx].Len()),
			Speed:    cap,
		})
	}
	out := schedule.New(in.M)
	procs := make([]int, in.M)
	for i := range procs {
		procs[i] = i
	}
	for jx, pieces := range perIv {
		if len(pieces) == 0 {
			continue
		}
		var err error
		out.Segments, err = schedule.WrapAround(out.Segments, ivs[jx].Start, ivs[jx].End, procs, pieces)
		if err != nil {
			return nil, fmt.Errorf("opt: packing %v at cap: %w", ivs[jx], err)
		}
	}
	out.Normalize()
	return out, nil
}
