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
//
// WithRecorder counts the flow-solver operations of its one max flow;
// WithContext is checked before the flow solve. Other options have no
// effect.
func ScheduleAtCap(in *job.Instance, cap float64, opts ...Option) (*schedule.Schedule, error) {
	cfg := newConfig(opts)
	if err := checkCap(cap); err != nil {
		return nil, err
	}
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	if cerr := canceled(cfg.ctx, 0, 0); cerr != nil {
		return nil, cerr
	}
	sv := solverPool.Get()
	defer solverPool.Put(sv)
	sv.fr.reset(in)
	ivs := sv.fr.ivs
	cn := &sv.cn
	cn.set(&sv.fr)
	demand, late := cn.load(in, cap)
	if late >= 0 {
		return nil, fmt.Errorf("opt: job %d cannot finish inside its window at cap %v: %w", in.Jobs[late].ID, cap, mpsserr.ErrInfeasible)
	}
	value, ok := cn.solve(demand, cfg.rec)
	if !ok {
		return nil, fmt.Errorf("opt: instance infeasible at cap %v (flow %v of %v): %w", cap, value, demand, mpsserr.ErrInfeasible)
	}

	out := schedule.New(in.M)
	procs := make([]int, in.M)
	for i := range procs {
		procs[i] = i
	}
	var pieces []schedule.Piece
	for jx, iv := range ivs {
		pieces = pieces[:0]
		for _, k := range cn.lists[jx] {
			t := cn.pn.EdgeFlow(int(k), jx)
			if t <= flow.DefaultTolerance {
				continue
			}
			pieces = append(pieces, schedule.Piece{
				JobID:    in.Jobs[k].ID,
				Duration: math.Min(t, iv.Len()),
				Speed:    cap,
			})
		}
		if len(pieces) == 0 {
			continue
		}
		var err error
		out.Segments, err = schedule.WrapAround(out.Segments, iv.Start, iv.End, procs, pieces)
		if err != nil {
			return nil, fmt.Errorf("opt: packing %v at cap: %w", iv, err)
		}
	}
	out.Normalize()
	return out, nil
}
