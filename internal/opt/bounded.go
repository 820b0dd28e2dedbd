package opt

import (
	"context"
	"fmt"
	"math"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// FeasibleAtSpeed reports whether the instance can be completed when every
// processor is capped at maximum speed s. This is the speed-bounded
// setting of the related work discussed in the paper ([3,7]): with
// migration, feasibility at cap s reduces to a single maximum-flow test
// on the network G(all jobs, full machine, s) — source edges w_k/s, job
// to interval edges |I_j|, interval to sink edges m|I_j| — because any
// schedule may slow down to exactly s wherever it runs faster.
//
// WithRecorder counts the probe ("opt.feasibility_probes", plus the
// flow-solver op counters); WithContext is checked before the flow
// solve. Other options have no effect.
func FeasibleAtSpeed(in *job.Instance, s float64, opts ...Option) (bool, error) {
	cfg := newConfig(opts)
	return feasibleAtSpeed(in, s, &cfg)
}

func feasibleAtSpeed(in *job.Instance, s float64, cfg *config) (bool, error) {
	if err := validateForSolve(in); err != nil {
		return false, err
	}
	if cerr := canceled(cfg.ctx, 0, 0); cerr != nil {
		return false, cerr
	}
	if err := checkCap(s); err != nil {
		return false, err
	}
	sv := solverPool.Get()
	defer solverPool.Put(sv)
	sv.fr.reset(in)
	sv.cn.set(&sv.fr)
	return sv.cn.feasible(in, s, cfg.rec), nil
}

// checkCap rejects a speed cap no probe network can be built for.
func checkCap(s float64) error {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return fmt.Errorf("opt: invalid speed cap %v: %w", s, mpsserr.ErrInvalidInstance)
	}
	return nil
}

// capNet is the feasibility network G(all jobs, full machine, x) of one
// cap search, probe or ScheduleAtCap call, on a flow.PhaseNet: source
// edges w_k/x, job to interval edges |I_j|, interval to sink edges
// m|I_j|. Only the source capacities depend on the cap, so set builds
// the shape once and every probe re-sets them on a zero flow and solves
// from zero. Every interval is set, even one no job is active in, so the
// kernel's tolerance is that of a flow.Graph built from the same edges,
// and its flows are bit-identical to that graph's (the kernel follows
// the same adjacency order: jobs ascending at s and in every interval's
// list).
type capNet struct {
	pn    flow.PhaseNet
	lists [][]int32 // per interval: the jobs active in it, ascending
	prev  flow.DinicOps
}

// set shapes the network for the frame's instance and partition.
func (c *capNet) set(f *frame) {
	c.pn.Reset(f.in.N(), len(f.ivs))
	c.lists = growLists(c.lists, len(f.ivs))
	for jx := range c.lists {
		c.lists[jx] = c.lists[jx][:0]
	}
	for k := range f.in.Jobs {
		lo, hi := f.lo[k], f.hi[k]
		c.pn.SetJob(k, int(lo), int(hi)-1, 0)
		for jx := lo; jx < hi; jx++ {
			c.lists[jx] = append(c.lists[jx], int32(k))
		}
	}
	m := float64(f.in.M)
	for jx, iv := range f.ivs {
		c.pn.SetInterval(jx, iv.Len(), m*iv.Len(), c.lists[jx])
	}
	c.prev = flow.DinicOps{}
}

// load sets every source capacity to the job's demand at cap x and
// returns the total demand, summed in job order. late is the first job
// that cannot finish inside its own window at x, -1 when none; the
// network is then only partly loaded and must not be solved.
func (c *capNet) load(in *job.Instance, x float64) (demand float64, late int) {
	c.pn.ResetFlow()
	for k, j := range in.Jobs {
		need := j.Work / x
		if need > j.Span()*(1+flow.DefaultTolerance) {
			return 0, k
		}
		c.pn.SetSourceCap(k, need)
		demand += need
	}
	return demand, -1
}

// solve runs the loaded network's max flow from zero, publishes its
// operation counts, and reports whether the flow meets the demand
// within SolveTolerance.
func (c *capNet) solve(demand float64, rec *obs.Recorder) (value float64, ok bool) {
	stop := rec.Time("opt.flow_solve_seconds")
	value = c.pn.MaxFlow()
	stop()
	ops := c.pn.Ops()
	publishDinic(rec, nil, ops.Sub(c.prev))
	c.prev = ops
	return value, value >= demand-flow.SolveTolerance*math.Max(1, demand)
}

// feasible is one feasibility probe at cap x (counted as
// "opt.feasibility_probes").
func (c *capNet) feasible(in *job.Instance, x float64, rec *obs.Recorder) bool {
	rec.Add("opt.feasibility_probes", 1)
	demand, late := c.load(in, x)
	if late >= 0 {
		return false
	}
	_, ok := c.solve(demand, rec)
	return ok
}

// MinFeasibleCap returns the smallest processor speed cap at which the
// instance remains feasible — the "minimum peak speed" of the instance.
// That cap is the unbounded optimum's top phase speed s_1 = W(J_1)/C(J_1),
// the first phase's work over its processor time, which bracketSpeed
// computes by running the first phase only.
//
// No cap below s_1 is feasible: with C(J_1) = Σ_j min(n_j(J_1), m)|I_j|,
// the cut {s} ∪ J_1 ∪ {intervals with n_j(J_1) > m} of the probe network
// at cap x has capacity demand(x) − W(J_1)/x + C(J_1) — the source edges
// of the jobs outside J_1, J_1's edges into the intervals outside the
// cut, and the sink edges of the intervals inside it — which falls short
// of demand(x) whenever x < s_1. And s_1 is feasible, since the optimum
// runs no faster. So the answer is s_1 itself, checked by one capNet
// probe, the probe FeasibleAtSpeed and ScheduleAtCap run; should the
// probe refuse it to rounding, the cap is raised once by SolveTolerance
// and once more by DiffTolerance before the search fails with ErrNumeric.
//
// WithRecorder counts "opt.bracket_solves" and "opt.feasibility_probes".
// WithContext is polled before the first-phase solve and at its rounds.
// Should the first-phase solve fail numerically, s_1 comes from a full
// Schedule with the same options ("opt.bracket_fallbacks").
func MinFeasibleCap(in *job.Instance, opts ...Option) (float64, error) {
	cfg := newConfig(opts)
	if err := validateForSolve(in); err != nil {
		return 0, err
	}
	sv := solverPool.Get()
	defer solverPool.Put(sv)
	sv.fr.reset(in)
	cn := &sv.cn
	cn.set(&sv.fr)

	sv.fe.contract = !cfg.noContract
	top, err := sv.bracketSpeed(cfg.ctx, &sv.fr, cfg.rec, cfg.span)
	if err != nil {
		if !retryable(err) {
			return 0, err
		}
		// The first-phase fast path failed numerically: fall back to
		// the full solver, which brings its own exact fallback.
		cfg.rec.Add("opt.bracket_fallbacks", 1)
		res, ferr := schedulePooled(in, cfg)
		if ferr != nil {
			return 0, ferr
		}
		top = res.Phases[0].Speed
	}
	for _, nudge := range [...]float64{0, flow.SolveTolerance, flow.DiffTolerance} {
		top *= 1 + nudge
		if cn.feasible(in, top, cfg.rec) {
			return top, nil
		}
	}
	return 0, fmt.Errorf("opt: optimum speed %v not feasible as cap: %w", top, mpsserr.ErrNumeric)
}

// bracketSpeed computes the unbounded optimum's top phase speed s_1 —
// the minimum feasible cap — by running only the *first* phase of the
// offline algorithm on the float engine, stopping at the first
// acceptance without emitting a schedule. The float engine's
// contraction setting stays as the caller left it. Its
// "bracket phase" span nests under parent, the solve's config span.
// Shares the panic-containment conventions of Schedule.
func (s *arena) bracketSpeed(ctx context.Context, f *frame, rec *obs.Recorder, parent *obs.Span) (top float64, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		rec.Add("opt.panics_recovered", 1)
		if iv, ok := r.(*flow.InvariantViolation); ok && iv.Numeric {
			err = fmt.Errorf("opt: bracket solve: %s: %w", iv.Msg, mpsserr.ErrNumeric)
		} else {
			err = fmt.Errorf("opt: bracket solve panic: %v: %w", r, mpsserr.ErrInternal)
		}
	}()
	rec.Add("opt.bracket_solves", 1)

	e := &s.fe
	used := make([]int, len(f.ivs))
	cand := make([]int, f.in.N())
	for i := range cand {
		cand[i] = i
	}
	var st Stats
	e.prepare(f, &st, rec)
	span := parent.StartSpan("bracket phase")
	defer span.End()

	degenerate := e.beginPhase(used, cand, span)
	for {
		if cerr := canceled(ctx, 1, 0); cerr != nil {
			rec.Add("opt.canceled", 1)
			return 0, cerr
		}
		rec.Add("opt.rounds", 1)
		if degenerate {
			var empty bool
			degenerate, empty = e.dropLeastWork()
			if empty {
				return 0, e.emptyErr()
			}
			continue
		}
		if e.solveRound() == 0 {
			return e.speed, nil
		}
		var empty bool
		degenerate, empty = e.removeExcluded()
		if empty {
			return 0, e.emptyErr()
		}
	}
}
