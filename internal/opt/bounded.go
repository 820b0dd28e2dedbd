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
	sv.cn.set(in, job.Partition(in.Jobs))
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

// set shapes the network for the instance and its interval partition.
func (c *capNet) set(in *job.Instance, ivs []job.Interval) {
	c.pn.Reset(in.N(), len(ivs))
	c.lists = growLists(c.lists, len(ivs))
	for jx := range c.lists {
		c.lists[jx] = c.lists[jx][:0]
	}
	for k, j := range in.Jobs {
		lo, hi := activeRun(ivs, j)
		c.pn.SetJob(k, lo, hi-1, 0)
		for jx := lo; jx < hi; jx++ {
			c.lists[jx] = append(c.lists[jx], int32(k))
		}
	}
	m := float64(in.M)
	for jx, iv := range ivs {
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

// cutCert is the first phase's min cut, which refutes caps below s_1
// without a flow. With J_1 the first phase's job set, W1 = W(J_1) and
// C1 = sum over intervals of min(n_j(J_1), m)|I_j|, the cut
// {s} ∪ J_1 ∪ {intervals with n_j(J_1) > m} of the probe network at cap
// x has capacity demand(x) - W1/x + C1: the source edges of the jobs
// outside J_1, J_1's edges into the intervals outside the cut, and the
// sink edges of the intervals inside it. When W1/x - C1 exceeds twice
// the probe's slack, that capacity — and so every flow — falls short of
// the probe's acceptance threshold by more than the slack, which dwarfs
// Dinic's float rounding: the probe would answer "infeasible". The zero
// value certifies nothing.
type cutCert struct{ work, time float64 }

// refutes reports whether the certificate proves cap x infeasible.
func (c cutCert) refutes(in *job.Instance, x float64) bool {
	if c.work == 0 {
		return false
	}
	var demand float64
	for _, j := range in.Jobs {
		demand += j.Work / x
	}
	return c.work/x-c.time > 2*flow.SolveTolerance*math.Max(1, demand)
}

// MinFeasibleCap returns (a tight numerical approximation of) the
// smallest processor speed cap at which the instance remains feasible —
// the "minimum peak speed" of the instance. The value equals the highest
// phase speed s_1 of the unbounded optimum, which provides the initial
// bracket; the function then shrinks the bracket with feasibility probes
// to within rel relative tolerance (default flow.SolveTolerance when
// rel <= 0).
//
// The first phase's min cut refutes, without a flow, every wave whose
// cap lies far enough below s_1 (cutCert); the other waves, and the
// upper-bound check, probe one network built once per search (capNet).
// Both answer exactly as a probe on a freshly built flow.Graph would, so
// the cap does not depend on which of them answered a wave.
//
// WithRecorder counts every probe: "opt.probe_waves" counts
// bracket-shrinking waves, "opt.cut_waves" those the cut certificate
// answered, and "opt.feasibility_probes" the probes that ran.
// WithContext is polled before the first-phase solve, at its rounds and
// between probe waves. Should the first-phase solve fail numerically,
// s_1 comes from a full Schedule with the same options.
func MinFeasibleCap(in *job.Instance, rel float64, opts ...Option) (float64, error) {
	if rel <= 0 {
		rel = flow.SolveTolerance
	}
	cfg := newConfig(opts)
	if err := validateForSolve(in); err != nil {
		return 0, err
	}
	sv := solverPool.Get()
	defer solverPool.Put(sv)
	ivs := job.Partition(in.Jobs)
	cn := &sv.cn
	cn.set(in, ivs)

	sv.fe.contract = !cfg.noContract
	top, cut, err := sv.bracketSpeed(cfg.ctx, in, ivs, cfg.rec)
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
	hi := top * (1 + flow.SolveTolerance)
	if !cn.feasible(in, hi, cfg.rec) {
		// The unbounded optimum's top speed must be feasible; tolerate
		// rounding by nudging upward.
		hi *= 1 + flow.DiffTolerance
		if !cn.feasible(in, hi, cfg.rec) {
			return 0, fmt.Errorf("opt: optimum speed %v not feasible as cap: %w", hi, mpsserr.ErrNumeric)
		}
	}

	// Bisection: each wave probes the bracket midpoint, which becomes the
	// new upper bound when feasible and the new lower bound otherwise
	// (feasibility is monotone in the cap).
	lo := 0.0
	for hi-lo > rel*hi {
		if cerr := canceled(cfg.ctx, 0, 0); cerr != nil {
			cfg.rec.Add("opt.canceled", 1)
			return 0, cerr
		}
		mid := lo + (hi-lo)/2
		if mid <= 0 {
			break
		}
		cfg.rec.Add("opt.probe_waves", 1)
		if cut.refutes(in, mid) {
			cfg.rec.Add("opt.cut_waves", 1)
			lo = mid
		} else if cn.feasible(in, mid, cfg.rec) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// bracketSpeed computes the unbounded optimum's top phase speed s_1 —
// the natural MinFeasibleCap bracket — by running only the *first* phase
// of the offline algorithm on the float engine, stopping at the first
// acceptance without emitting a schedule. It also returns that phase's
// cut certificate: the accepted set's work and processor time. The
// float engine's contraction setting stays as the caller left it.
// Shares the panic-containment conventions of Solver.Schedule.
func (s *Solver) bracketSpeed(ctx context.Context, in *job.Instance, ivs []job.Interval, rec *obs.Recorder) (top float64, cut cutCert, err error) {
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
	used := make([]int, len(ivs))
	cand := make([]int, in.N())
	for i := range cand {
		cand[i] = i
	}
	var st Stats
	e.prepare(in, ivs, &st, rec)
	span := rec.Root().StartSpan("bracket phase")
	defer span.End()

	degenerate := e.beginPhase(used, cand, span)
	for {
		if cerr := canceled(ctx, 1, 0); cerr != nil {
			rec.Add("opt.canceled", 1)
			return 0, cutCert{}, cerr
		}
		rec.Add("opt.rounds", 1)
		if degenerate {
			var empty bool
			degenerate, empty = e.dropLeastWork()
			if empty {
				return 0, cutCert{}, e.emptyErr()
			}
			continue
		}
		if e.solveRound() == 0 {
			return e.speed, cutCert{work: e.totalWork, time: e.totalTime}, nil
		}
		var empty bool
		degenerate, empty = e.removeExcluded()
		if empty {
			return 0, cutCert{}, e.emptyErr()
		}
	}
}
