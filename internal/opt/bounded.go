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
func FeasibleAtSpeed(in *job.Instance, s float64) (bool, error) {
	return FeasibleAtSpeedObserved(in, s, nil)
}

// FeasibleAtSpeedObserved is FeasibleAtSpeed with each probe counted in
// the recorder ("opt.feasibility_probes", plus the flow-solver op
// counters). A nil recorder makes it identical to FeasibleAtSpeed.
func FeasibleAtSpeedObserved(in *job.Instance, s float64, rec *obs.Recorder) (bool, error) {
	return FeasibleAtSpeedCtx(nil, in, s, rec)
}

// FeasibleAtSpeedCtx is FeasibleAtSpeedObserved with a cancellation
// context checked before the flow solve (nil disables the check).
func FeasibleAtSpeedCtx(ctx context.Context, in *job.Instance, s float64, rec *obs.Recorder) (bool, error) {
	if err := validateForSolve(in); err != nil {
		return false, err
	}
	if cerr := canceled(ctx, 0, 0); cerr != nil {
		return false, cerr
	}
	return feasibleProbe(in, job.Partition(in.Jobs), s, rec)
}

// feasibleProbe is one feasibility max-flow test at cap s on a pooled
// graph.
func feasibleProbe(in *job.Instance, ivs []job.Interval, s float64, rec *obs.Recorder) (bool, error) {
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false, fmt.Errorf("opt: invalid speed cap %v: %w", s, mpsserr.ErrInvalidInstance)
	}
	rec.Add("opt.feasibility_probes", 1)

	node := 1 + in.N()
	ivNode := make([]int, len(ivs))
	for jx := range ivs {
		ivNode[jx] = node
		node++
	}
	sink := node
	g := flow.AcquireGraph(node + 1)
	defer flow.ReleaseGraph(g)

	var demand float64
	for k, j := range in.Jobs {
		need := j.Work / s
		if need > j.Span()*(1+flow.DefaultTolerance) {
			// The job alone cannot finish inside its own window at cap s.
			return false, nil
		}
		g.AddEdge(0, 1+k, need)
		demand += need
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				g.AddEdge(1+k, ivNode[jx], iv.Len())
			}
		}
	}
	for jx, iv := range ivs {
		g.AddEdge(ivNode[jx], sink, float64(in.M)*iv.Len())
	}

	stop := rec.Time("opt.flow_solve_seconds")
	value := g.MaxFlow(0, sink)
	stop()
	publishDinic(rec, nil, g.Ops())
	return value >= demand-flow.SolveTolerance*math.Max(1, demand), nil
}

// CapOption configures MinFeasibleCap / MinFeasibleCapObserved.
type CapOption func(*capConfig)

type capConfig struct {
	lo, hi      float64
	haveBracket bool
	noApprox    bool
	noContract  bool
	ctx         context.Context
}

// WithBracket supplies a known bracket [lo, hi] with hi feasible and lo
// infeasible (lo may be 0), skipping the solve that otherwise derives
// the upper bound from the unbounded optimum's top phase speed.
func WithBracket(lo, hi float64) CapOption {
	return func(c *capConfig) { c.lo, c.hi, c.haveBracket = lo, hi, true }
}

// WithCapContext makes the cap search cancelable: ctx is polled before
// the bracketing solve and between probe waves, and a canceled context
// returns an error wrapping mpsserr.ErrCanceled. Nil disables the
// checks (the default).
func WithCapContext(ctx context.Context) CapOption {
	return func(c *capConfig) { c.ctx = ctx }
}

// WithApproxFirst toggles the two-tier probe dispatch (default on):
// while the bracket is wider than approxCapWidth relative, feasibility
// probes run on the packed network — contracted intervals, pre-packed
// jobs, early-exit max-flow (see approx.go) — and the final refinement
// waves run on the raw network. The probes of the approximate tier sit
// far from the feasibility boundary, so the returned cap matches the
// all-raw search's bit for bit (the differential tests pin this).
func WithApproxFirst(on bool) CapOption {
	return func(c *capConfig) { c.noApprox = !on }
}

// WithCapContraction toggles interval contraction inside the cap search
// (default on): the packed probe tier and the first-phase bracketing
// solve both shrink their networks with it. Turning contraction off
// also disables the packed tier, since its graphs are contracted by
// construction.
func WithCapContraction(on bool) CapOption {
	return func(c *capConfig) { c.noContract = !on }
}

// MinFeasibleCap returns (a tight numerical approximation of) the
// smallest processor speed cap at which the instance remains feasible —
// the "minimum peak speed" of the instance. The value equals the highest
// phase speed s_1 of the unbounded optimum, which provides the initial
// bracket; the function then shrinks the bracket with feasibility probes
// to within rel relative tolerance (default flow.SolveTolerance when
// rel <= 0).
func MinFeasibleCap(in *job.Instance, rel float64, opts ...CapOption) (float64, error) {
	return MinFeasibleCapObserved(in, rel, nil, opts...)
}

// MinFeasibleCapObserved is MinFeasibleCap with every probe counted in
// the recorder ("opt.probe_waves" counts bracket-shrinking waves).
func MinFeasibleCapObserved(in *job.Instance, rel float64, rec *obs.Recorder, opts ...CapOption) (float64, error) {
	if rel <= 0 {
		rel = flow.SolveTolerance
	}
	var cfg capConfig
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateForSolve(in); err != nil {
		return 0, err
	}

	var lo, hi float64
	if cfg.haveBracket {
		if !(cfg.lo >= 0) || !(cfg.hi > cfg.lo) || math.IsInf(cfg.hi, 0) {
			return 0, fmt.Errorf("opt: invalid bracket [%v, %v]: %w", cfg.lo, cfg.hi, mpsserr.ErrInvalidInstance)
		}
		lo, hi = cfg.lo, cfg.hi
		ok, err := FeasibleAtSpeedObserved(in, hi, rec)
		if err != nil {
			return 0, err
		}
		if !ok {
			return 0, fmt.Errorf("opt: bracket upper bound %v is not feasible: %w", hi, mpsserr.ErrInvalidInstance)
		}
	} else {
		top, err := bracketSpeed(cfg.ctx, in, !cfg.noContract, rec)
		if err != nil {
			if !retryable(err) {
				return 0, err
			}
			// The first-phase fast path failed numerically: fall back to
			// the full solver, which brings its own fallback ladder.
			rec.Add("opt.bracket_fallbacks", 1)
			res, ferr := Schedule(in, WithRecorder(rec), WithContext(cfg.ctx), WithContraction(!cfg.noContract))
			if ferr != nil {
				return 0, ferr
			}
			top = res.Phases[0].Speed
		}
		hi = top * (1 + flow.SolveTolerance)
		ok, err := FeasibleAtSpeedObserved(in, hi, rec)
		if err != nil {
			return 0, err
		}
		if !ok {
			// The unbounded optimum's top speed must be feasible; tolerate
			// rounding by nudging upward.
			hi *= 1 + flow.DiffTolerance
			if ok, err = FeasibleAtSpeedObserved(in, hi, rec); err != nil || !ok {
				return 0, fmt.Errorf("opt: optimum speed %v not feasible as cap: %w", hi, mpsserr.ErrNumeric)
			}
		}
		lo = 0
	}

	// Bisection: each wave probes the bracket midpoint, which becomes the
	// new upper bound when feasible and the new lower bound otherwise
	// (feasibility is monotone in the cap).
	//
	// Two-tier dispatch: wide-bracket waves probe on the packed network
	// (approx.go), the final near-boundary waves on the raw one. The
	// probe points depend only on the bracket, never on which tier
	// answered, so both dispatch modes walk the same cap sequence.
	ivs := job.Partition(in.Jobs)
	var pk *packedProbe
	if !cfg.noApprox && !cfg.noContract && hi-lo > approxCapWidth*hi {
		pk = newPackedProbe(in, ivs, rec)
	}
	for hi-lo > rel*hi {
		if cerr := canceled(cfg.ctx, 0, 0); cerr != nil {
			rec.Add("opt.canceled", 1)
			return 0, cerr
		}
		mid := lo + (hi-lo)/2
		if mid <= 0 {
			break
		}
		rec.Add("opt.probe_waves", 1)
		var ok bool
		var err error
		if pk != nil && hi-lo > approxCapWidth*hi {
			rec.Add("opt.approx_waves", 1)
			ok, err = pk.feasible(mid)
		} else {
			ok, err = feasibleProbe(in, ivs, mid, rec)
		}
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, nil
}

// bracketSpeed computes the unbounded optimum's top phase speed s_1 —
// the natural MinFeasibleCap bracket — by running only the *first* phase
// of the offline algorithm on the float engine. The previous
// implementation ran a full Schedule just to read Phases[0].Speed,
// double-solving every later phase; this path stops at the first
// acceptance and skips schedule emission entirely. Shares the solver
// pool and panic-containment conventions of Solver.Schedule.
func bracketSpeed(ctx context.Context, in *job.Instance, contract bool, rec *obs.Recorder) (top float64, err error) {
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

	s := solverPool.Get()
	defer solverPool.Put(s)
	e := &s.fe
	e.tol = flow.SolveTolerance
	e.cold = false
	e.contract = contract

	ivs := job.Partition(in.Jobs)
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
