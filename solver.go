package mpss

import (
	"context"
	"fmt"

	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/pool"
)

// WithContext makes a solve cancelable: the solver polls ctx at its
// natural work boundaries — every phase/round of the offline optimum
// (each round is one max-flow computation), every OA replanning event,
// every AVR interval, and every probe wave of the cap search — and a
// canceled or expired context unwinds the solve promptly with an error
// wrapping ErrCanceled. Cancellation never corrupts a Solver session:
// the arenas are rebuilt from scratch at the next call, so a Solver
// that had a solve canceled keeps producing correct results.
func WithContext(ctx context.Context) SolveOption {
	return func(c *solveConfig) { c.ctx = ctx }
}

// Solver is a reusable solver session: the flow-network arenas, the
// job×interval activity index and all round bookkeeping are retained
// between calls, so a long-lived caller (a server worker, the online
// planner, a benchmark loop) pays the allocation cost once and solves
// at steady state without rebuilding graph storage per request.
//
// Construct with NewSolver, optionally passing SolveOptions that become
// the session defaults (recorder, parallelism, context); per-call
// options are applied on top. The zero value is not usable.
//
// A Solver is NOT safe for concurrent use — use one per goroutine. The
// package-level functions (OptimalSchedule, OA, ...) remain the
// convenient one-shot form; they draw a pooled session per call and
// return bit-identical results to the equivalent Solver method.
type Solver struct {
	cfg  solveConfig
	os   *opt.Solver
	sess *opt.Session // active streaming session, nil outside Begin/End
}

// NewSolver returns a fresh solver session with the given default
// options.
func NewSolver(opts ...SolveOption) *Solver {
	return &Solver{cfg: buildSolveConfig(opts), os: opt.NewSolver()}
}

// merge layers per-call options over the session defaults.
func (s *Solver) merge(opts []SolveOption) solveConfig {
	cfg := s.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Solve computes an energy-optimal migratory schedule (the package-level
// OptimalSchedule on this session's arenas).
func (s *Solver) Solve(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	if err := ValidateInstance(in); err != nil {
		return nil, err
	}
	cfg := s.merge(opts)
	return s.os.Schedule(in,
		opt.WithRecorder(cfg.rec), opt.WithParallelism(cfg.par), opt.WithContext(cfg.ctx),
		opt.WithDecomposition(cfg.decompose))
}

// SolveExact is Solve with all phase decisions carried out in exact
// rational arithmetic.
func (s *Solver) SolveExact(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	if err := ValidateInstance(in); err != nil {
		return nil, err
	}
	cfg := s.merge(opts)
	return s.os.Schedule(in,
		opt.Exact(), opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx),
		opt.WithDecomposition(cfg.decompose))
}

// OA runs the online Optimal Available simulation; its per-arrival
// replans reuse this session's arenas.
func (s *Solver) OA(in *Instance, opts ...SolveOption) (*OAResult, error) {
	if err := ValidateInstance(in); err != nil {
		return nil, err
	}
	cfg := s.merge(opts)
	return online.OA(in,
		online.WithRecorder(cfg.rec), online.WithContext(cfg.ctx), online.WithSolver(s.os))
}

// AVR runs the online Average Rate simulation.
func (s *Solver) AVR(in *Instance, opts ...SolveOption) (*AVRResult, error) {
	if err := ValidateInstance(in); err != nil {
		return nil, err
	}
	cfg := s.merge(opts)
	return online.AVR(in,
		online.WithRecorder(cfg.rec), online.WithContext(cfg.ctx))
}

// FeasibleAtSpeed reports whether the instance fits under a maximum
// processor speed cap, via one max-flow test.
func (s *Solver) FeasibleAtSpeed(in *Instance, cap float64, opts ...SolveOption) (bool, error) {
	cfg := s.merge(opts)
	return opt.FeasibleAtSpeed(in, cap, opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}

// MinFeasibleCap returns the smallest processor speed cap at which the
// instance remains feasible, to relative tolerance rel; see the
// package-level function.
func (s *Solver) MinFeasibleCap(in *Instance, rel float64, opts ...SolveOption) (float64, error) {
	cfg := s.merge(opts)
	return opt.MinFeasibleCap(in, rel, opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}

// SessionResult is the outcome of one Resolve of a streaming session:
// the optimal schedule of the session's current job set, plus the cap
// verdict.
type SessionResult struct {
	Result *OptimalResult
	// Cap echoes the session's speed cap (0 = none); CapFeasible is the
	// feasibility verdict at that cap, meaningful only when Cap > 0.
	Cap         float64
	CapFeasible bool
}

// Begin starts a streaming session over the instance: a mutable job set
// revised by AddJob / RemoveJob / SetCap deltas and re-solved by
// Resolve. Each Resolve is the one-shot Solve of the session's current
// job set on this Solver's arenas, and returns bit-identical results.
// Any previously active session on this Solver is replaced.
func (s *Solver) Begin(in *Instance, opts ...SolveOption) error {
	return s.begin(in, false, opts)
}

// BeginExact is Begin with all phase decisions carried out in exact
// rational arithmetic: every Resolve matches a one-shot SolveExact.
func (s *Solver) BeginExact(in *Instance, opts ...SolveOption) error {
	return s.begin(in, true, opts)
}

func (s *Solver) begin(in *Instance, exact bool, opts []SolveOption) error {
	if err := ValidateInstance(in); err != nil {
		return err
	}
	cfg := s.merge(opts)
	optOpts := []opt.Option{
		opt.WithRecorder(cfg.rec), opt.WithParallelism(cfg.par), opt.WithContext(cfg.ctx),
	}
	if exact {
		optOpts = append(optOpts, opt.Exact())
	}
	sess, err := s.os.NewSession(in, optOpts...)
	if err != nil {
		return err
	}
	s.sess = sess
	return nil
}

// errNoSession is the uniform "mutation without Begin" failure; it
// wraps ErrInvalidInstance so callers map it like any other bad input.
func errNoSession() error {
	return fmt.Errorf("mpss: no active session (call Begin first): %w", ErrInvalidInstance)
}

// AddJob appends a job to the active session; the next Resolve solves
// the grown job set.
func (s *Solver) AddJob(j Job) error {
	if s.sess == nil {
		return errNoSession()
	}
	return s.sess.AddJob(j)
}

// RemoveJob removes the job with the given ID from the active session;
// the next Resolve solves the remaining job set.
func (s *Solver) RemoveJob(id int) error {
	if s.sess == nil {
		return errNoSession()
	}
	return s.sess.RemoveJob(id)
}

// SetCap retunes the active session's maximum-speed cap; 0 clears it.
// While a cap is set, every Resolve also reports whether the current
// job set remains feasible under it (SessionResult.CapFeasible).
func (s *Solver) SetCap(cap float64) error {
	if s.sess == nil {
		return errNoSession()
	}
	return s.sess.SetCap(cap)
}

// Resolve solves the active session's current job set. Per-call options
// may override the context; an error leaves the session usable, with
// every delta applied before it still in place.
func (s *Solver) Resolve(opts ...SolveOption) (*SessionResult, error) {
	if s.sess == nil {
		return nil, errNoSession()
	}
	cfg := s.merge(opts)
	r, err := s.sess.Resolve(cfg.ctx)
	if err != nil {
		return nil, err
	}
	return &SessionResult{Result: r.Res, Cap: r.Cap, CapFeasible: r.CapFeasible}, nil
}

// SessionJobs returns a copy of the active session's current job set
// (nil when no session is active).
func (s *Solver) SessionJobs() []Job {
	if s.sess == nil {
		return nil
	}
	return s.sess.Jobs()
}

// End tears the active session down, dropping its job set. The Solver
// remains usable for one-shot solves and a later Begin.
func (s *Solver) End() { s.sess = nil }

// oneShotArenas backs the package-level entry points: each call borrows
// a solver arena, wraps it in a throwaway session and returns it, so
// repeated one-shot calls reuse graph storage exactly as the pre-session
// API did.
var oneShotArenas pool.FreeList[opt.Solver]

// oneShot builds a throwaway session over a pooled arena. The release
// function must be called exactly once, after the last use of the
// session.
func oneShot(opts []SolveOption) (*Solver, func()) {
	arena := oneShotArenas.Get()
	s := &Solver{cfg: buildSolveConfig(opts), os: arena}
	return s, func() {
		s.os = nil
		oneShotArenas.Put(arena)
	}
}
