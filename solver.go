package mpss

import (
	"context"

	"mpss/internal/online"
	"mpss/internal/opt"
)

// WithContext makes a solve cancelable: the solver polls ctx at its
// natural work boundaries — every phase/round of the offline optimum
// (each round is one max-flow computation), every OA replanning event,
// every AVR interval, and before the max flow of a feasibility probe or
// a fixed-cap schedule — and a
// canceled or expired context unwinds the solve promptly with an error
// wrapping ErrCanceled. Cancellation never corrupts a Solver: the
// solver scratch a call borrowed goes back to the pool in a reusable
// state, so a Solver that had a solve canceled keeps producing correct
// results.
func WithContext(ctx context.Context) SolveOption {
	return func(c *solveConfig) { c.ctx = ctx }
}

// Solver carries default options and nothing else. It holds no solver
// scratch: every call borrows the flow networks, the job×interval
// activity index and the round bookkeeping from a process-wide pool for
// its duration and returns them, so steady-state solving reuses graph
// storage while an idle Solver costs only its options.
//
// Construct with NewSolver, optionally passing SolveOptions that become
// the defaults (recorder, parallelism, context); per-call options are
// applied on top. The zero value is not usable.
//
// A Solver is safe for concurrent use: its calls only read the
// defaults. The package-level functions (OptimalSchedule, OA, ...) are
// the one-shot form of the same calls and return bit-identical results.
//
// Every solve depends on its job set alone, so a caller that revises an
// instance step by step keeps the []Job and calls Solve on each
// revision; the server's streaming sessions do exactly that.
type Solver struct {
	cfg solveConfig
}

// NewSolver returns a fresh Solver with the given default options.
func NewSolver(opts ...SolveOption) *Solver {
	return &Solver{cfg: buildSolveConfig(opts)}
}

// merge layers per-call options over the Solver's defaults.
func (s *Solver) merge(opts []SolveOption) solveConfig {
	cfg := s.cfg
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Solve computes an energy-optimal migratory schedule: OptimalSchedule
// with this Solver's default options.
func (s *Solver) Solve(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	cfg := s.merge(opts)
	return opt.Schedule(in, opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}

// SolveExact is Solve with all phase decisions carried out in exact
// rational arithmetic.
func (s *Solver) SolveExact(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	cfg := s.merge(opts)
	return opt.Schedule(in, opt.Exact(), opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}

// OA runs the online Optimal Available simulation.
func (s *Solver) OA(in *Instance, opts ...SolveOption) (*OAResult, error) {
	cfg := s.merge(opts)
	return online.OA(in,
		online.WithRecorder(cfg.rec), online.WithContext(cfg.ctx))
}

// AVR runs the online Average Rate simulation.
func (s *Solver) AVR(in *Instance, opts ...SolveOption) (*AVRResult, error) {
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
// instance remains feasible, the optimum's top phase speed s_1; rel is
// ignored. See the package-level function.
func (s *Solver) MinFeasibleCap(in *Instance, rel float64, opts ...SolveOption) (float64, error) {
	cfg := s.merge(opts)
	return opt.MinFeasibleCap(in, opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}
