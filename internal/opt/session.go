package opt

import (
	"context"
	"fmt"
	"math"

	"mpss/internal/job"
	"mpss/internal/mpsserr"
)

// This file implements streaming sessions: a Session owns a mutable job
// set and re-solves it after add-job / remove-job / retune-cap deltas.
//
// A resolve is the one-shot solve of the session's current job set:
// Schedule on a pooled arena, and, while a cap is set, FeasibleAtSpeed
// for the cap verdict. The paper's algorithm needs each phase's maximum
// flow and nothing from an earlier solve, so a session keeps only its
// job-set bookkeeping between resolves and holds no solver scratch: an
// idle session costs its job set, its ID map and its options. A resolve
// therefore returns exactly what a one-shot Schedule of the current job
// set returns, and costs exactly what it costs
// (TestSessionResolveCountsMatchOneShot).

// Session is a mutable solving session: a job set revised by deltas and
// re-solved on demand. Each Resolve borrows an arena from the solver
// pool for its duration only, so any number of sessions may be open,
// and distinct sessions may resolve concurrently. A single Session is
// not safe for concurrent use.
type Session struct {
	cfg config

	m    int
	jobs []job.Job
	ids  map[int]int // job ID -> index in jobs
	cap  float64     // 0 = no cap tracking
}

// SessionResult is one resolve's outcome.
type SessionResult struct {
	Res *Result
	// Cap echoes the session's speed cap; CapFeasible is the
	// feasibility verdict at that cap, valid only when Cap > 0.
	Cap         float64
	CapFeasible bool
}

// NewSession starts a session over the instance. Options become the
// session options of every resolve and behave as in Schedule; Exact()
// pins the exact engine. Sessions address jobs by ID (RemoveJob); the
// instance check rejects duplicate IDs.
func NewSession(in *job.Instance, opts ...Option) (*Session, error) {
	cfg := newConfig(opts)
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	ids := make(map[int]int, len(in.Jobs))
	for i, j := range in.Jobs {
		ids[j.ID] = i
	}
	return &Session{
		cfg:  cfg,
		m:    in.M,
		jobs: append([]job.Job(nil), in.Jobs...),
		ids:  ids,
	}, nil
}

// Cap returns the session's speed cap (0 = none).
func (ss *Session) Cap() float64 { return ss.cap }

// Jobs returns a copy of the current job set.
func (ss *Session) Jobs() []job.Job { return append([]job.Job(nil), ss.jobs...) }

// AddJob appends a job to the session.
func (ss *Session) AddJob(j job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := ss.ids[j.ID]; dup {
		return fmt.Errorf("%w: session already has job id %d", mpsserr.ErrInvalidInstance, j.ID)
	}
	ss.ids[j.ID] = len(ss.jobs)
	ss.jobs = append(ss.jobs, j)
	return nil
}

// RemoveJob removes the job with the given ID.
func (ss *Session) RemoveJob(id int) error {
	i, ok := ss.ids[id]
	if !ok {
		return fmt.Errorf("%w: session has no job id %d", mpsserr.ErrInvalidInstance, id)
	}
	ss.jobs = append(ss.jobs[:i], ss.jobs[i+1:]...)
	delete(ss.ids, id)
	for k := i; k < len(ss.jobs); k++ {
		ss.ids[ss.jobs[k].ID] = k
	}
	return nil
}

// SetCap retunes the session's speed cap; 0 clears it. The feasibility
// verdict at the cap is recomputed on the next Resolve.
func (ss *Session) SetCap(c float64) error {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("opt: invalid speed cap %v: %w", c, mpsserr.ErrInvalidInstance)
	}
	ss.cap = c
	return nil
}

// Resolve solves the session's current job set: the one-shot Schedule
// of the same instance with the session's options, bit for bit, plus
// FeasibleAtSpeed's verdict while a cap is set. A non-nil ctx replaces
// the session's context for this resolve. An error leaves the session
// usable.
func (ss *Session) Resolve(ctx context.Context) (*SessionResult, error) {
	cfg := ss.cfg
	if ctx != nil {
		cfg.ctx = ctx
	}
	cfg.rec.Add("opt.session_resolves", 1)
	in := &job.Instance{M: ss.m, Jobs: ss.jobs}
	res, err := schedulePooled(in, cfg)
	if err != nil {
		return nil, err
	}
	out := &SessionResult{Res: res, Cap: ss.cap}
	if ss.cap > 0 {
		if out.CapFeasible, err = feasibleAtSpeed(in, ss.cap, &cfg); err != nil {
			return nil, err
		}
	}
	return out, nil
}
