package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"mpss/api"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mpss"
)

// liveSession is one open streaming session: a named mutable instance
// pinned to a single worker's warm solver. The solver field is touched
// only on the owner worker (tasks reach it through sessQ[worker], which
// serializes them), so it needs no lock; the mutable published state —
// seq, last response, idle clock — is guarded by mu because the HTTP
// goroutines of GET long-polls and the janitor read it concurrently.
type liveSession struct {
	id     string
	worker int
	alpha  float64
	power  mpss.Alpha
	exact  bool
	solver *mpss.Solver // owner-worker only
	// Owner-worker only, like solver: the machine size and the speed cap
	// last applied (0 = none), which an undone delta restores.
	m   int
	cap float64

	mu       sync.Mutex
	jobs     int
	lastUsed time.Time
	seq      int64
	last     response
	notify   chan struct{} // closed and replaced on every publish
	closed   bool
}

// publish stores a new latest response under the next sequence number
// and wakes every long-poller.
func (ls *liveSession) publish(resp response, jobs int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.seq++
	ls.jobs = jobs
	ls.last = resp
	ls.lastUsed = time.Now()
	close(ls.notify)
	ls.notify = make(chan struct{})
}

// touch refreshes the idle clock (any authenticated-by-ID activity
// counts, including long-polls).
func (ls *liveSession) touch() {
	ls.mu.Lock()
	ls.lastUsed = time.Now()
	ls.mu.Unlock()
}

// sessionRegistry is the server's table of open sessions plus the
// round-robin cursor that spreads new sessions across workers.
type sessionRegistry struct {
	mu   sync.Mutex
	m    map[string]*liveSession
	next int
}

func newSessionRegistry() *sessionRegistry {
	return &sessionRegistry{m: make(map[string]*liveSession)}
}

// insert registers a session unless the table is full.
func (r *sessionRegistry) insert(ls *liveSession, max int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.m) >= max {
		return false
	}
	r.m[ls.id] = ls
	return true
}

func (r *sessionRegistry) get(id string) (*liveSession, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls, ok := r.m[id]
	return ls, ok
}

// remove unregisters and returns the session, or nil if already gone —
// the caller that gets it back owns the teardown (close exactly once).
func (r *sessionRegistry) remove(id string) *liveSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	ls := r.m[id]
	delete(r.m, id)
	return ls
}

// pickWorker assigns the next session's owner worker round-robin.
func (r *sessionRegistry) pickWorker(workers int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	w := r.next % workers
	r.next++
	return w
}

// snapshot returns the open sessions for the janitor's idle sweep.
func (r *sessionRegistry) snapshot() []*liveSession {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*liveSession, 0, len(r.m))
	for _, ls := range r.m {
		out = append(out, ls)
	}
	return out
}

// closeSession marks a removed session closed and wakes its pollers
// (they observe closed and answer 404).
func (s *Server) closeSession(ls *liveSession, evicted bool) {
	ls.mu.Lock()
	ls.closed = true
	close(ls.notify)
	ls.notify = make(chan struct{})
	ls.mu.Unlock()
	s.rec.Add("server.sessions_active", -1)
	if evicted {
		s.rec.Add("server.sessions_evicted", 1)
	}
}

// sessionJanitor evicts sessions idle past SessionTTL. It ticks at a
// quarter of the TTL so an idle session outlives its TTL by at most 25%.
func (s *Server) sessionJanitor() {
	ttl := s.cfg.SessionTTL
	if ttl <= 0 {
		<-s.janitorStop
		return
	}
	tick := ttl / 4
	if tick > time.Minute {
		tick = time.Minute
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case <-t.C:
			for _, ls := range s.sessions.snapshot() {
				ls.mu.Lock()
				idle := time.Since(ls.lastUsed)
				ls.mu.Unlock()
				if idle > ttl && s.sessions.remove(ls.id) != nil {
					s.closeSession(ls, true)
				}
			}
		}
	}
}

// sessionTimeout resolves a per-call timeout_ms against the server
// default (shorten only, like the one-shot path).
func (s *Server) sessionTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return timeout
}

// sessionResponse renders the session's coordinates plus one resolve.
// Called on the owner worker only (it reads the solver's job set).
func sessionResponse(ls *liveSession, seq int64, res *mpss.SessionResult) response {
	out := api.SessionResponse{
		SessionID: ls.id,
		Seq:       seq,
		Jobs:      len(ls.solver.SessionJobs()),
		Energy:    res.Result.Schedule.Energy(ls.power),
		Alpha:     ls.alpha,
		Cap:       res.Cap,
		Schedule:  res.Result.Schedule,
	}
	if res.Cap > 0 {
		feasible := res.CapFeasible
		out.CapFeasible = &feasible
	}
	for _, ph := range res.Result.Phases {
		out.Phases = append(out.Phases, api.PhaseResponse{Speed: ph.Speed, JobIDs: ph.JobIDs, Procs: ph.Procs})
	}
	return jsonResponse(http.StatusOK, out)
}

// runSessionTask routes exec to the session's owner worker and waits.
// The returned response is exec's, or 503/499/504 when the task could
// not be admitted or died in the queue.
func (s *Server) runSessionTask(r *http.Request, ls *liveSession, timeout time.Duration, exec func(ctx context.Context) response) response {
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()
	t := &task{
		ctx:       ctx,
		clientCtx: r.Context(),
		exec: func(_ *session) response {
			return exec(ctx)
		},
		done:     make(chan struct{}),
		enqueued: time.Now(),
	}
	if !s.admitTo(s.sessQ[ls.worker], t) {
		s.rec.Add("server.rejected", 1)
		return errorResponse(http.StatusServiceUnavailable, "overloaded", "session queue full or server draining")
	}
	<-t.done
	s.inflight.Done()
	s.rec.Observe("server.queue_wait_seconds", t.waited.Seconds())
	return t.resp
}

// handleSessionCreate opens a streaming session: validate, pin to a
// worker, run the initial solve there, publish seq 1.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFromContext(r.Context())
	s.rec.Add("server.requests", 1)

	var req api.SolveRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		errorResponse(http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err)).write(w, reqID)
		return
	}
	if len(req.Jobs) > s.cfg.SessionMaxJobs {
		errorResponse(http.StatusRequestEntityTooLarge, "session_too_large",
			fmt.Sprintf("%d jobs exceed the per-session bound %d", len(req.Jobs), s.cfg.SessionMaxJobs)).write(w, reqID)
		return
	}
	alpha := req.Alpha
	if alpha == 0 {
		alpha = 3
	}
	p, err := mpss.NewAlpha(alpha)
	if err != nil {
		errorResponse(http.StatusBadRequest, "invalid_instance", fmt.Sprintf("alpha: %v", err)).write(w, reqID)
		return
	}
	ls := &liveSession{
		id:     api.NewRequestID(),
		worker: s.sessions.pickWorker(s.cfg.Workers),
		alpha:  alpha,
		power:  p,
		exact:  req.Exact,
		solver: mpss.NewSolver(mpss.WithRecorder(s.rec)),
		m:      req.M,
		notify: make(chan struct{}),
	}
	ls.lastUsed = time.Now()
	if !s.sessions.insert(ls, s.cfg.MaxSessions) {
		errorResponse(http.StatusServiceUnavailable, "overloaded",
			fmt.Sprintf("session table full (%d open)", s.cfg.MaxSessions)).write(w, reqID)
		return
	}

	in := &mpss.Instance{M: req.M, Jobs: req.Jobs}
	resp := s.runSessionTask(r, ls, s.sessionTimeout(req.TimeoutMS), func(ctx context.Context) response {
		begin := ls.solver.Begin
		if ls.exact {
			begin = ls.solver.BeginExact
		}
		if err := begin(in, mpss.WithContext(ctx)); err != nil {
			return s.sessionFail(r, err)
		}
		if req.Cap > 0 {
			if err := ls.solver.SetCap(req.Cap); err != nil {
				return s.sessionFail(r, err)
			}
			ls.cap = req.Cap
		}
		res, err := ls.solver.Resolve(mpss.WithContext(ctx))
		if err != nil {
			return s.sessionFail(r, err)
		}
		return sessionResponse(ls, 1, res)
	})
	if resp.code != http.StatusOK {
		// The session never came alive; take it back out of the table.
		if s.sessions.remove(ls.id) != nil {
			ls.mu.Lock()
			ls.closed = true
			ls.mu.Unlock()
		}
		resp.write(w, reqID)
		return
	}
	s.rec.Add("server.sessions_active", 1)
	ls.publish(resp, len(req.Jobs))
	resp.write(w, reqID)
}

// sessionFail maps a solver error exactly like the one-shot path.
func (s *Server) sessionFail(r *http.Request, err error) response {
	clientGone := r.Context().Err() != nil
	code, kind := errToStatus(err, clientGone)
	if kind == "canceled" {
		s.rec.Add("server.canceled", 1)
	}
	return errorResponse(code, kind, err.Error())
}

// validCap rejects caps the session layer cannot represent.
func validCap(c float64) bool {
	return c >= 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
}

// handleSessionDelta applies one mutation batch atomically — every
// mutation is validated against the session's current job set before
// any is applied, so a 400 leaves the session exactly as it was — then
// re-solves the session's job set and publishes the result. A batch
// whose resolve fails (504 on a deadline, 499 on a disconnect) is
// undone, so the session stays as last published.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFromContext(r.Context())
	s.rec.Add("server.requests", 1)

	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		errorResponse(http.StatusNotFound, "unknown_session", "no such session").write(w, reqID)
		return
	}
	var req api.SessionDeltaRequest
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		errorResponse(http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err)).write(w, reqID)
		return
	}
	if req.Cap != nil && !validCap(*req.Cap) {
		errorResponse(http.StatusBadRequest, "invalid_instance", "cap must be finite and non-negative").write(w, reqID)
		return
	}
	ls.mu.Lock()
	grown := ls.jobs - len(req.RemoveIDs) + len(req.AddJobs)
	ls.mu.Unlock()
	if grown > s.cfg.SessionMaxJobs {
		errorResponse(http.StatusRequestEntityTooLarge, "session_too_large",
			fmt.Sprintf("delta would grow the session to %d jobs (bound %d)", grown, s.cfg.SessionMaxJobs)).write(w, reqID)
		return
	}

	resp := s.runSessionTask(r, ls, s.sessionTimeout(req.TimeoutMS), func(ctx context.Context) response {
		ls.mu.Lock()
		closed := ls.closed
		seq := ls.seq
		ls.mu.Unlock()
		if closed {
			return errorResponse(http.StatusNotFound, "unknown_session", "session closed")
		}
		if err := s.validateDelta(ls, &req); err != nil {
			return s.sessionFail(r, err)
		}
		jobs, cap := ls.solver.SessionJobs(), ls.cap
		res, err := ls.applyDelta(ctx, &req)
		if err != nil {
			// Nothing of a failed batch is published, so none of it may
			// stay applied: restore the job set and cap it started from.
			ls.restore(jobs, cap)
			return s.sessionFail(r, err)
		}
		s.rec.Add("server.delta_solves", 1)
		out := sessionResponse(ls, seq+1, res)
		ls.publish(out, len(ls.solver.SessionJobs()))
		return out
	})
	resp.write(w, reqID)
}

// testHookDeltaApplied, when non-nil, runs on the owner worker between
// a delta's mutations and its resolve, with the resolve's context.
var testHookDeltaApplied func(ctx context.Context)

// applyDelta applies a validated batch to the session's solver and
// re-solves the job set. Owner worker only.
func (ls *liveSession) applyDelta(ctx context.Context, req *api.SessionDeltaRequest) (*mpss.SessionResult, error) {
	for _, id := range req.RemoveIDs {
		if err := ls.solver.RemoveJob(id); err != nil {
			return nil, err
		}
	}
	for _, j := range req.AddJobs {
		if err := ls.solver.AddJob(j); err != nil {
			return nil, err
		}
	}
	if req.Cap != nil {
		if err := ls.solver.SetCap(*req.Cap); err != nil {
			return nil, err
		}
		ls.cap = *req.Cap
	}
	if testHookDeltaApplied != nil {
		testHookDeltaApplied(ctx)
	}
	return ls.solver.Resolve(mpss.WithContext(ctx))
}

// restore restarts the session over the job set and cap it held before
// a failed batch, in the same job order, so later resolves are those of
// a session that never saw the batch. Owner worker only.
func (ls *liveSession) restore(jobs []mpss.Job, cap float64) {
	begin := ls.solver.Begin
	if ls.exact {
		begin = ls.solver.BeginExact
	}
	// The job set and cap passed validation when they were applied; a
	// failure here is a bug, which runTask turns into a 500.
	if err := begin(&mpss.Instance{M: ls.m, Jobs: jobs}); err != nil {
		panic(fmt.Sprintf("server: restoring session %s: %v", ls.id, err))
	}
	if err := ls.solver.SetCap(cap); err != nil {
		panic(fmt.Sprintf("server: restoring session %s cap: %v", ls.id, err))
	}
	ls.cap = cap
}

// validateDelta checks the whole mutation batch against the current job
// set: removals must name live jobs, adds must be valid and not collide
// (with surviving jobs or each other), and the result must hold at least
// one job and respect the per-session job bound. Nothing is applied
// here.
func (s *Server) validateDelta(ls *liveSession, req *api.SessionDeltaRequest) error {
	cur := ls.solver.SessionJobs()
	have := make(map[int]bool, len(cur))
	for _, j := range cur {
		have[j.ID] = true
	}
	for _, id := range req.RemoveIDs {
		if !have[id] {
			return fmt.Errorf("remove_ids: no job %d in session: %w", id, mpss.ErrInvalidInstance)
		}
		have[id] = false
	}
	for _, j := range req.AddJobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if have[j.ID] {
			return fmt.Errorf("add_jobs: duplicate job id %d: %w", j.ID, mpss.ErrInvalidInstance)
		}
		have[j.ID] = true
	}
	n := len(cur) - len(req.RemoveIDs) + len(req.AddJobs)
	if n == 0 {
		return fmt.Errorf("delta would leave the session with no jobs: %w", mpss.ErrInvalidInstance)
	}
	if n > s.cfg.SessionMaxJobs {
		return fmt.Errorf("delta would grow the session to %d jobs (bound %d): %w",
			n, s.cfg.SessionMaxJobs, mpss.ErrInvalidInstance)
	}
	return nil
}

// handleSessionGet returns the latest published resolve. With
// ?wait_seq=N it long-polls: the reply is deferred until a resolve
// newer than N exists, the timeout passes (the current state is
// returned, same seq), or the client goes away.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFromContext(r.Context())
	s.rec.Add("server.requests", 1)

	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		errorResponse(http.StatusNotFound, "unknown_session", "no such session").write(w, reqID)
		return
	}
	ls.touch()
	waitSeq := int64(-1)
	if v := r.URL.Query().Get("wait_seq"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			errorResponse(http.StatusBadRequest, "bad_query", "wait_seq must be an integer").write(w, reqID)
			return
		}
		waitSeq = n
	}
	timeout := s.cfg.DefaultTimeout
	if v := r.URL.Query().Get("timeout_ms"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			timeout = s.sessionTimeout(n)
		}
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		ls.mu.Lock()
		closed, seq, last, notify := ls.closed, ls.seq, ls.last, ls.notify
		ls.mu.Unlock()
		switch {
		case closed:
			errorResponse(http.StatusNotFound, "unknown_session", "session closed").write(w, reqID)
			return
		case seq > waitSeq:
			last.write(w, reqID)
			return
		}
		select {
		case <-notify:
		case <-deadline.C:
			// Long-poll timeout: answer with the unchanged current state so
			// the client can immediately re-poll with the same wait_seq.
			waitSeq = -1
		case <-r.Context().Done():
			s.rec.Add("server.canceled", 1)
			errorResponse(api.StatusClientClosedRequest, "canceled", r.Context().Err().Error()).write(w, reqID)
			return
		}
	}
}

// handleSessionDelete tears a session down: later calls under its ID
// answer 404 and its long-pollers wake with 404.
func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	reqID := RequestIDFromContext(r.Context())
	s.rec.Add("server.requests", 1)

	ls := s.sessions.remove(r.PathValue("id"))
	if ls == nil {
		errorResponse(http.StatusNotFound, "unknown_session", "no such session").write(w, reqID)
		return
	}
	s.closeSession(ls, false)
	response{code: http.StatusNoContent}.write(w, reqID)
}
