package server

import (
	"context"
	"fmt"
	"math"
	"mpss/api"
	"net/http"
	"strconv"
	"sync"
	"time"

	"mpss"
	"mpss/internal/obs"
)

// liveSession is one open streaming session: a named job set, the
// cap and the solve options. It holds nothing of the solver: each delta
// solves the next job set with the one-shot calls, whose scratch comes
// from the solver pool, so an idle session costs little more than its
// job set and its last reply (DESIGN.md §13).
type liveSession struct {
	id    string
	alpha float64
	power mpss.Alpha
	exact bool
	m     int
	// turn holds one token. A request that changes the session takes it
	// before its solve is admitted and gives it back once answered, so
	// one session's deltas run one at a time, in arrival order, and a
	// delta waiting for its turn holds no worker.
	turn chan struct{}
	// Guarded by turn: the committed job set, in session order, and the
	// speed cap (0 = none). A failed delta never touches them.
	jobs []mpss.Job
	cap  float64

	// The published state — seq, last response, idle clock — is guarded
	// by mu: the HTTP goroutines of GET long-polls and the janitor read
	// it concurrently.
	mu       sync.Mutex
	lastUsed time.Time
	seq      int64
	last     response
	notify   chan struct{} // closed and replaced on every publish
	closed   bool
}

// publish stores a new latest response under the next sequence number
// and wakes every long-poller.
func (ls *liveSession) publish(resp response) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.seq++
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

// sessionRegistry is the server's table of open sessions.
type sessionRegistry struct {
	mu sync.Mutex
	m  map[string]*liveSession
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

// solveSession solves a session's job set with the one-shot calls —
// the optimal schedule, plus FeasibleAtSpeed's verdict while cap > 0 —
// and renders it as reply seq. Run on a worker, under a "solve
// session" span that holds the solver's phase spans.
func (s *Server) solveSession(ctx context.Context, r *http.Request, ls *liveSession, seq int64, jobs []mpss.Job, cap float64) response {
	span := obs.SpanFromContext(ctx).StartSpan("solve session")
	defer span.End()
	ctx = obs.ContextWithSpan(ctx, span)
	in := &mpss.Instance{M: ls.m, Jobs: jobs}
	solve := s.solver.Solve
	if ls.exact {
		solve = s.solver.SolveExact
	}
	res, err := solve(in, mpss.WithContext(ctx))
	if err != nil {
		return s.failure(r, err)
	}
	out := api.SessionResponse{
		SessionID: ls.id,
		Seq:       seq,
		Jobs:      len(jobs),
		Energy:    res.Schedule.Energy(ls.power),
		Alpha:     ls.alpha,
		Cap:       cap,
		Schedule:  res.Schedule,
		Phases:    phaseResponses(res.Phases),
	}
	if cap > 0 {
		feasible, err := s.solver.FeasibleAtSpeed(in, cap, mpss.WithContext(ctx))
		if err != nil {
			return s.failure(r, err)
		}
		out.CapFeasible = &feasible
	}
	return jsonResponse(http.StatusOK, out)
}

// handleSessionCreate opens a streaming session: validate, register,
// solve the job set on a worker, publish seq 1.
func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	reqID := api.RequestIDFrom(r.Context())
	s.rec.Add("server.requests", 1)

	var req api.SolveRequest
	if resp, ok := decodeRequest(w, r, &req); !ok {
		resp.write(w, reqID)
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
		alpha:  alpha,
		power:  p,
		exact:  req.Exact,
		m:      req.M,
		turn:   make(chan struct{}, 1),
		notify: make(chan struct{}),
	}
	// The creator holds the turn from the start: a delta that finds the
	// session before seq 1 is published waits for it.
	defer func() { ls.turn <- struct{}{} }()
	ls.lastUsed = time.Now()
	if !s.sessions.insert(ls, s.cfg.MaxSessions) {
		errorResponse(http.StatusServiceUnavailable, "overloaded",
			fmt.Sprintf("session table full (%d open)", s.cfg.MaxSessions)).write(w, reqID)
		return
	}

	var cap float64
	if req.Cap > 0 {
		cap = req.Cap
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	resp := s.await(ctx, r, func() response {
		return s.solveSession(ctx, r, ls, 1, req.Jobs, cap)
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
	ls.jobs, ls.cap = req.Jobs, cap
	s.rec.Add("server.sessions_active", 1)
	ls.publish(resp)
	resp.write(w, reqID)
}

// validCap rejects caps the session layer cannot represent.
func validCap(c float64) bool {
	return c >= 0 && !math.IsNaN(c) && !math.IsInf(c, 0)
}

// handleSessionDelta applies one mutation batch atomically. It waits
// for the session's turn, checks the whole batch against the committed
// job set, solves the job set the batch leaves and commits it only when
// that solve succeeds: a 400, a 504 on a deadline or a 499 on a
// disconnect leaves the session exactly as last published.
func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	reqID := api.RequestIDFrom(r.Context())
	s.rec.Add("server.requests", 1)

	ls, ok := s.sessions.get(r.PathValue("id"))
	if !ok {
		errorResponse(http.StatusNotFound, "unknown_session", "no such session").write(w, reqID)
		return
	}
	var req api.SessionDeltaRequest
	if resp, ok := decodeRequest(w, r, &req); !ok {
		resp.write(w, reqID)
		return
	}
	if req.Cap != nil && !validCap(*req.Cap) {
		errorResponse(http.StatusBadRequest, "invalid_instance", "cap must be finite and non-negative").write(w, reqID)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
	defer cancel()
	select {
	case <-ls.turn:
	case <-ctx.Done():
		s.expired(ctx, r.Context()).write(w, reqID)
		return
	}
	defer func() { ls.turn <- struct{}{} }()

	ls.mu.Lock()
	closed, seq := ls.closed, ls.seq
	ls.mu.Unlock()
	if closed {
		errorResponse(http.StatusNotFound, "unknown_session", "session closed").write(w, reqID)
		return
	}
	if grown := len(ls.jobs) - len(req.RemoveIDs) + len(req.AddJobs); grown > s.cfg.SessionMaxJobs {
		errorResponse(http.StatusRequestEntityTooLarge, "session_too_large",
			fmt.Sprintf("delta would grow the session to %d jobs (bound %d)", grown, s.cfg.SessionMaxJobs)).write(w, reqID)
		return
	}
	next, err := nextJobs(ls.jobs, &req)
	if err != nil {
		s.failure(r, err).write(w, reqID)
		return
	}
	cap := ls.cap
	if req.Cap != nil {
		cap = *req.Cap
	}
	resp := s.await(ctx, r, func() response {
		if testHookDeltaSolve != nil {
			testHookDeltaSolve(ctx)
		}
		return s.solveSession(ctx, r, ls, seq+1, next, cap)
	})
	if resp.code == http.StatusOK {
		ls.jobs, ls.cap = next, cap
		s.rec.Add("server.delta_solves", 1)
		ls.publish(resp)
	}
	resp.write(w, reqID)
}

// testHookDeltaSolve, when non-nil, runs on the worker before a delta's
// solve, with the solve's context.
var testHookDeltaSolve func(ctx context.Context)

// nextJobs checks a mutation batch against the job set cur and returns
// the job set it leaves: the survivors in order, then the added jobs.
// Removals must name live jobs, adds must be valid and not collide (with
// surviving jobs or each other), and at least one job must remain. cur
// is not modified.
func nextJobs(cur []mpss.Job, req *api.SessionDeltaRequest) ([]mpss.Job, error) {
	alive := make(map[int]bool, len(cur))
	for _, j := range cur {
		alive[j.ID] = true
	}
	for _, id := range req.RemoveIDs {
		if !alive[id] {
			return nil, fmt.Errorf("remove_ids: no job %d in session: %w", id, mpss.ErrInvalidInstance)
		}
		alive[id] = false
	}
	n := len(cur) - len(req.RemoveIDs) + len(req.AddJobs)
	next := make([]mpss.Job, 0, n)
	for _, j := range cur {
		if alive[j.ID] {
			next = append(next, j)
		}
	}
	for _, j := range req.AddJobs {
		if err := j.Validate(); err != nil {
			return nil, err
		}
		if alive[j.ID] {
			return nil, fmt.Errorf("add_jobs: duplicate job id %d: %w", j.ID, mpss.ErrInvalidInstance)
		}
		alive[j.ID] = true
	}
	if n == 0 {
		return nil, fmt.Errorf("delta would leave the session with no jobs: %w", mpss.ErrInvalidInstance)
	}
	return append(next, req.AddJobs...), nil
}

// handleSessionGet returns the latest published resolve. With
// ?wait_seq=N it long-polls: the reply is deferred until a resolve
// newer than N exists, the timeout passes (the current state is
// returned, same seq), or the client goes away.
func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	reqID := api.RequestIDFrom(r.Context())
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
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			errorResponse(http.StatusBadRequest, "bad_query", "timeout_ms must be an integer").write(w, reqID)
			return
		}
		timeout = s.requestTimeout(n)
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
	reqID := api.RequestIDFrom(r.Context())
	s.rec.Add("server.requests", 1)

	ls := s.sessions.remove(r.PathValue("id"))
	if ls == nil {
		errorResponse(http.StatusNotFound, "unknown_session", "no such session").write(w, reqID)
		return
	}
	s.closeSession(ls, false)
	response{code: http.StatusNoContent}.write(w, reqID)
}
