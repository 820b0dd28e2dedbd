// Package server turns the mpss library into a long-running scheduling
// service: an HTTP/JSON API over the paper's offline optimum, the OA and
// AVR online simulations, and the speed-bounded feasibility/min-cap
// queries.
//
// Architecture (DESIGN.md §10): requests pass an admission layer (a
// bounded queue; overflow is rejected with 503 instead of queuing
// unboundedly), then execute on a fixed pool of workers; each solve
// borrows its flow-network scratch from the solver's process-wide pool
// for its duration, so a worker between requests holds none. A
// canonical-instance-hash LRU cache short-circuits
// repeated requests — the solver is bit-deterministic, so a cache hit
// is indistinguishable from a re-solve. Per-request deadlines and
// client disconnects propagate into the solver via WithContext and
// surface as mpss.ErrCanceled; a canceled request frees its worker at
// the next phase/round boundary without poisoning the solver. Worker
// panics are contained per request (500), mirroring the solver's own
// recover boundary. Shutdown drains: new work is rejected with 503
// while in-flight solves run to completion.
//
// Every route runs through the instrument middleware (middleware.go):
// requests get an X-Request-ID (inbound honored, else generated) that
// is echoed on the response, threaded through the solver context,
// stamped into error bodies, logged in the structured JSON access log,
// and tagged on the flight-recorder span tree — one join key across
// logs, metrics and traces. Telemetry is exposed three ways: the JSON
// snapshot at /v1/metrics, the Prometheus text exposition at /metrics
// (per-endpoint × per-status counters, latency histograms with
// cumulative buckets and p50/p90/p99 quantiles, Go runtime gauges), and
// the flight recorder at /v1/debug/traces (bounded rings of the most
// recent and the slowest request span trees).
//
// Endpoints:
//
//	POST   /v1/solve/optimal     offline optimal schedule (optionally exact)
//	POST   /v1/solve/oa          online Optimal Available simulation
//	POST   /v1/solve/avr         online Average Rate simulation
//	POST   /v1/solve/atcap       fixed-frequency schedule at a speed cap
//	POST   /v1/feasible          one feasibility probe at a speed cap
//	POST   /v1/mincap            minimum feasible speed cap
//	POST   /v1/session           open a streaming session
//	POST   /v1/session/{id}/delta  mutate + re-solve
//	GET    /v1/session/{id}      latest resolve (long-poll with wait_seq)
//	DELETE /v1/session/{id}      tear the session down
//	GET    /v1/healthz           liveness (always "ok" while serving)
//	GET    /v1/readyz            readiness ("ready"/"draining"/"saturated")
//	GET    /v1/status            replica introspection (queue/cache/load)
//	GET    /v1/cache/{hash}      result-cache peek by canonical request key
//	GET    /v1/metrics           observability snapshot
//	GET    /metrics              Prometheus text exposition (version 0.0.4)
//	GET    /v1/debug/traces      flight recorder (recent + slowest spans)
//
// A streaming session (DESIGN.md §13) is a named job set the server
// holds: each delta solves the job set it leaves with the one-shot
// calls, through the same admission queue as every other solve, and
// commits it only when that solve succeeds. A per-session turn keeps
// one session's deltas one at a time, in arrival order; a janitor
// evicts sessions idle past SessionTTL.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mpss/api"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sync"
	"time"

	"mpss"
	"mpss/internal/obs"
	"mpss/internal/pool"
)

// Config parameterizes a Server. The zero value is usable: every field
// has a production default.
type Config struct {
	// Workers is the solver pool size — the number of concurrent solves
	// (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a request arriving with the
	// queue full is rejected with 503 (default 64).
	QueueDepth int
	// DefaultTimeout is the per-request solve deadline (default 30s). A
	// request's timeout_ms may shorten it but never extend it.
	DefaultTimeout time.Duration
	// CacheEntries bounds the result cache (default 1024; negative
	// disables caching).
	CacheEntries int
	// Logger receives the structured access/error log records (one JSON
	// line per request when built with slog.NewJSONHandler). Defaults to
	// a discarding logger.
	Logger *slog.Logger
	// FlightEntries sizes the flight recorder: the server retains the
	// FlightEntries most recent and FlightEntries slowest request span
	// trees for /v1/debug/traces (default 64).
	FlightEntries int
	// SessionTTL evicts streaming sessions idle longer than this
	// (default 10m; negative disables eviction).
	SessionTTL time.Duration
	// MaxSessions bounds concurrently open streaming sessions; creation
	// beyond it is rejected with 503 (default 256).
	MaxSessions int
	// SessionMaxJobs bounds one session's job set — the per-session
	// memory bound; a create or delta that would exceed it is rejected
	// with 413 (default 100000).
	SessionMaxJobs int
	// ReplicaName names this replica in GET /v1/status and the cluster
	// tier's views (empty for a standalone server).
	ReplicaName string
}

func (c *Config) applyDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 1024
	}
	if c.Logger == nil {
		// A level above every named level: Enabled is always false, so
		// the default logger costs one comparison per request.
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	if c.FlightEntries <= 0 {
		c.FlightEntries = 64
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 10 * time.Minute
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 256
	}
	if c.SessionMaxJobs <= 0 {
		c.SessionMaxJobs = 100_000
	}
}

// task is one admitted solve request: the worker executes exec and
// closes done. enqueued/waited measure time spent in the
// admission queue (waited is written by the worker before done closes,
// read by the handler after — ordered by the channel close).
type task struct {
	ctx context.Context
	// clientCtx is the bare request context (no server deadline): the
	// worker consults it to tell a client disconnect (499) apart from a
	// deadline that expired while the task queued (504).
	clientCtx context.Context
	exec      func() response
	resp      response
	done      chan struct{}
	enqueued  time.Time
	waited    time.Duration
}

// testHookTaskStart, when non-nil, runs on the worker goroutine before
// each task executes. Tests use it to hold a worker mid-request and
// deterministically fill the queue / exercise the drain path.
var testHookTaskStart func()

// Server is the scheduling service. Construct with New, serve it as an
// http.Handler, stop it with Shutdown. Safe for concurrent use.
type Server struct {
	cfg    Config
	rec    *obs.Recorder
	log    *slog.Logger
	mux    *http.ServeMux
	cache  *resultCache
	flight *flightRecorder
	queue  chan *task
	// solver carries the recorder into every solve, so /v1/metrics
	// shows solver counters — rounds, graph rebuilds, fallbacks — across
	// all workers. It holds no solver scratch and is shared by them.
	solver   *mpss.Solver
	sessions *sessionRegistry
	sf       pool.Group[response] // coalesces duplicate concurrent solves

	workers  sync.WaitGroup // worker goroutines
	inflight sync.WaitGroup // admitted, not yet answered tasks

	janitorStop chan struct{}
	start       time.Time

	mu       sync.RWMutex // guards draining and the queue closes
	draining bool
}

// New starts a Server's worker pool and returns it ready to serve.
func New(cfg Config) *Server {
	cfg.applyDefaults()
	rec := obs.New()
	s := &Server{
		cfg:         cfg,
		rec:         rec,
		log:         cfg.Logger,
		mux:         http.NewServeMux(),
		cache:       newResultCache(cfg.CacheEntries),
		flight:      &flightRecorder{size: cfg.FlightEntries},
		queue:       make(chan *task, cfg.QueueDepth),
		solver:      mpss.NewSolver(mpss.WithRecorder(rec)),
		sessions:    newSessionRegistry(),
		janitorStop: make(chan struct{}),
		start:       time.Now(),
	}
	for _, ep := range [...]string{"optimal", "oa", "avr", "atcap"} {
		s.mux.HandleFunc("/v1/solve/"+ep, s.instrument(ep, s.solveHandler(ep)))
	}
	s.mux.HandleFunc("/v1/feasible", s.instrument("feasible", s.solveHandler("feasible")))
	s.mux.HandleFunc("/v1/mincap", s.instrument("mincap", s.solveHandler("mincap")))
	s.mux.HandleFunc("POST /v1/session", s.instrument("session_create", s.handleSessionCreate))
	s.mux.HandleFunc("POST /v1/session/{id}/delta", s.instrument("session_delta", s.handleSessionDelta))
	s.mux.HandleFunc("GET /v1/session/{id}", s.instrument("session_get", s.handleSessionGet))
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.instrument("session_delete", s.handleSessionDelete))
	s.mux.HandleFunc("/v1/healthz", s.instrument("healthz", s.handleHealthz))
	s.mux.HandleFunc("/v1/readyz", s.instrument("readyz", s.handleReadyz))
	s.mux.HandleFunc("GET /v1/status", s.instrument("status", s.handleStatus))
	s.mux.HandleFunc("GET /v1/cache/{hash}", s.instrument("cache_peek", s.handleCachePeek))
	s.mux.HandleFunc("/v1/metrics", s.instrument("metrics", s.handleMetrics))
	s.mux.HandleFunc("/metrics", s.instrument("prometheus", s.handlePrometheus))
	s.mux.HandleFunc("/v1/debug/traces", s.instrument("traces", s.handleTraces))
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	go s.sessionJanitor()
	return s
}

// Recorder returns the server's observability recorder (the /v1/metrics
// source).
func (s *Server) Recorder() *obs.Recorder { return s.rec }

// Config returns the server's resolved configuration (defaults applied),
// so callers can report what the daemon actually runs with.
func (s *Server) Config() Config { return s.cfg }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// worker is one solver loop: it executes tasks from the admission
// queue until the queue closes at drain time.
func (s *Server) worker() {
	defer s.workers.Done()
	for t := range s.queue {
		if testHookTaskStart != nil {
			testHookTaskStart()
		}
		t.waited = time.Since(t.enqueued)
		// A task whose context died while queued is not worth starting.
		if t.ctx.Err() != nil {
			t.resp = s.expired(t.ctx, t.clientCtx)
		} else {
			t.resp = s.runTask(t)
		}
		close(t.done)
	}
}

// expired answers a request whose context died before its solve
// started, in the queue or waiting for its session's turn. The reason
// decides the status: a deadline that expired with the client still
// connected is the server's failure to schedule in time (504), while a
// client that hung up is 499.
func (s *Server) expired(ctx, clientCtx context.Context) response {
	err := ctx.Err()
	if errors.Is(err, context.DeadlineExceeded) && clientCtx.Err() == nil {
		s.rec.Add("server.deadline_exceeded", 1)
		return errorResponse(http.StatusGatewayTimeout, "canceled", "deadline expired while queued: "+err.Error())
	}
	s.rec.Add("server.canceled", 1)
	return errorResponse(api.StatusClientClosedRequest, "canceled", err.Error())
}

// runTask executes one task with per-request panic containment: a panic
// escaping the solver's own recover boundary (or raised in the handler
// glue) becomes a 500 for this request, and the worker keeps serving.
func (s *Server) runTask(t *task) (resp response) {
	defer func() {
		if r := recover(); r != nil {
			s.rec.Add("server.panics", 1)
			resp = errorResponse(http.StatusInternalServerError, "internal", fmt.Sprintf("panic: %v", r))
		}
	}()
	return t.exec()
}

// admit enqueues a task unless the server is draining or the queue is
// full. It holds the read lock across the send so Shutdown's queue
// close (under the write lock) cannot race a send on a closed channel.
func (s *Server) admit(t *task) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return false
	}
	select {
	case s.queue <- t:
		s.inflight.Add(1)
		return true
	default:
		return false
	}
}

// await admits exec under the request's deadline context ctx and waits
// for the worker's answer; 503 when the task cannot be admitted. The
// worker always answers: a canceled context unwinds the solve at its
// next phase/round boundary, so the wait is bounded.
func (s *Server) await(ctx context.Context, r *http.Request, exec func() response) response {
	t := &task{
		ctx:       ctx,
		clientCtx: r.Context(),
		exec:      exec,
		done:      make(chan struct{}),
		enqueued:  time.Now(),
	}
	if !s.admit(t) {
		s.rec.Add("server.rejected", 1)
		return errorResponse(http.StatusServiceUnavailable, "overloaded", "solver queue full or server draining")
	}
	<-t.done
	s.inflight.Done()
	s.rec.Observe("server.queue_wait_seconds", t.waited.Seconds())
	obs.SpanFromContext(r.Context()).SetValue("queue_wait_seconds", t.waited.Seconds())
	return t.resp
}

// requestTimeout resolves a request's timeout_ms against the server
// default: it may shorten the deadline, never extend it.
func (s *Server) requestTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	return timeout
}

// Shutdown gracefully drains the server: new solve requests are
// rejected with 503 immediately, in-flight and already-queued solves
// run to completion, then the workers exit. It returns nil once the
// pool is fully drained, or ctx.Err() if ctx expires first (workers
// are left to finish in the background; Shutdown may not be retried).
// Callers embedding the Server in an http.Server should call
// http.Server.Shutdown first so handlers finish collecting responses.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()

	if !already {
		close(s.janitorStop)
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		if !already {
			// All admitted tasks are answered and no further admit can
			// succeed; the queue is empty and safe to close.
			s.mu.Lock()
			close(s.queue)
			s.mu.Unlock()
		}
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// solveHandler builds the handler for one solve endpoint: decode,
// consult the cache, admit into the queue, wait for the worker, cache
// and reply. The instrument middleware has already assigned the request
// ID and opened the request span by the time this runs.
func (s *Server) solveHandler(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := api.RequestIDFrom(r.Context())
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			errorResponse(http.StatusMethodNotAllowed, "method_not_allowed", "POST required").write(w, reqID)
			return
		}
		s.rec.Add("server.requests", 1)
		stop := s.rec.Time("server.request_seconds")
		defer stop()

		var req api.SolveRequest
		if resp, ok := decodeRequest(w, r, &req); !ok {
			resp.write(w, reqID)
			return
		}
		key := api.RequestKey(kind, &req)
		hit := func(resp response) {
			s.rec.Add("server.cache_hits", 1)
			obs.SpanFromContext(r.Context()).SetTag("cache", "hit")
			w.Header().Set(api.HeaderCache, "hit")
			resp.write(w, reqID)
		}
		if resp, ok := s.cache.Get(key); ok {
			hit(resp)
			return
		}

		// Coalesce the stampede: concurrent identical requests (same key,
		// result not cached yet) share one solve instead of queuing one
		// each. A flight caches its answer before it finishes, so a leader
		// that looks again finds any flight that landed since the lookup
		// above: one solve per key, however the requests interleave.
		call, leader := s.sf.Join(key)
		if leader {
			if resp, ok := s.cache.Get(key); ok {
				s.sf.Finish(key, call, resp)
				hit(resp)
				return
			}
		}
		s.rec.Add("server.cache_misses", 1)

		// runSolve is the full admission path: deadline, queue, worker,
		// wait, cache. Run by the flight leader (and by a follower whose
		// leader came back with an uncacheable answer).
		runSolve := func() response {
			ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(req.TimeoutMS))
			defer cancel()

			resp := s.await(ctx, r, func() response {
				// The solve runs as a child of the flight-recorder request
				// span, so queue wait and solve time separate in the trace,
				// and the solver's phase spans nest under it.
				span := obs.SpanFromContext(ctx).StartSpan("solve " + kind)
				defer span.End()
				return s.solve(obs.ContextWithSpan(ctx, span), kind, &req, r)
			})
			if resp.cacheable() {
				s.cache.Put(key, resp)
			}
			return resp
		}

		if !leader {
			s.rec.Add("server.coalesced", 1)
			obs.SpanFromContext(r.Context()).SetTag("flight", "coalesced")
			select {
			case <-call.Done():
				if resp := call.Val(); resp.cacheable() {
					resp.write(w, reqID)
					return
				}
				// The leader's answer was transient (5xx/503/timeout) — it
				// may have been the leader's own short deadline. Solve solo
				// rather than replaying a failure that may not be ours.
			case <-r.Context().Done():
				s.rec.Add("server.canceled", 1)
				errorResponse(api.StatusClientClosedRequest, "canceled", r.Context().Err().Error()).write(w, reqID)
				return
			}
			runSolve().write(w, reqID)
			return
		}
		var resp response
		func() {
			// Finish runs even if runSolve panics: followers then observe a
			// zero (uncacheable) response and solve on their own.
			defer func() { s.sf.Finish(key, call, resp) }()
			resp = runSolve()
		}()
		resp.write(w, reqID)
	}
}

// solve dispatches one admitted request to the solver.
func (s *Server) solve(ctx context.Context, kind string, req *api.SolveRequest, r *http.Request) response {
	alpha := req.Alpha
	if alpha == 0 {
		alpha = 3
	}
	p, err := mpss.NewAlpha(alpha)
	if err != nil {
		return errorResponse(http.StatusBadRequest, "invalid_instance", fmt.Sprintf("alpha: %v", err))
	}
	in := &mpss.Instance{M: req.M, Jobs: req.Jobs}
	withCtx := mpss.WithContext(ctx)

	switch kind {
	case "optimal":
		solveFn := s.solver.Solve
		if req.Exact {
			solveFn = s.solver.SolveExact
		}
		res, err := solveFn(in, withCtx)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.OptimalResponse{
			Energy:   res.Schedule.Energy(p),
			Alpha:    alpha,
			Rounds:   res.Stats.Rounds,
			Schedule: res.Schedule,
			Phases:   phaseResponses(res.Phases),
		})
	case "oa":
		res, err := s.solver.OA(in, withCtx)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.OnlineResponse{
			Energy:   res.Schedule.Energy(p),
			Alpha:    alpha,
			Bound:    mpss.OABound(alpha),
			Replans:  res.Replans,
			Schedule: res.Schedule,
		})
	case "avr":
		res, err := s.solver.AVR(in, withCtx)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.OnlineResponse{
			Energy:   res.Schedule.Energy(p),
			Alpha:    alpha,
			Bound:    mpss.AVRBound(alpha),
			Schedule: res.Schedule,
		})
	case "atcap":
		// Fixed-frequency "race to idle" schedule: every processor runs
		// at exactly req.Cap or idles. The one endpoint whose domain
		// answer can be ErrInfeasible (422): a cap below the instance's
		// minimum feasible speed admits no schedule.
		sched, err := mpss.ScheduleAtCap(in, req.Cap)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.AtCapResponse{
			Energy:   sched.Energy(p),
			Alpha:    alpha,
			Cap:      req.Cap,
			Schedule: sched,
		})
	case "feasible":
		ok, err := s.solver.FeasibleAtSpeed(in, req.Cap, withCtx)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.FeasibleResponse{Cap: req.Cap, Feasible: ok})
	case "mincap":
		cap, err := s.solver.MinFeasibleCap(in, req.Rel, withCtx)
		if err != nil {
			return s.failure(r, err)
		}
		return jsonResponse(http.StatusOK, api.MinCapResponse{Cap: cap})
	default:
		return errorResponse(http.StatusNotFound, "unknown_endpoint", kind)
	}
}

// failure maps a solver error onto its HTTP answer. The request context
// tells "client hung up" (499) from "the deadline we imposed expired"
// (504).
func (s *Server) failure(r *http.Request, err error) response {
	code, kind := errToStatus(err, r.Context().Err() != nil)
	if kind == "canceled" {
		s.rec.Add("server.canceled", 1)
	}
	return errorResponse(code, kind, err.Error())
}

// phaseResponses renders the optimum's phases for the wire (nil for
// none).
func phaseResponses(phases []mpss.OptimalPhase) []api.PhaseResponse {
	var out []api.PhaseResponse
	for _, ph := range phases {
		out = append(out, api.PhaseResponse{Speed: ph.Speed, JobIDs: ph.JobIDs, Procs: ph.Procs})
	}
	return out
}

// handleHealthz answers liveness probes: 200 "ok" for as long as the
// process can serve HTTP at all — a draining server is still alive, so
// an orchestrator must not kill it. Readiness (drain/saturation) lives
// on /v1/readyz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	jsonResponse(http.StatusOK, api.HealthResponse{Status: "ok"}).write(w, api.RequestIDFrom(r.Context()))
}

// handleReadyz answers readiness probes: a load balancer should stop
// routing here when the server is draining (Shutdown began) or the
// admission queue is saturated (the next solve would be rejected 503
// anyway).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reqID := api.RequestIDFrom(r.Context())
	state := s.readyState()
	code := http.StatusOK
	if state != "ready" {
		code = http.StatusServiceUnavailable
	}
	jsonResponse(code, api.HealthResponse{Status: state}).write(w, reqID)
}

// handleMetrics dumps the recorder snapshot as JSON — service counters
// (server.requests, server.cache_hits, server.rejected,
// server.canceled), the labeled per-endpoint series, and the solver
// counters every worker recorded.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.queueDepth()
	w.Header().Set("Content-Type", "application/json")
	if err := s.rec.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handlePrometheus renders the same recorder in the Prometheus text
// exposition format for scrapers (see internal/obs prom.go for the
// metric naming and the histogram/summary encoding).
func (s *Server) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	s.queueDepth()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := s.rec.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleTraces serves the flight recorder: the bounded rings of most
// recent and slowest request span trees.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	jsonResponse(http.StatusOK, s.flight.snapshot()).write(w, api.RequestIDFrom(r.Context()))
}

// DebugHandler returns the opt-in debug surface meant for a separate,
// non-public listener: net/http/pprof (CPU/heap/goroutine profiles),
// the flight recorder and both metric encodings. cmd/mpss-served binds
// it to -debug-addr.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/v1/debug/traces", s.handleTraces)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	mux.HandleFunc("/metrics", s.handlePrometheus)
	return mux
}
