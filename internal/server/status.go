package server

import (
	"net/http"
	"time"

	"mpss/api"
)

// This file is the replica-introspection surface the cluster tier
// consumes: GET /v1/status (queue/cache/load numbers as one JSON
// object) and GET /v1/cache/{hash} (result-cache peek by canonical
// request key, the cross-replica cache sharing primitive — a sibling or
// the front tier can replay this replica's cached result instead of
// re-solving after a ring change).

// readyState reports the readiness string the probe endpoints and the
// status endpoint share.
func (s *Server) readyState() string {
	s.mu.RLock()
	draining := s.draining
	s.mu.RUnlock()
	switch {
	case draining:
		return "draining"
	case len(s.queue) == cap(s.queue):
		return "saturated"
	default:
		return "ready"
	}
}

// queueDepth returns the admission queue's length and publishes it as
// the server.queue_depth gauge. Every endpoint that reports the gauge
// — /v1/status, /v1/metrics and /metrics — refreshes it first, so a
// scrape never reads a depth left by an earlier probe.
func (s *Server) queueDepth() int {
	n := len(s.queue)
	s.rec.SetGauge("server.queue_depth", float64(n))
	return n
}

// handleStatus serves the replica introspection snapshot.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	queueLen := s.queueDepth()
	_, solveSeconds := s.rec.Histogram("server.request_seconds").Total()
	jsonResponse(http.StatusOK, api.ReplicaStatusResponse{
		Replica:       s.cfg.ReplicaName,
		Status:        s.readyState(),
		Workers:       s.cfg.Workers,
		QueueLen:      queueLen,
		QueueCap:      cap(s.queue),
		Sessions:      s.rec.Value("server.sessions_active"),
		CacheEntries:  s.cache.Len(),
		Requests:      s.rec.Value("server.requests"),
		CacheHits:     s.rec.Value("server.cache_hits"),
		SolveSeconds:  solveSeconds,
		UptimeSeconds: time.Since(s.start).Seconds(),
	}).write(w, api.RequestIDFrom(r.Context()))
}

// handleCachePeek answers a result-cache lookup by canonical request
// key (api.RequestKey). A hit replays the cached response verbatim —
// the cached status (200 or 422) and body — marked with the
// api.HeaderCache header so a miss's 404 can never be mistaken for a
// cached 404 (404s are not cacheable). Peeks do not touch the
// cache_hits/cache_misses counters: they are not client solves, and the
// hash-affinity accounting in the cluster tests depends on that.
func (s *Server) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	reqID := api.RequestIDFrom(r.Context())
	key := r.PathValue("hash")
	resp, ok := s.cache.Get(key)
	if !ok {
		s.rec.Add("server.cache_peek_misses", 1)
		errorResponse(http.StatusNotFound, "cache_miss", "no cached result for key").write(w, reqID)
		return
	}
	s.rec.Add("server.cache_peek_hits", 1)
	w.Header().Set(api.HeaderCache, "peek")
	resp.write(w, reqID)
}
