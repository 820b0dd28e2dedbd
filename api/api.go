// Package api is the public wire contract of the mpss scheduling
// service: the JSON request/response types spoken by mpss-served
// replicas and the mpss-front cluster tier, the uniform error envelope,
// the canonical request key used for caching and consistent-hash
// routing, and a typed HTTP client.
//
// Every wire-type struct lives here and only here — internal/server,
// internal/cluster, cmd/mpss-loadgen and the end-to-end suites all
// import this package instead of re-declaring or hand-parsing bodies.
//
// Endpoints (replica surface; mpss-front exposes the same /v1/* routes
// plus /v1/cluster/status):
//
//	POST   /v1/solve/optimal       offline optimal schedule (optionally exact)
//	POST   /v1/solve/oa            online Optimal Available simulation
//	POST   /v1/solve/avr           online Average Rate simulation
//	POST   /v1/solve/atcap         fixed-frequency schedule at a speed cap
//	POST   /v1/feasible            one feasibility probe at a speed cap
//	POST   /v1/mincap              minimum feasible speed cap
//	POST   /v1/session             open a streaming session
//	POST   /v1/session/{id}/delta  mutate + re-solve
//	GET    /v1/session/{id}        latest resolve (long-poll with wait_seq)
//	DELETE /v1/session/{id}        tear the session down
//	GET    /v1/status              replica introspection (queue, cache, load)
//	GET    /v1/cache/{hash}        result-cache peek by canonical request key
//	GET    /v1/healthz             liveness
//	GET    /v1/readyz              readiness
//	GET    /v1/metrics             observability snapshot (JSON)
//	GET    /metrics                Prometheus text exposition
//	GET    /v1/cluster/status      cluster topology + autoscaler (front tier)
//
// Error envelope: every non-2xx body is an ErrorBody, whose only
// top-level key "error" holds {"kind","message","request_id"}.
package api

import "mpss"

// SolveRequest is the JSON body shared by every POST solve endpoint:
// the instance in the same shape the CLIs read ({"m": ..., "jobs":
// [...]}) plus endpoint-specific knobs. Unknown fields are ignored, so
// a client may reuse one request struct across endpoints.
type SolveRequest struct {
	M    int        `json:"m"`
	Jobs []mpss.Job `json:"jobs"`

	// Alpha is the power-function exponent used to *report* energy
	// (P(s) = s^alpha, default 3). The optimal schedule itself does not
	// depend on it.
	Alpha float64 `json:"alpha,omitempty"`
	// Exact switches /v1/solve/optimal to exact rational arithmetic.
	Exact bool `json:"exact,omitempty"`
	// Cap is the speed cap probed by /v1/feasible and /v1/solve/atcap.
	Cap float64 `json:"cap,omitempty"`
	// TimeoutMS overrides the server's per-request solve deadline in
	// milliseconds (capped at the server default; 0 = use the default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// PhaseResponse is one speed level of an optimal schedule.
type PhaseResponse struct {
	Speed  float64 `json:"speed"`
	JobIDs []int   `json:"job_ids"`
	Procs  []int   `json:"procs"`
}

// OptimalResponse is the body of a successful /v1/solve/optimal call.
// Energy, Phases, Rounds and Schedule are bit-deterministic for a given
// instance; Rounds is solver telemetry (max-flow rounds executed).
type OptimalResponse struct {
	Energy   float64         `json:"energy"`
	Alpha    float64         `json:"alpha"`
	Phases   []PhaseResponse `json:"phases"`
	Rounds   int             `json:"rounds"`
	Schedule *mpss.Schedule  `json:"schedule"`
}

// OnlineResponse is the body of a successful /v1/solve/oa or
// /v1/solve/avr call. Bound is the algorithm's proven competitive
// ratio at the reporting alpha.
type OnlineResponse struct {
	Energy   float64        `json:"energy"`
	Alpha    float64        `json:"alpha"`
	Bound    float64        `json:"bound"`
	Replans  int            `json:"replans,omitempty"`
	Schedule *mpss.Schedule `json:"schedule"`
}

// AtCapResponse is the body of a successful /v1/solve/atcap call.
type AtCapResponse struct {
	Energy   float64        `json:"energy"`
	Alpha    float64        `json:"alpha"`
	Cap      float64        `json:"cap"`
	Schedule *mpss.Schedule `json:"schedule"`
}

// FeasibleResponse is the body of a successful /v1/feasible call.
type FeasibleResponse struct {
	Cap      float64 `json:"cap"`
	Feasible bool    `json:"feasible"`
}

// MinCapResponse is the body of a successful /v1/mincap call.
type MinCapResponse struct {
	Cap float64 `json:"cap"`
}

// SessionDeltaRequest is the body of POST /v1/session/{id}/delta: a
// batch of mutations applied atomically (all validated before any is
// applied) followed by one re-solve of the session's job set. Removes apply before
// adds, so one delta can replace a job under the same ID.
type SessionDeltaRequest struct {
	AddJobs   []mpss.Job `json:"add_jobs,omitempty"`
	RemoveIDs []int      `json:"remove_ids,omitempty"`
	// Cap retunes the session's speed cap when present; 0 clears it.
	Cap *float64 `json:"cap,omitempty"`
	// TimeoutMS overrides the per-delta solve deadline (capped at the
	// server default; 0 = use the default).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SessionResponse is the body returned by session create, delta and
// long-poll calls: the session coordinates plus the latest resolve.
type SessionResponse struct {
	SessionID string `json:"session_id"`
	// Seq increments on every published resolve; long-poll with
	// ?wait_seq=<last seen> to block until a newer one exists.
	Seq         int64           `json:"seq"`
	Jobs        int             `json:"jobs"`
	Energy      float64         `json:"energy"`
	Alpha       float64         `json:"alpha"`
	Cap         float64         `json:"cap,omitempty"`
	CapFeasible *bool           `json:"cap_feasible,omitempty"`
	Phases      []PhaseResponse `json:"phases"`
	Schedule    *mpss.Schedule  `json:"schedule"`
}

// HealthResponse is the body of the probe endpoints. /v1/healthz
// (liveness) always reports "ok"; /v1/readyz (readiness) reports
// "ready", "draining" once shutdown began, or "saturated" while the
// admission queue is full.
type HealthResponse struct {
	Status string `json:"status"`
}

// ReplicaStatusResponse is the body of GET /v1/status: one replica's
// introspection surface, the numbers a front tier or autoscaler needs
// without parsing the full metrics snapshot. Requests, CacheHits and
// SolveSeconds are cumulative since process start; a poller diffs
// successive samples for rates.
type ReplicaStatusResponse struct {
	// Replica is the name the daemon was started with (-replica flag;
	// empty for a standalone server).
	Replica string `json:"replica,omitempty"`
	// Status mirrors /v1/readyz: "ready", "draining" or "saturated".
	Status       string `json:"status"`
	Workers      int    `json:"workers"`
	QueueLen     int    `json:"queue_len"`
	QueueCap     int    `json:"queue_cap"`
	Sessions     int64  `json:"sessions"`
	CacheEntries int    `json:"cache_entries"`
	// Requests counts admitted solve/session requests; CacheHits the
	// result-cache short circuits among them.
	Requests  int64 `json:"requests"`
	CacheHits int64 `json:"cache_hits"`
	// SolveSeconds is the cumulative wall time spent answering solve
	// requests (the server.request_seconds histogram sum) — the demand
	// signal the cluster autoscaler feeds to the solver.
	SolveSeconds  float64 `json:"solve_seconds"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// ClusterReplica is one replica as the front tier sees it.
type ClusterReplica struct {
	Name string `json:"name"`
	URL  string `json:"url"`
	// State is the health state machine position: "starting" (spawned,
	// not yet ready), "healthy", "suspect" (one failed probe or proxy
	// error), "down" (out of the ring) or "draining" (scale-down in
	// progress).
	State string `json:"state"`
	// Proxied counts requests the front routed here.
	Proxied int64 `json:"proxied"`
	// LastError is the most recent probe/proxy failure, if any.
	LastError string `json:"last_error,omitempty"`
	// Status is the replica's own latest /v1/status sample (nil until
	// the first successful poll).
	Status *ReplicaStatusResponse `json:"status,omitempty"`
}

// ScaleEvent records one autoscaler replica-count change.
type ScaleEvent struct {
	UnixMS int64  `json:"unix_ms"`
	From   int    `json:"from"`
	To     int    `json:"to"`
	Reason string `json:"reason"`
}

// AutoscalerStatus reports the control loop's latest decision and the
// solver-posed feasibility question behind it: the observed demand
// window is encoded as an mpss instance whose processors are replicas,
// and the desired count is the smallest replica count at which that
// instance is feasible under the per-replica capacity cap.
type AutoscalerStatus struct {
	Enabled bool `json:"enabled"`
	// DemandWorkSeconds is the solve-work demand (worker-seconds,
	// including queue backlog) of the last observation window.
	DemandWorkSeconds float64 `json:"demand_work_seconds"`
	// CapacityPerReplica is the worker-seconds/second one replica is
	// assumed to serve (workers × target utilization).
	CapacityPerReplica float64 `json:"capacity_per_replica"`
	// Desired is the last computed replica count.
	Desired int `json:"desired"`
	// MinCap is the minimum feasible per-replica service rate at the
	// current replica count, the solver's own summary of how tight the
	// cluster is (0 until the first decision with demand).
	MinCap       float64 `json:"min_cap"`
	LastDecision int64   `json:"last_decision_unix_ms,omitempty"`
}

// ClusterStatusResponse is the body of GET /v1/cluster/status on the
// front tier.
type ClusterStatusResponse struct {
	Replicas   []ClusterReplica `json:"replicas"`
	Desired    int              `json:"desired"`
	Autoscaler AutoscalerStatus `json:"autoscaler"`
	// Events is the bounded most-recent-first scale event log.
	Events []ScaleEvent `json:"events,omitempty"`
}
