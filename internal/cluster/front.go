package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpss/api"
	"mpss/internal/obs"
	"mpss/internal/pool"
)

// Config parameterizes a Front. Spawner is required; everything else
// has a default.
type Config struct {
	// Spawner provisions replicas (ExecSpawner for child processes,
	// StaticSpawner for already-running servers).
	Spawner Spawner
	// MinReplicas..MaxReplicas bound the replica count (defaults 1..4).
	// The front starts MinReplicas synchronously.
	MinReplicas int
	MaxReplicas int
	// Vnodes is the consistent-hash virtual-node count per replica
	// (default 64).
	Vnodes int
	// ProbeInterval paces the health/status poll loop (default 500ms;
	// negative disables the loop — tests drive probes manually).
	ProbeInterval time.Duration
	// ProxyAttempts bounds how many ring successors one request tries
	// before giving up with 503 (default 3).
	ProxyAttempts int
	// ProxyTimeout bounds one proxied call when the inbound request has
	// no deadline of its own (default 60s — above the replicas' solve
	// deadline, so the replica's own 504 wins).
	ProxyTimeout time.Duration
	// MaxBodyBytes bounds inbound request bodies (default 8 MiB).
	MaxBodyBytes int64
	// Autoscale configures the solver-driven replica-count control loop
	// (autoscaler.go). Zero value: disabled.
	Autoscale AutoscaleConfig
	// Recorder receives the front's counters and gauges.
	Recorder *obs.Recorder
	// Logger receives structured lifecycle records. Nil discards.
	Logger *slog.Logger
}

func (c *Config) applyDefaults() error {
	if c.Spawner == nil {
		return errors.New("cluster: Config.Spawner is required")
	}
	if c.MinReplicas <= 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas < c.MinReplicas {
		c.MaxReplicas = c.MinReplicas + 3
	}
	if c.Vnodes <= 0 {
		c.Vnodes = defaultVnodes
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = 500 * time.Millisecond
	}
	if c.ProxyAttempts <= 0 {
		c.ProxyAttempts = 3
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Recorder == nil {
		c.Recorder = obs.New()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))
	}
	return nil
}

// Front is the cluster's public tier: one http.Handler exposing the
// same /v1 surface as a single replica, plus /v1/cluster/status. It
// routes solves by consistent hash on the canonical request key (cache
// locality), reroutes around dead replicas, coalesces duplicate
// concurrent solves cluster-wide, and — with autoscaling enabled —
// resizes the replica set by asking the solver how many processors the
// observed demand needs.
type Front struct {
	cfg Config
	rec *obs.Recorder
	log *slog.Logger
	mux *http.ServeMux
	sf  pool.Group[proxied]
	as  *autoscaler

	mu       sync.RWMutex
	replicas map[string]*replica
	order    []string // spawn order; scale-down drains newest first
	ring     *ring    // routable (healthy+suspect) members
	prevRing *ring    // ring before the last membership change (cache migration)
	desired  int
	nextID   int
	sessions map[string]string // session ID -> replica name
	events   []api.ScaleEvent
	closed   bool

	stopCh chan struct{}
	bg     sync.WaitGroup
}

// maxScaleEvents bounds the /v1/cluster/status event log.
const maxScaleEvents = 64

// New builds a Front, spawns MinReplicas synchronously, and starts the
// probe and autoscale loops. It fails if no replica comes up.
func New(cfg Config) (*Front, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	f := &Front{
		cfg:      cfg,
		rec:      cfg.Recorder,
		log:      cfg.Logger,
		mux:      http.NewServeMux(),
		replicas: make(map[string]*replica),
		sessions: make(map[string]string),
		stopCh:   make(chan struct{}),
	}
	for i := 0; i < cfg.MinReplicas; i++ {
		if err := f.addReplica(context.Background()); err != nil {
			f.stopAll(context.Background())
			return nil, err
		}
	}
	f.mu.Lock()
	f.desired = cfg.MinReplicas
	f.mu.Unlock()
	if f.routable() == 0 {
		f.stopAll(context.Background())
		return nil, errors.New("cluster: no replica became ready")
	}

	for _, ep := range [...]string{"optimal", "oa", "avr", "atcap"} {
		f.mux.HandleFunc("POST /v1/solve/"+ep, f.solveProxy(ep, "/v1/solve/"+ep))
	}
	f.mux.HandleFunc("POST /v1/feasible", f.solveProxy("feasible", "/v1/feasible"))
	f.mux.HandleFunc("POST /v1/mincap", f.solveProxy("mincap", "/v1/mincap"))
	f.mux.HandleFunc("POST /v1/session", f.handleSessionCreate)
	f.mux.HandleFunc("POST /v1/session/{id}/delta", f.sessionProxy)
	f.mux.HandleFunc("GET /v1/session/{id}", f.sessionProxy)
	f.mux.HandleFunc("DELETE /v1/session/{id}", f.sessionProxy)
	f.mux.HandleFunc("GET /v1/cache/{hash}", f.handleCachePeek)
	f.mux.HandleFunc("GET /v1/healthz", f.handleHealthz)
	f.mux.HandleFunc("GET /v1/readyz", f.handleReadyz)
	f.mux.HandleFunc("GET /v1/status", f.handleStatus)
	f.mux.HandleFunc("GET /v1/metrics", f.handleMetrics)
	f.mux.HandleFunc("GET /metrics", f.handlePrometheus)
	f.mux.HandleFunc("GET /v1/cluster/status", f.handleClusterStatus)

	if cfg.ProbeInterval > 0 {
		f.bg.Add(1)
		go f.probeLoop()
	}
	if cfg.Autoscale.Enabled {
		f.as = newAutoscaler(f, cfg.Autoscale)
		f.bg.Add(1)
		go f.as.loop()
	}
	return f, nil
}

// ServeHTTP implements http.Handler.
func (f *Front) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mux.ServeHTTP(w, r)
}

// Recorder returns the front's observability recorder.
func (f *Front) Recorder() *obs.Recorder { return f.rec }

// Shutdown stops the control loops and drains every replica the front
// owns. Safe to call once.
func (f *Front) Shutdown(ctx context.Context) error {
	f.mu.Lock()
	already := f.closed
	f.closed = true
	f.mu.Unlock()
	if already {
		return nil
	}
	close(f.stopCh)
	f.bg.Wait()
	return f.stopAll(ctx)
}

func (f *Front) stopAll(ctx context.Context) error {
	f.mu.Lock()
	reps := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		reps = append(reps, r)
	}
	f.mu.Unlock()
	var wg sync.WaitGroup
	errs := make(chan error, len(reps))
	for _, r := range reps {
		if r.stop == nil {
			continue
		}
		wg.Add(1)
		go func(r *replica) {
			defer wg.Done()
			if err := r.stop(ctx); err != nil {
				errs <- err
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	return <-errs
}

// --- membership -------------------------------------------------------

// addReplica spawns one replica, probes it once, and installs it.
func (f *Front) addReplica(ctx context.Context) error {
	f.mu.Lock()
	f.nextID++
	name := "r" + strconv.Itoa(f.nextID)
	f.mu.Unlock()

	url, stop, err := f.cfg.Spawner.Spawn(ctx, name)
	if err != nil {
		return fmt.Errorf("cluster: spawning %s: %w", name, err)
	}
	rep := &replica{
		name:  name,
		url:   url,
		stop:  stop,
		api:   api.NewClient(url, api.WithClientTimeout(5*time.Second)),
		state: stateStarting,
	}
	// One immediate probe: an ExecSpawner replica is already listening,
	// so this promotes it to healthy before any request routes to it; a
	// static target that is down stays "starting" until the probe loop
	// reaches it.
	probeCtx, cancel := context.WithTimeout(ctx, 3*time.Second)
	f.probeOne(probeCtx, rep)
	cancel()

	f.mu.Lock()
	f.replicas[name] = rep
	f.order = append(f.order, name)
	f.mu.Unlock()
	f.rebuildRing()
	f.log.Info("replica added", "replica", name, "url", url, "state", rep.getState())
	return nil
}

// dropNewest drains the most recently spawned active replica (LIFO
// scale-down keeps the oldest, longest-warmed caches alive).
func (f *Front) dropNewest(ctx context.Context) {
	f.mu.Lock()
	var rep *replica
	for i := len(f.order) - 1; i >= 0; i-- {
		r := f.replicas[f.order[i]]
		if r != nil && r.getState() != stateDraining {
			rep = r
			break
		}
	}
	f.mu.Unlock()
	if rep == nil {
		return
	}
	rep.setState(stateDraining, "")
	f.rebuildRing()
	f.log.Info("replica draining", "replica", rep.name)
	// Drain in the background: SIGTERM lets in-flight solves finish; the
	// entry is removed once the process is gone.
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		if rep.stop != nil {
			stopCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := rep.stop(stopCtx); err != nil {
				f.log.Warn("replica stop", "replica", rep.name, "error", err.Error())
			}
		}
		f.mu.Lock()
		delete(f.replicas, rep.name)
		for i, n := range f.order {
			if n == rep.name {
				f.order = append(f.order[:i], f.order[i+1:]...)
				break
			}
		}
		for id, owner := range f.sessions {
			if owner == rep.name {
				delete(f.sessions, id)
			}
		}
		f.mu.Unlock()
		f.log.Info("replica removed", "replica", rep.name)
	}()
}

// scaleTo moves the active replica count toward n (clamped to
// [MinReplicas, MaxReplicas]), recording a scale event. Called by the
// autoscaler loop; spawning is synchronous on that loop.
func (f *Front) scaleTo(n int, reason string) {
	if n < f.cfg.MinReplicas {
		n = f.cfg.MinReplicas
	}
	if n > f.cfg.MaxReplicas {
		n = f.cfg.MaxReplicas
	}
	cur := f.activeCount()
	if n == cur {
		return
	}
	f.mu.Lock()
	f.desired = n
	f.events = append(f.events, api.ScaleEvent{UnixMS: time.Now().UnixMilli(), From: cur, To: n, Reason: reason})
	if len(f.events) > maxScaleEvents {
		f.events = f.events[len(f.events)-maxScaleEvents:]
	}
	f.mu.Unlock()
	f.rec.SetGauge("cluster.desired_replicas", float64(n))
	f.log.Info("scaling", "from", cur, "to", n, "reason", reason)
	for ; cur < n; cur++ {
		f.rec.Add("cluster.scale_ups", 1)
		if err := f.addReplica(context.Background()); err != nil {
			f.log.Warn("scale up failed", "error", err.Error())
			return
		}
	}
	for ; cur > n; cur-- {
		f.rec.Add("cluster.scale_downs", 1)
		f.dropNewest(context.Background())
	}
}

// activeCount counts replicas not yet draining (the autoscaler's
// "current" — starting/suspect/down replicas still occupy a slot).
func (f *Front) activeCount() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := 0
	for _, r := range f.replicas {
		if r.getState() != stateDraining {
			n++
		}
	}
	return n
}

// routable counts ring members.
func (f *Front) routable() int {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.ring.members()
}

// rebuildRing recomputes the routing ring from the current
// healthy+suspect set. The outgoing ring is kept one generation as
// prevRing: after a membership change, a key's previous owner may hold
// the cached result the new owner lacks, and the proxy peeks it there
// (cache migration) before re-solving.
func (f *Front) rebuildRing() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var members []string
	for name, r := range f.replicas {
		switch r.getState() {
		case stateHealthy, stateSuspect:
			members = append(members, name)
		}
	}
	sort.Strings(members)
	old := f.ring
	next := newRing(members, f.cfg.Vnodes)
	if old != nil && old.n == next.n && sameMembers(old, next) {
		return
	}
	f.ring, f.prevRing = next, old
	f.rec.SetGauge("cluster.replicas_routable", float64(len(members)))
}

func sameMembers(a, b *ring) bool {
	seen := make(map[string]bool)
	for _, p := range a.points {
		seen[p.member] = true
	}
	n := 0
	for _, p := range b.points {
		if !seen[p.member] {
			return false
		}
	}
	for range seen {
		n++
	}
	return n == b.n
}

// --- health probing ---------------------------------------------------

func (f *Front) probeLoop() {
	defer f.bg.Done()
	tick := time.NewTicker(f.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-f.stopCh:
			return
		case <-tick.C:
			f.ProbeAll(context.Background())
		}
	}
}

// ProbeAll probes every non-draining replica once and rebuilds the ring
// on transitions. Exported so tests (and the autoscaler, ahead of a
// decision) can force a sweep instead of waiting out the ticker.
func (f *Front) ProbeAll(ctx context.Context) {
	f.mu.RLock()
	reps := make([]*replica, 0, len(f.replicas))
	for _, r := range f.replicas {
		if r.getState() != stateDraining {
			reps = append(reps, r)
		}
	}
	f.mu.RUnlock()
	changed := false
	for _, r := range reps {
		if f.probeOne(ctx, r) {
			changed = true
		}
		// A down replica the front spawned is a dead process: reap it so
		// the autoscaler sees a short fleet and spawns a replacement
		// (self-healing). Down static targets (nil stop) stay and keep
		// being probed — they may come back.
		if r.getState() == stateDown && r.stop != nil {
			f.reap(r)
			changed = true
		}
	}
	if changed {
		f.rebuildRing()
	}
}

// reap removes a dead spawned replica from the cluster and releases its
// process (the stop call collects the child, dead or stuck).
func (f *Front) reap(rep *replica) {
	f.mu.Lock()
	if _, ok := f.replicas[rep.name]; !ok {
		f.mu.Unlock()
		return
	}
	delete(f.replicas, rep.name)
	for i, n := range f.order {
		if n == rep.name {
			f.order = append(f.order[:i], f.order[i+1:]...)
			break
		}
	}
	for id, owner := range f.sessions {
		if owner == rep.name {
			delete(f.sessions, id)
		}
	}
	f.mu.Unlock()
	f.rec.Add("cluster.replicas_reaped", 1)
	f.log.Warn("replica reaped", "replica", rep.name, "last_error", rep.view().LastError)
	f.bg.Add(1)
	go func() {
		defer f.bg.Done()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rep.stop(ctx)
	}()
}

// probeOne probes one replica's /v1/readyz (and refreshes its /v1/status
// sample), reporting whether its routing state changed.
func (f *Front) probeOne(ctx context.Context, r *replica) bool {
	prev := r.getState()
	state, _, err := r.api.ReadyState(ctx)
	switch {
	case err != nil:
		f.rec.AddL("cluster.probe_failures", 1, obs.Label{Key: "replica", Value: r.name})
		if r.markFailure(err) == stateDown && prev != stateDown {
			f.log.Warn("replica down", "replica", r.name, "error", err.Error())
		}
	case state == "ready":
		r.setState(stateHealthy, "")
	case state == "draining":
		// The replica is shutting down on its own; take it out of the ring.
		r.setState(stateDown, "replica draining")
	default:
		// "saturated": alive but rejecting — keep its state; the proxy's
		// 503 retry walks past it.
	}
	if err == nil {
		if st, serr := r.api.ReplicaStatus(ctx); serr == nil {
			r.mu.Lock()
			r.status = st
			r.mu.Unlock()
			f.rec.SetGaugeL("cluster.replica_queue", float64(st.QueueLen), obs.Label{Key: "replica", Value: r.name})
		}
	}
	return prev != r.getState()
}

// --- proxy core -------------------------------------------------------

// candidates returns the preference-ordered replicas for key: the ring
// owner first, then its successors (reroute fallbacks).
func (f *Front) candidates(key string, n int) []*replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	names := f.ring.pick(key, n)
	out := make([]*replica, 0, len(names))
	for _, name := range names {
		if r := f.replicas[name]; r != nil {
			out = append(out, r)
		}
	}
	return out
}

// forward proxies one call to a replica, returning the replica's
// response or a transport error.
func (f *Front) forward(ctx context.Context, r *replica, method, path string, body []byte, reqID string) (proxied, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, f.cfg.ProxyTimeout)
		defer cancel()
	}
	res, err := r.api.DoRaw(api.WithRequestID(ctx, reqID), method, path, body)
	if err != nil {
		return proxied{}, err
	}
	r.mu.Lock()
	r.proxied++
	r.mu.Unlock()
	f.rec.AddL("cluster.proxied", 1, obs.Label{Key: "replica", Value: r.name})
	return proxied{
		status:  res.Status,
		body:    res.Body,
		replica: r.name,
		cached:  res.Header.Get(api.HeaderCache),
	}, nil
}

// route tries the candidates in order, marking transport failures and
// walking to the next ring successor; a 503 (overloaded/draining
// replica) also advances. Returns the first real answer.
func (f *Front) route(ctx context.Context, key, method, path string, body []byte, reqID string) (proxied, bool) {
	cands := f.candidates(key, f.cfg.ProxyAttempts)
	var last proxied
	var have bool
	for i, r := range cands {
		if i > 0 {
			f.rec.Add("cluster.retries", 1)
		}
		resp, err := f.forward(ctx, r, method, path, body, reqID)
		if err != nil {
			if ctx.Err() != nil {
				return proxied{}, false
			}
			st := r.markFailure(err)
			f.log.Warn("proxy failed", "replica", r.name, "state", st, "error", err.Error())
			f.rebuildRing()
			continue
		}
		if resp.status == http.StatusServiceUnavailable {
			last, have = resp, true
			continue
		}
		return resp, true
	}
	return last, have
}

// writeProxied renders a replica answer (or a front-originated error)
// to the client, stamping which replica served it.
func (f *Front) writeProxied(w http.ResponseWriter, p proxied, reqID string) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	if reqID != "" {
		h.Set(api.HeaderRequestID, reqID)
	}
	if p.replica != "" {
		h.Set(api.HeaderReplica, p.replica)
	}
	if p.cached != "" {
		h.Set(api.HeaderCache, p.cached)
	}
	w.WriteHeader(p.status)
	w.Write(p.body)
}

// frontError renders a front-originated error in the public envelope.
func (f *Front) frontError(w http.ResponseWriter, status int, kind, msg, reqID string) {
	body, _ := json.Marshal(api.NewErrorBody(kind, msg, reqID))
	f.writeProxied(w, proxied{status: status, body: body}, reqID)
}

// requestID honors an inbound X-Request-ID or mints one — the front is
// the outermost tier, so the ID it picks is the join key across the
// front's and the replica's logs.
func requestID(r *http.Request) string {
	if id := r.Header.Get(api.HeaderRequestID); api.ValidRequestID(id) {
		return id
	}
	return api.NewRequestID()
}

// solveProxy builds the handler for one solve endpoint: decode enough
// to compute the canonical key, coalesce cluster-wide, route by
// consistent hash, reroute on failure.
func (f *Front) solveProxy(kind, path string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		reqID := requestID(r)
		f.rec.Add("cluster.requests", 1)
		stop := f.rec.Time("cluster.request_seconds")
		defer stop()

		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes))
		if err != nil {
			f.frontError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error(), reqID)
			return
		}
		var req api.SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			f.frontError(w, http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err), reqID)
			return
		}
		key := api.RequestKey(kind, &req)

		// Cluster-wide singleflight: concurrent identical requests —
		// arriving for ANY replica — share one proxied solve.
		call, leader := f.sf.Join(key)
		if !leader {
			f.rec.Add("cluster.coalesced", 1)
			select {
			case <-call.Done():
				if resp := call.Val(); resp.cacheable() {
					f.writeProxied(w, resp, reqID)
					return
				}
			case <-r.Context().Done():
				f.frontError(w, api.StatusClientClosedRequest, "canceled", r.Context().Err().Error(), reqID)
				return
			}
			// Leader failed transiently; solve solo.
			f.routeAndWrite(w, r, key, path, body, reqID)
			return
		}
		var resp proxied
		var ok bool
		func() {
			defer func() { f.sf.Finish(key, call, resp) }()
			resp, ok = f.routeMigrated(r.Context(), key, path, body, reqID)
		}()
		if !ok {
			f.frontError(w, http.StatusServiceUnavailable, "unavailable", "no replica available", reqID)
			return
		}
		f.writeProxied(w, resp, reqID)
	}
}

func (f *Front) routeAndWrite(w http.ResponseWriter, r *http.Request, key, path string, body []byte, reqID string) {
	resp, ok := f.route(r.Context(), key, http.MethodPost, path, body, reqID)
	if !ok {
		f.frontError(w, http.StatusServiceUnavailable, "unavailable", "no replica available", reqID)
		return
	}
	f.writeProxied(w, resp, reqID)
}

// routeMigrated is route plus cache migration: when the last membership
// change moved key to a new owner, the previous owner may still hold
// the cached result — peek it there (a replica-to-replica cache read,
// GET /v1/cache/{hash}) and serve that instead of re-solving cold.
func (f *Front) routeMigrated(ctx context.Context, key, path string, body []byte, reqID string) (proxied, bool) {
	f.mu.RLock()
	cur, prev := f.ring, f.prevRing
	f.mu.RUnlock()
	if prev != nil {
		curOwner, prevOwner := cur.owner(key), prev.owner(key)
		if prevOwner != "" && prevOwner != curOwner {
			f.mu.RLock()
			rep := f.replicas[prevOwner]
			f.mu.RUnlock()
			if rep != nil {
				switch rep.getState() {
				case stateHealthy, stateSuspect:
					if resp, err := f.forward(ctx, rep, http.MethodGet, "/v1/cache/"+key, nil, reqID); err == nil &&
						resp.cached == "peek" && resp.cacheable() {
						f.rec.Add("cluster.cache_migrations", 1)
						return resp, true
					}
				}
			}
		}
	}
	return f.route(ctx, key, http.MethodPost, path, body, reqID)
}

// --- sessions ---------------------------------------------------------

// handleSessionCreate places a new streaming session on the healthy
// replica currently owning the fewest front-routed sessions, then pins
// the session ID to that replica for its lifetime.
func (f *Front) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	f.rec.Add("cluster.requests", 1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes))
	if err != nil {
		f.frontError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error(), reqID)
		return
	}
	rep := f.leastSessions()
	if rep == nil {
		f.frontError(w, http.StatusServiceUnavailable, "unavailable", "no replica available", reqID)
		return
	}
	resp, err := f.forward(r.Context(), rep, http.MethodPost, "/v1/session", body, reqID)
	if err != nil {
		rep.markFailure(err)
		f.rebuildRing()
		f.frontError(w, http.StatusServiceUnavailable, "unavailable", "session create failed: "+err.Error(), reqID)
		return
	}
	if resp.status >= 200 && resp.status < 300 {
		var sr api.SessionResponse
		if json.Unmarshal(resp.body, &sr) == nil && sr.SessionID != "" {
			f.mu.Lock()
			f.sessions[sr.SessionID] = rep.name
			f.mu.Unlock()
			rep.mu.Lock()
			rep.sessions++
			rep.mu.Unlock()
			f.rec.Add("cluster.sessions_created", 1)
		}
	}
	f.writeProxied(w, resp, reqID)
}

// leastSessions picks the healthy replica with the fewest front-pinned
// sessions (spawn order breaks ties, keeping placement deterministic).
func (f *Front) leastSessions() *replica {
	f.mu.RLock()
	defer f.mu.RUnlock()
	var best *replica
	for _, name := range f.order {
		r := f.replicas[name]
		if r == nil || r.getState() != stateHealthy {
			continue
		}
		r.mu.Lock()
		n := r.sessions
		r.mu.Unlock()
		if best == nil {
			best = r
			continue
		}
		best.mu.Lock()
		bn := best.sessions
		best.mu.Unlock()
		if n < bn {
			best = r
		}
	}
	return best
}

// sessionProxy forwards delta/poll/delete to the replica pinned at
// create time. A session whose replica died is gone — solver state is
// replica-local — so the front answers 404 and the client recreates.
func (f *Front) sessionProxy(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	f.rec.Add("cluster.requests", 1)
	id := r.PathValue("id")
	f.mu.RLock()
	owner := f.sessions[id]
	rep := f.replicas[owner]
	f.mu.RUnlock()
	if owner == "" || rep == nil {
		f.frontError(w, http.StatusNotFound, "session_unknown", "no such session (its replica may have left)", reqID)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, f.cfg.MaxBodyBytes))
	if err != nil {
		f.frontError(w, http.StatusRequestEntityTooLarge, "body_too_large", err.Error(), reqID)
		return
	}
	path := "/v1/session/" + id
	if strings.HasSuffix(r.URL.Path, "/delta") {
		path += "/delta"
	}
	if r.URL.RawQuery != "" {
		path += "?" + r.URL.RawQuery
	}
	if len(body) == 0 {
		body = nil
	}
	resp, ferr := f.forward(r.Context(), rep, r.Method, path, body, reqID)
	if ferr != nil {
		st := rep.markFailure(ferr)
		f.rebuildRing()
		if st == stateDown {
			f.dropSessionsOf(rep.name)
		}
		f.frontError(w, http.StatusServiceUnavailable, "unavailable", "session replica unreachable: "+ferr.Error(), reqID)
		return
	}
	if r.Method == http.MethodDelete && resp.status < 300 {
		f.mu.Lock()
		delete(f.sessions, id)
		f.mu.Unlock()
		rep.mu.Lock()
		rep.sessions--
		rep.mu.Unlock()
	}
	f.writeProxied(w, resp, reqID)
}

// dropSessionsOf forgets every session pinned to a dead replica.
func (f *Front) dropSessionsOf(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for id, owner := range f.sessions {
		if owner == name {
			delete(f.sessions, id)
		}
	}
}

// --- misc endpoints ---------------------------------------------------

// handleCachePeek forwards a cache peek to the key's ring owner.
func (f *Front) handleCachePeek(w http.ResponseWriter, r *http.Request) {
	reqID := requestID(r)
	key := r.PathValue("hash")
	resp, ok := f.route(r.Context(), key, http.MethodGet, "/v1/cache/"+key, nil, reqID)
	if !ok {
		f.frontError(w, http.StatusServiceUnavailable, "unavailable", "no replica available", reqID)
		return
	}
	f.writeProxied(w, resp, reqID)
}

func (f *Front) handleHealthz(w http.ResponseWriter, r *http.Request) {
	f.writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ok"}, requestID(r))
}

// handleReadyz: the front is ready while at least one replica is
// routable.
func (f *Front) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if f.routable() == 0 {
		f.writeJSON(w, http.StatusServiceUnavailable, api.HealthResponse{Status: "no_replicas"}, requestID(r))
		return
	}
	f.writeJSON(w, http.StatusOK, api.HealthResponse{Status: "ready"}, requestID(r))
}

// handleStatus reports the front itself in the replica-status shape, so
// one poller can walk fronts and replicas uniformly.
func (f *Front) handleStatus(w http.ResponseWriter, r *http.Request) {
	f.writeJSON(w, http.StatusOK, api.ReplicaStatusResponse{
		Replica:  "front",
		Status:   map[bool]string{true: "ready", false: "no_replicas"}[f.routable() > 0],
		Requests: f.rec.Value("cluster.requests"),
	}, requestID(r))
}

func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := f.rec.WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

func (f *Front) handlePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := f.rec.WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleClusterStatus renders the whole cluster: every replica's state
// and latest status sample, the desired count, the autoscaler's last
// decision and the bounded scale-event log (most recent first).
func (f *Front) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	f.mu.RLock()
	reps := make([]api.ClusterReplica, 0, len(f.replicas))
	for _, name := range f.order {
		if rep := f.replicas[name]; rep != nil {
			reps = append(reps, rep.view())
		}
	}
	desired := f.desired
	events := make([]api.ScaleEvent, len(f.events))
	copy(events, f.events)
	f.mu.RUnlock()
	for i, j := 0, len(events)-1; i < j; i, j = i+1, j-1 {
		events[i], events[j] = events[j], events[i]
	}
	out := api.ClusterStatusResponse{Replicas: reps, Desired: desired, Events: events}
	if f.as != nil {
		out.Autoscaler = f.as.statusView()
	}
	f.writeJSON(w, http.StatusOK, out, requestID(r))
}

func (f *Front) writeJSON(w http.ResponseWriter, status int, v any, reqID string) {
	body, err := json.Marshal(v)
	if err != nil {
		f.frontError(w, http.StatusInternalServerError, "internal", err.Error(), reqID)
		return
	}
	f.writeProxied(w, proxied{status: status, body: body}, reqID)
}
