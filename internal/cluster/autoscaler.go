package cluster

import (
	"context"
	"net/http"
	"sync"
	"time"

	"mpss"
	"mpss/api"
	"mpss/internal/obs"
)

// The autoscaler closes the loop the paper opens: mpss schedules jobs
// on speed-scalable processors, and here the service's own load becomes
// the instance. Each tick scrapes every replica's public /metrics
// exposition, turns the observation window into an mpss.Instance —
// observed solve-seconds plus queue backlog as jobs released now with
// the window as their deadline, replicas as processors, per-replica
// throughput (workers × target utilization) as the speed cap — and
// picks the smallest replica count at which that instance is feasible
// (Solver.FeasibleAtSpeed, the same single-parametric-flow probe the
// /v1/feasible endpoint runs). MinFeasibleCap at the current count is
// kept as the tightness diagnostic: how fast each replica would have to
// be for the demand to fit as-is.

// AutoscaleConfig parameterizes the control loop.
type AutoscaleConfig struct {
	// Enabled turns the loop on.
	Enabled bool
	// Interval is the tick period (default 2s).
	Interval time.Duration
	// Window is the deadline the demand instance gets — how long the
	// fleet is allowed to take absorbing one tick's observed work
	// (default: Interval).
	Window time.Duration
	// WorkersPerReplica is each replica's solve parallelism, the
	// capacity basis (default 1).
	WorkersPerReplica int
	// TargetUtil derates capacity: one replica is assumed to serve
	// WorkersPerReplica × TargetUtil solve-seconds per second, keeping
	// headroom for latency (default 0.7).
	TargetUtil float64
	// ScaleDownAfter is the hysteresis: this many consecutive
	// lower-than-current decisions before scaling down. Scale-ups act
	// immediately (default 3).
	ScaleDownAfter int
}

func (c *AutoscaleConfig) applyDefaults() {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.Window <= 0 {
		c.Window = c.Interval
	}
	if c.WorkersPerReplica <= 0 {
		c.WorkersPerReplica = 1
	}
	if c.TargetUtil <= 0 || c.TargetUtil > 1 {
		c.TargetUtil = 0.7
	}
	if c.ScaleDownAfter <= 0 {
		c.ScaleDownAfter = 3
	}
}

// replicaSample is one replica's cumulative demand counters, diffed
// between ticks for per-window rates.
type replicaSample struct {
	requests     float64
	solveSeconds float64
	solveCount   float64
	queueDepth   float64
}

type autoscaler struct {
	f      *Front
	cfg    AutoscaleConfig
	solver *mpss.Solver // carries the front's recorder into the feasibility probes
	httpc  *http.Client
	prev   map[string]replicaSample
	low    int // consecutive decisions below current

	mu     sync.Mutex
	status api.AutoscalerStatus
}

func newAutoscaler(f *Front, cfg AutoscaleConfig) *autoscaler {
	cfg.applyDefaults()
	return &autoscaler{
		f:      f,
		cfg:    cfg,
		solver: mpss.NewSolver(mpss.WithRecorder(f.rec)),
		httpc:  &http.Client{Timeout: 3 * time.Second},
		prev:   make(map[string]replicaSample),
		status: api.AutoscalerStatus{Enabled: true},
	}
}

func (a *autoscaler) loop() {
	defer a.f.bg.Done()
	tick := time.NewTicker(a.cfg.Interval)
	defer tick.Stop()
	for {
		select {
		case <-a.f.stopCh:
			return
		case <-tick.C:
			a.Tick(context.Background())
		}
	}
}

func (a *autoscaler) statusView() api.AutoscalerStatus {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.status
}

// Tick runs one control decision: scrape, decide, act. Exported on the
// autoscaler (reached in tests via Front.AutoscaleTick) so the e2e
// suite can step the loop deterministically.
func (a *autoscaler) Tick(ctx context.Context) {
	// The solves' spans go to a tree of the tick's own, dropped with it:
	// the front's recorder keeps counters, histograms and gauges.
	ctx = obs.ContextWithSpan(ctx, obs.New().Root())
	demand, backlog := a.observe(ctx)
	cur := a.f.activeCount()
	window := a.cfg.Window.Seconds()
	capPerReplica := float64(a.cfg.WorkersPerReplica) * a.cfg.TargetUtil

	jobs := demandJobs(demand+backlog, window, capPerReplica)
	desired := a.desiredReplicas(ctx, jobs, capPerReplica)

	// Tightness diagnostic: the per-replica speed the CURRENT fleet
	// would need. > capPerReplica means the fleet is running hot.
	var minCap float64
	if len(jobs) > 0 && cur > 0 {
		if mc, err := a.solver.MinFeasibleCap(&mpss.Instance{M: cur, Jobs: jobs}, 0, mpss.WithContext(ctx)); err == nil {
			minCap = mc
		}
	}

	a.mu.Lock()
	a.status = api.AutoscalerStatus{
		Enabled:            true,
		DemandWorkSeconds:  demand + backlog,
		CapacityPerReplica: capPerReplica,
		Desired:            desired,
		MinCap:             minCap,
		LastDecision:       time.Now().UnixMilli(),
	}
	a.mu.Unlock()
	a.f.rec.SetGauge("cluster.demand_work_seconds", demand+backlog)
	a.f.rec.SetGauge("cluster.min_feasible_cap", minCap)

	switch {
	case desired > cur:
		// Under-capacity is an SLO breach in progress: act now.
		a.low = 0
		a.f.scaleTo(desired, "demand")
	case desired < cur:
		// Over-capacity just wastes energy — the paper's currency — but
		// reacting to one quiet window would thrash, so require
		// ScaleDownAfter consecutive low decisions.
		a.low++
		if a.low >= a.cfg.ScaleDownAfter {
			a.low = 0
			a.f.scaleTo(desired, "idle")
		}
	default:
		a.low = 0
	}
}

// observe scrapes every routable replica's /metrics and returns the
// window's demand: solve-seconds actually spent since the last tick,
// and the backlog estimate (queued requests × mean solve time).
func (a *autoscaler) observe(ctx context.Context) (demand, backlog float64) {
	a.f.mu.RLock()
	reps := make([]*replica, 0, len(a.f.replicas))
	for _, r := range a.f.replicas {
		switch r.getState() {
		case stateHealthy, stateSuspect:
			reps = append(reps, r)
		}
	}
	a.f.mu.RUnlock()

	seen := make(map[string]bool, len(reps))
	for _, r := range reps {
		cur, err := a.scrape(ctx, r.url)
		if err != nil {
			continue
		}
		seen[r.name] = true
		prev := a.prev[r.name]
		a.prev[r.name] = cur
		dSec := cur.solveSeconds - prev.solveSeconds
		dCnt := cur.solveCount - prev.solveCount
		if dSec < 0 || dCnt < 0 { // replica restarted; counters reset
			dSec, dCnt = cur.solveSeconds, cur.solveCount
		}
		demand += dSec
		meanSolve := 0.05
		if dCnt > 0 {
			meanSolve = dSec / dCnt
		}
		backlog += cur.queueDepth * meanSolve
	}
	for name := range a.prev {
		if !seen[name] {
			delete(a.prev, name)
		}
	}
	return demand, backlog
}

// scrape reads one replica's Prometheus exposition into a sample.
func (a *autoscaler) scrape(ctx context.Context, base string) (replicaSample, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return replicaSample{}, err
	}
	resp, err := a.httpc.Do(req)
	if err != nil {
		return replicaSample{}, err
	}
	defer resp.Body.Close()
	samples, err := parsePrometheus(resp.Body)
	if err != nil {
		return replicaSample{}, err
	}
	return replicaSample{
		requests:     metricSum(samples, "mpss_server_requests_total"),
		solveSeconds: metricSum(samples, "mpss_server_request_seconds_sum"),
		solveCount:   metricSum(samples, "mpss_server_request_seconds_count"),
		queueDepth:   metricSum(samples, "mpss_server_queue_depth"),
	}, nil
}

// desiredReplicas answers "how many processors does this demand need"
// with the solver: the smallest m in [MinReplicas, MaxReplicas] at
// which the demand instance is feasible under the per-replica cap.
// Feasibility is monotone in m, so a linear walk from the minimum finds
// the boundary with at most Max-Min probes.
func (a *autoscaler) desiredReplicas(ctx context.Context, jobs []mpss.Job, capPerReplica float64) int {
	min, max := a.f.cfg.MinReplicas, a.f.cfg.MaxReplicas
	if len(jobs) == 0 {
		return min
	}
	for m := min; m < max; m++ {
		ok, err := a.solver.FeasibleAtSpeed(&mpss.Instance{M: m, Jobs: jobs}, capPerReplica, mpss.WithContext(ctx))
		if err == nil && ok {
			return m
		}
	}
	return max
}

// demandJobs encodes work-seconds of demand as an mpss job set: jobs
// released now, due one window out. Work is chunked below the
// per-replica window capacity — one replica can only absorb cap×window
// work-seconds in a window, so any larger indivisible job would make
// every fleet size infeasible and say nothing.
func demandJobs(work, window, capPerReplica float64) []mpss.Job {
	if work <= 0 || window <= 0 || capPerReplica <= 0 {
		return nil
	}
	chunk := capPerReplica * window
	var jobs []mpss.Job
	id := 1
	for work > 1e-9*chunk {
		w := work
		if w > chunk {
			w = chunk
		}
		jobs = append(jobs, mpss.Job{ID: id, Release: 0, Deadline: window, Work: w})
		id++
		work -= w
	}
	return jobs
}

// AutoscaleTick forces one autoscaler decision outside the timer loop.
// No-op when autoscaling is disabled. Tests and operators drive this
// for deterministic scaling.
func (f *Front) AutoscaleTick(ctx context.Context) {
	if f.as != nil {
		f.as.Tick(ctx)
	}
}
