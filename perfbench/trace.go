package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"mpss"
	"mpss/internal/obs"
)

// span is one timed call into a layer, recorded by the benchmark around
// the call (the program itself is not instrumented further).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for a top-level span
	Op     int     `json:"op"`     // index of the operation it belongs to
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pass nil.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) start(name string, parent, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// durations returns the lengths in seconds of every span named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

func (t *tracer) sum(name string) float64 {
	var total float64
	for _, d := range t.durations(name) {
		total += d
	}
	return total
}

// meanMS is the mean span length of name in milliseconds (0 if none).
func (t *tracer) meanMS(name string) float64 {
	d := t.durations(name)
	if len(d) == 0 {
		return 0
	}
	return 1e3 * t.sum(name) / float64(len(d))
}

// opSeconds is the summed length of the top-level operation spans, the
// traced counterpart of window.opSeconds.
func (t *tracer) opSeconds() float64 { return t.sum(spanOp) }

func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// Span names; each is named after the module whose call it wraps.
const (
	spanOp        = "op" // one whole operation as its user sees it
	spanDecode    = "workload.decode"
	spanStream    = "mpss.SolveTraceStream"
	spanComponent = "opt.component_solve"
	spanVerify    = "schedule.verify"
	spanEncode    = "api.encode"
	spanRoundTrip = "api.roundtrip"
	spanDecodeRes = "api.decode"
)

// Counter names read from the program's recorders.
var recorderCounters = []string{
	"opt.components", "opt.rounds", "opt.phases", "opt.graph_rebuilds",
	"opt.intervals_contracted", "opt.intervals_raw",
	"opt.feasibility_probes", "opt.probe_waves",
	"opt.session_attaches", "opt.session_resolves",
	"flow.warm_hits", "flow.solves",
	"flow.dinic.edges_scanned", "flow.dinic.aug_paths", "flow.dinic.bfs_passes",
	"server.cache_hits", "server.cache_misses", "cluster.retries",
}

// Histograms read as (count, sum) pairs; the server's per-endpoint HTTP
// histogram is summed over the endpoints the workloads call.
var recorderHistograms = map[string][]string{
	"server.http": {
		obs.LabeledName("server.http_request_seconds", obs.Label{Key: "endpoint", Value: "optimal"}),
		obs.LabeledName("server.http_request_seconds", obs.Label{Key: "endpoint", Value: "mincap"}),
		obs.LabeledName("server.http_request_seconds", obs.Label{Key: "endpoint", Value: "session_delta"}),
	},
	"server.request":    {"server.request_seconds"},
	"server.queue_wait": {"server.queue_wait_seconds"},
}

// addRecorder adds rec's counters and histogram totals into c.
func addRecorder(c map[string]float64, rec *mpss.Recorder) {
	for _, name := range recorderCounters {
		c[name] += float64(rec.Value(name))
	}
	for key, series := range recorderHistograms {
		for _, s := range series {
			n, sum := rec.Histogram(s).Total()
			c[key+".count"] += float64(n)
			c[key+".sum"] += sum
		}
	}
}

// addRuntime adds the Go runtime's allocation and GC totals into c.
func addRuntime(c map[string]float64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c["go.total_alloc"] = float64(ms.TotalAlloc)
	c["go.num_gc"] = float64(ms.NumGC)
}

// perLayer turns a traced pass — its window, the counter deltas over it
// and its spans — into the per-layer metrics. Every metric is reported
// on every workload; a layer the workload does not reach reads 0.
func perLayer(w *window, d map[string]float64, tr *tracer) map[string]metric {
	mincaps := float64(len(w.lat[classMincap]))
	jobs := float64(w.jobs)
	httpMS := 1e3 * ratio(d["server.http.sum"], d["server.http.count"])
	rtMS := tr.meanMS(spanRoundTrip)
	var proxied, proxiedMax float64
	fronted := false
	for k, v := range d {
		if strings.HasPrefix(k, "cluster.proxied.") {
			fronted = true
			proxied += v
			proxiedMax = max(proxiedMax, v)
		}
	}
	var transport, routeProxy float64
	if rtMS > 0 {
		if fronted {
			routeProxy = rtMS - httpMS
		} else {
			transport = rtMS - httpMS
		}
	}
	decodeS := tr.sum(spanDecode)
	solveBusy := tr.sum(spanComponent)
	var streamOverhead float64
	if s := tr.sum(spanStream); s > 0 {
		streamOverhead = s*traceWorkers - decodeS - solveBusy
	}
	comp := tr.durations(spanComponent)
	sort.Float64s(comp)
	compPct := func(p float64) float64 {
		if len(comp) == 0 {
			return 0
		}
		v, _ := percentile(comp, p)
		return 1e3 * v
	}
	return map[string]metric{
		"trace.ops":                         {float64(w.ops), "count"},
		"trace.jobs":                        {jobs, "count"},
		"workload.decode_s":                 {decodeS, "s"},
		"mpss.stream_overhead_s":            {streamOverhead, "s"},
		"opt.components":                    {d["opt.components"], "count"},
		"opt.component_jobs_max":            {d["opt.component_jobs_max"], "count"},
		"opt.component_solve_p50_ms":        {compPct(50), "ms"},
		"opt.component_solve_p99_ms":        {compPct(99), "ms"},
		"opt.rounds":                        {d["opt.rounds"], "count"},
		"opt.rounds_per_job":                {ratio(d["opt.rounds"], jobs), "1/job"},
		"opt.phases":                        {d["opt.phases"], "count"},
		"opt.graph_rebuilds":                {d["opt.graph_rebuilds"], "count"},
		"flow.warm_hits":                    {d["flow.warm_hits"], "count"},
		"opt.contraction_ratio":             {ratio(d["opt.intervals_contracted"], d["opt.intervals_raw"]), "ratio"},
		"opt.feasibility_probes_per_mincap": {ratio(d["opt.feasibility_probes"], mincaps), "1/req"},
		"opt.probe_waves_per_mincap":        {ratio(d["opt.probe_waves"], mincaps), "1/req"},
		"opt.session_incremental_ratio":     {ratio(d["opt.session_attaches"], d["opt.session_resolves"]), "ratio"},
		"flow.solves":                       {d["flow.solves"], "count"},
		"flow.dinic.edges_scanned":          {d["flow.dinic.edges_scanned"], "count"},
		"flow.edges_scanned_per_job":        {ratio(d["flow.dinic.edges_scanned"], jobs), "1/job"},
		"flow.dinic.aug_paths":              {d["flow.dinic.aug_paths"], "count"},
		"flow.dinic.bfs_passes":             {d["flow.dinic.bfs_passes"], "count"},
		"schedule.verify_s":                 {tr.sum(spanVerify), "s"},
		"api.encode_ms":                     {tr.meanMS(spanEncode), "ms"},
		"api.decode_ms":                     {tr.meanMS(spanDecodeRes), "ms"},
		"server.http_ms":                    {httpMS, "ms"},
		"server.request_ms":                 {1e3 * ratio(d["server.request.sum"], d["server.request.count"]), "ms"},
		"server.queue_wait_ms":              {1e3 * ratio(d["server.queue_wait.sum"], d["server.queue_wait.count"]), "ms"},
		"server.cache_hit_ratio":            {ratio(d["server.cache_hits"], d["server.cache_hits"]+d["server.cache_misses"]), "ratio"},
		"server.transport_ms":               {transport, "ms"},
		"front.route_proxy_ms":              {routeProxy, "ms"},
		"cluster.proxied_max_share":         {ratio(proxiedMax, proxied), "ratio"},
		"cluster.retries":                   {d["cluster.retries"], "count"},
		"go.alloc_bytes_per_op":             {ratio(d["go.total_alloc"], float64(w.ops)), "B/op"},
		"go.gc_cycles":                      {d["go.num_gc"], "count"},
	}
}

// ratio is a / b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// finite maps the +Inf a failed request contributes to a latency onto
// the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}
