package server

// Tests for the production-telemetry layer: request-ID propagation,
// the Prometheus exposition endpoint, the flight recorder, the
// liveness/readiness split and the structured access log.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"mpss/api"
	"net/http"
	"strings"
	"sync"
	"testing"

	"mpss"
	"mpss/internal/obs"
)

// TestRequestIDPropagation is the acceptance e2e for request identity:
// inbound X-Request-ID → response header → error body → access log →
// flight-recorder span tag; absent inbound ID → generated.
func TestRequestIDPropagation(t *testing.T) {
	var logBuf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, ts := newTestServer(t, Config{Workers: 1, Logger: logger})
	jobs, m := testInstance()

	// Inbound ID honored, echoed on the response header.
	const inboundID = "test-req-42"
	body, _ := json.Marshal(api.SolveRequest{M: m, Jobs: jobs})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve/optimal", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", inboundID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != inboundID {
		t.Errorf("response X-Request-ID = %q, want inbound %q", got, inboundID)
	}

	// Error bodies carry the request ID (here: a 400 invalid instance).
	badBody, _ := json.Marshal(api.SolveRequest{M: 0, Jobs: jobs})
	req, err = http.NewRequest(http.MethodPost, ts.URL+"/v1/solve/optimal", bytes.NewReader(badBody))
	if err != nil {
		t.Fatal(err)
	}
	const errID = "err-req-7"
	req.Header.Set("X-Request-ID", errID)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	errBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad instance: status %d, want 400", resp.StatusCode)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(errBody, &e); err != nil || e.Error.RequestID != errID {
		t.Errorf("error body request_id = %q, want %q (%s)", e.Error.RequestID, errID, errBody)
	}

	// No inbound ID: one is generated, non-empty and well-formed.
	code, _ := post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("plain solve: status %d", code)
	}
	resp2, err := http.Post(ts.URL+"/v1/mincap", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if gen := resp2.Header.Get("X-Request-ID"); !api.ValidRequestID(gen) {
		t.Errorf("generated request ID %q not well-formed", gen)
	}

	// The access log carries the inbound ID as a structured field.
	logText := logBuf.String()
	if !strings.Contains(logText, `"request_id":"`+inboundID+`"`) {
		t.Errorf("access log lacks request_id %q:\n%s", inboundID, logText)
	}
	if !strings.Contains(logText, `"endpoint":"optimal"`) || !strings.Contains(logText, `"status":200`) {
		t.Errorf("access log lacks endpoint/status fields:\n%s", logText)
	}

	// The flight recorder holds the span tree, tagged with the ID.
	tracesResp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer tracesResp.Body.Close()
	var traces TracesResponse
	if err := json.NewDecoder(tracesResp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, entry := range traces.Recent {
		if entry.RequestID != inboundID {
			continue
		}
		found = true
		if entry.Endpoint != "optimal" || entry.Status != http.StatusOK {
			t.Errorf("flight entry = %+v, want optimal/200", entry)
		}
		if entry.Trace.Tags["request_id"] != inboundID {
			t.Errorf("span tag request_id = %q, want %q", entry.Trace.Tags["request_id"], inboundID)
		}
		hasSolveChild := false
		for _, c := range entry.Trace.Children {
			if strings.HasPrefix(c.Name, "solve ") {
				hasSolveChild = true
			}
		}
		if !hasSolveChild {
			t.Errorf("span tree lacks solve child: %+v", entry.Trace)
		}
	}
	if !found {
		t.Errorf("flight recorder has no entry for %q (total %d)", inboundID, traces.Total)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPrometheusEndpoint drives requests and checks the /metrics
// exposition: content type, per-endpoint × per-status series, bucket
// monotonicity and quantile agreement with the JSON snapshot.
func TestPrometheusEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs}
	for i := 0; i < 3; i++ {
		if code, body := post(t, ts.URL+"/v1/solve/optimal", req); code != http.StatusOK {
			t.Fatalf("solve %d: status %d (%s)", i, code, body)
		}
	}
	post(t, ts.URL+"/v1/solve/atcap", api.SolveRequest{M: m, Jobs: jobs, Cap: 0.1}) // 422

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type = %q, want text/plain; version=0.0.4", ct)
	}
	text, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(text), "\n")

	find := func(prefix string) string {
		for _, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return l
			}
		}
		return ""
	}
	if l := find(`mpss_server_http_requests_total{code="200",endpoint="optimal"}`); l == "" {
		t.Errorf("missing optimal/200 series in:\n%s", text)
	}
	if l := find(`mpss_server_http_requests_total{code="422",endpoint="atcap"}`); l == "" {
		t.Errorf("missing atcap/422 series in:\n%s", text)
	}
	if l := find(`mpss_server_http_request_seconds_bucket{endpoint="optimal",le="+Inf"}`); l == "" {
		t.Errorf("missing per-endpoint +Inf bucket in:\n%s", text)
	}
	if l := find("go_goroutines"); l == "" {
		t.Error("missing go_goroutines gauge")
	}

	// Bucket monotonicity for the per-endpoint histogram.
	var prev float64 = -1
	buckets := 0
	for _, l := range lines {
		if !strings.HasPrefix(l, `mpss_server_http_request_seconds_bucket{endpoint="optimal"`) {
			continue
		}
		var v float64
		if _, err := fmt.Sscanf(l[strings.LastIndexByte(l, ' ')+1:], "%g", &v); err != nil {
			t.Fatalf("bad bucket line %q: %v", l, err)
		}
		if v < prev {
			t.Errorf("bucket counts not monotone at %q", l)
		}
		prev = v
		buckets++
	}
	if buckets < 2 {
		t.Errorf("got %d optimal bucket lines, want several", buckets)
	}

	// Quantiles in the exposition equal the JSON snapshot's values.
	sum, err := s.Recorder().HistogramL("server.http_request_seconds",
		obs.Label{Key: "endpoint", Value: "optimal"}).Summary()
	if err != nil {
		t.Fatal(err)
	}
	q50 := find(`mpss_server_http_request_seconds_summary{endpoint="optimal",quantile="0.5"}`)
	if q50 == "" {
		t.Fatalf("missing p50 summary series in:\n%s", text)
	}
	var got float64
	if _, err := fmt.Sscanf(q50[strings.LastIndexByte(q50, ' ')+1:], "%g", &got); err != nil {
		t.Fatal(err)
	}
	if got != sum.Median {
		t.Errorf("exposition p50 = %v, JSON snapshot median = %v", got, sum.Median)
	}
}

// The queue-depth gauge is current on a /metrics scrape that no
// /v1/status call preceded: the scrape refreshes it itself.
func TestQueueDepthGaugeOnScrape(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	jobs, m := testInstance()
	// One request holds the worker in the hook and three queue behind
	// it; the alphas differ so no two coalesce.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs, Alpha: float64(2 + i)})
		}(i)
	}
	<-started
	waitFor(t, func() bool { return len(s.queue) == 3 })
	resp, err := http.Get(ts.URL + "/metrics")
	var text []byte
	if err == nil {
		text, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	close(release)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), "\nmpss_server_queue_depth 3\n") {
		t.Errorf("scrape lacks mpss_server_queue_depth 3:\n%s", text)
	}
}

// TestFlightRecorderConcurrent hammers the flight recorder from many
// clients under -race: the rings stay bounded and internally
// consistent.
func TestFlightRecorderConcurrent(t *testing.T) {
	const flightSize = 8
	_, ts := newTestServer(t, Config{Workers: 4, FlightEntries: flightSize, CacheEntries: -1})
	jobs, m := testInstance()

	const clients = 8
	const rounds = 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				req := api.SolveRequest{M: m, Jobs: jobs, Cap: 100}
				var path string
				switch (c + r) % 3 {
				case 0:
					path = "/v1/solve/optimal"
				case 1:
					path = "/v1/feasible"
				default:
					path = "/v1/mincap"
				}
				post(t, ts.URL+path, req)
			}
		}(c)
	}
	wg.Wait()

	resp, err := http.Get(ts.URL + "/v1/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var traces TracesResponse
	if err := json.NewDecoder(resp.Body).Decode(&traces); err != nil {
		t.Fatal(err)
	}
	if len(traces.Recent) > flightSize || len(traces.Slowest) > flightSize {
		t.Errorf("rings exceeded bound: recent %d, slowest %d, cap %d",
			len(traces.Recent), len(traces.Slowest), flightSize)
	}
	if traces.Total < clients*rounds {
		t.Errorf("total = %d, want >= %d", traces.Total, clients*rounds)
	}
	for i := 1; i < len(traces.Slowest); i++ {
		if traces.Slowest[i].Seconds > traces.Slowest[i-1].Seconds {
			t.Errorf("slowest ring not sorted at %d", i)
		}
	}
	for _, e := range traces.Recent {
		if e.RequestID == "" || e.Endpoint == "" || e.Status == 0 {
			t.Errorf("incomplete flight entry: %+v", e)
		}
	}
}

// TestReadyz covers the readiness states: ready when idle, saturated
// when the admission queue is full, and 404-free liveness throughout.
func TestReadyz(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs}

	get := func(path string) (int, string) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/v1/readyz"); code != http.StatusOK || !strings.Contains(body, "ready") {
		t.Errorf("idle readyz = %d %q, want 200 ready", code, body)
	}

	// Hold the worker and fill the queue: readiness must flip to
	// saturated while liveness stays ok. Distinct alphas keep the two
	// requests separate flights (identical bodies would coalesce).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := req
			r.Alpha = float64(2 + i)
			post(t, ts.URL+"/v1/solve/optimal", r)
		}(i)
	}
	<-started
	waitFor(t, func() bool { return len(s.queue) == 1 })

	if code, body := get("/v1/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "saturated") {
		t.Errorf("saturated readyz = %d %q, want 503 saturated", code, body)
	}
	if code, body := get("/v1/healthz"); code != http.StatusOK || !strings.Contains(body, "ok") {
		t.Errorf("healthz under saturation = %d %q, want 200 ok", code, body)
	}

	close(release)
	wg.Wait()
	waitFor(t, func() bool { return len(s.queue) == 0 })
	if code, _ := get("/v1/readyz"); code != http.StatusOK {
		t.Errorf("post-drain readyz = %d, want 200", code)
	}
}

// TestMetricsContentTypes pins the explicit content types of the two
// metric encodings.
func TestMetricsContentTypes(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("/v1/metrics content type = %q, want application/json", ct)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("/metrics content type = %q, want text/plain; version=0.0.4; charset=utf-8", ct)
	}
}

// TestDebugHandler checks the separate debug mux serves pprof and the
// flight recorder.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	_ = ts
	dbg := s.DebugHandler()

	for _, path := range []string{"/debug/pprof/", "/v1/debug/traces", "/metrics", "/v1/metrics"} {
		req, err := http.NewRequest(http.MethodGet, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		rw := newRecorderWriter()
		dbg.ServeHTTP(rw, req)
		if rw.status != http.StatusOK {
			t.Errorf("debug %s: status %d, want 200", path, rw.status)
		}
	}
}

// recorderWriter is a minimal ResponseWriter for handler-level tests.
type recorderWriter struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func newRecorderWriter() *recorderWriter {
	return &recorderWriter{header: make(http.Header), status: http.StatusOK}
}

func (w *recorderWriter) Header() http.Header { return w.header }
func (w *recorderWriter) WriteHeader(c int)   { w.status = c }
func (w *recorderWriter) Write(p []byte) (int, error) {
	return w.body.Write(p)
}

// TestCachedErrorCarriesFreshRequestID pins the write-time rendering of
// error bodies: a 422 served from the result cache must carry the
// request ID of the *current* request, not the one that populated the
// cache.
func TestCachedErrorCarriesFreshRequestID(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	infeasible := api.SolveRequest{M: m, Jobs: jobs, Cap: 0.1}

	send := func(id string) api.ErrorBody {
		body, _ := json.Marshal(infeasible)
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve/atcap", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Request-ID", id)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var top map[string]json.RawMessage
		if err := json.Unmarshal(data, &top); err != nil {
			t.Fatal(err)
		}
		if _, ok := top["error"]; !ok || len(top) != 1 {
			t.Fatalf("top-level keys of %s: want exactly \"error\"", data)
		}
		var e api.ErrorBody
		if err := json.Unmarshal(data, &e); err != nil {
			t.Fatal(err)
		}
		return e
	}

	first := send("cache-fill-1")
	if first.Error.RequestID != "cache-fill-1" || first.Error.Kind != "infeasible" {
		t.Fatalf("first 422 = %+v", first)
	}
	second := send("cache-replay-2")
	if second.Error.RequestID != "cache-replay-2" {
		t.Errorf("replayed 422 request_id = %q, want cache-replay-2", second.Error.RequestID)
	}
	if second.Error.Kind != first.Error.Kind || second.Error.Message != first.Error.Message {
		t.Errorf("replayed 422 diverged: %+v vs %+v", second, first)
	}
}

// flightEntries fetches /v1/debug/traces and returns its recent
// entries for endpoint, most recent first.
func flightEntries(t *testing.T, s *Server, endpoint string) []TraceEntry {
	t.Helper()
	code, body := serve(t, s, http.MethodGet, "/v1/debug/traces", nil)
	if code != http.StatusOK {
		t.Fatalf("traces: status %d", code)
	}
	var traces TracesResponse
	if err := json.Unmarshal(body, &traces); err != nil {
		t.Fatal(err)
	}
	var out []TraceEntry
	for _, e := range traces.Recent {
		if e.Endpoint == endpoint {
			out = append(out, e)
		}
	}
	return out
}

// solveChild returns the first child of the entry's "solve ..." span.
func solveChild(e TraceEntry) (obs.SpanSnapshot, bool) {
	for _, c := range e.Trace.Children {
		if strings.HasPrefix(c.Name, "solve ") && len(c.Children) > 0 {
			return c.Children[0], true
		}
	}
	return obs.SpanSnapshot{}, false
}

// Every server path records its spans in the request's own flight
// tree: after one solve on each endpoint, the shared recorder holds no
// span and /v1/metrics no trace, while each solver's spans sit under
// its request's solve span.
func TestServerSpansStayInRequestTrees(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs, Cap: 100}
	exact := req
	exact.Exact = true
	// want names the first span under each request's solve span; ""
	// for the endpoints whose solver opens none.
	for _, c := range []struct {
		path, endpoint, want string
		body                 api.SolveRequest
	}{
		{"/v1/solve/optimal", "optimal", "phase 1", req},
		{"/v1/solve/optimal", "optimal", "phase 1 (exact)", exact},
		{"/v1/solve/oa", "oa", "OA", req},
		{"/v1/solve/avr", "avr", "AVR", req},
		{"/v1/solve/atcap", "atcap", "", req},
		{"/v1/feasible", "feasible", "", req},
		{"/v1/mincap", "mincap", "bracket phase", req},
		{"/v1/session", "session_create", "phase 1", req},
	} {
		code, body := serve(t, s, http.MethodPost, c.path, c.body)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", c.path, code, body)
		}
		if c.endpoint == "session_create" {
			var sr api.SessionResponse
			if err := json.Unmarshal(body, &sr); err != nil {
				t.Fatal(err)
			}
			delta := api.SessionDeltaRequest{AddJobs: []mpss.Job{{ID: 3, Release: 2, Deadline: 6, Work: 3}}}
			if code, body := serve(t, s, http.MethodPost, "/v1/session/"+sr.SessionID+"/delta", delta); code != http.StatusOK {
				t.Fatalf("delta: status %d: %s", code, body)
			}
			if got, ok := solveChild(flightEntries(t, s, "session_delta")[0]); !ok || got.Name != "phase 1" {
				t.Errorf("session_delta: first solver span %q, want phase 1", got.Name)
			}
		}
		got, _ := solveChild(flightEntries(t, s, c.endpoint)[0])
		if got.Name != c.want {
			t.Errorf("%s exact=%v: first solver span %q, want %q", c.path, c.body.Exact, got.Name, c.want)
		}
	}
	if trace := s.Recorder().Snapshot().Trace; len(trace) != 0 {
		t.Errorf("shared recorder holds %d spans, want none: %+v", len(trace), trace)
	}
	code, body := serve(t, s, http.MethodGet, "/v1/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("metrics: status %d", code)
	}
	var metrics map[string]json.RawMessage
	if err := json.Unmarshal(body, &metrics); err != nil {
		t.Fatal(err)
	}
	if _, ok := metrics["trace"]; ok {
		t.Errorf("/v1/metrics carries a trace: %.300s", metrics["trace"])
	}
}

// A 64-job optimal solve's flight entry holds one "phase N" span per
// accepted phase under "solve optimal", each with its critical speed:
// the speeds the reply's phases were merged from.
func TestFlightTraceHoldsPhaseSpans(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 64, M: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	code, body := serve(t, s, http.MethodPost, "/v1/solve/optimal", api.SolveRequest{M: in.M, Jobs: in.Jobs})
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", code, body)
	}
	var reply api.OptimalResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	entries := flightEntries(t, s, "optimal")
	if len(entries) != 1 || len(entries[0].Trace.Children) != 1 || entries[0].Trace.Children[0].Name != "solve optimal" {
		t.Fatalf("flight entries %+v, want one request with a solve optimal child", entries)
	}
	spans := entries[0].Trace.Children[0].Children
	spanSpeeds := map[float64]bool{}
	for i, sp := range spans {
		speed, ok := sp.Values["speed"]
		if sp.Name != fmt.Sprintf("phase %d", i+1) || !ok || speed <= 0 {
			t.Fatalf("span %d = %q values %v, want phase %d with a speed", i, sp.Name, sp.Values, i+1)
		}
		spanSpeeds[speed] = true
	}
	if len(spans) < len(reply.Phases) {
		t.Fatalf("%d phase spans for %d phases", len(spans), len(reply.Phases))
	}
	replySpeeds := map[float64]bool{}
	for _, ph := range reply.Phases {
		replySpeeds[ph.Speed] = true
	}
	if len(spanSpeeds) != len(replySpeeds) {
		t.Errorf("span speeds %v, reply speeds %v", spanSpeeds, replySpeeds)
	}
	for v := range replySpeeds {
		if !spanSpeeds[v] {
			t.Errorf("reply phase speed %v has no phase span", v)
		}
	}
}

// A request whose solve opens more spans than the per-request budget
// keeps spanBudget of them and counts the rest on its request span.
func TestFlightTraceSpanBudget(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	// Disjoint unit windows with distinct densities: one phase each.
	const n = spanBudget + 44
	jobs := make([]mpss.Job, n)
	for i := range jobs {
		jobs[i] = mpss.Job{ID: i + 1, Release: float64(2 * i), Deadline: float64(2*i + 1), Work: float64(i + 1)}
	}
	code, body := serve(t, s, http.MethodPost, "/v1/solve/optimal", api.SolveRequest{M: 1, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("solve: status %d: %.300s", code, body)
	}
	var reply api.OptimalResponse
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	if len(reply.Phases) != n {
		t.Fatalf("%d phases, want %d", len(reply.Phases), n)
	}
	tree := flightEntries(t, s, "optimal")[0].Trace
	var count func(obs.SpanSnapshot) int
	count = func(sp obs.SpanSnapshot) int {
		c := 1
		for _, ch := range sp.Children {
			c += count(ch)
		}
		return c
	}
	// The request span, its solve span and one span per phase.
	opened := 2 + n
	if got := count(tree); got != spanBudget {
		t.Errorf("request tree holds %d spans, want the budget %d", got, spanBudget)
	}
	if got := tree.Counters["spans_dropped"]; got != int64(opened-spanBudget) {
		t.Errorf("spans_dropped = %d, want %d", got, opened-spanBudget)
	}
}
