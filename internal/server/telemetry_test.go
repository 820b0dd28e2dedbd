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
