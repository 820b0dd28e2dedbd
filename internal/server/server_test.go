package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"mpss/api"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpss"
)

// testInstance is the canonical two-job instance of the package docs.
func testInstance() ([]mpss.Job, int) {
	return []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 1, Deadline: 5, Work: 2},
	}, 2
}

// bigInstance returns a generated workload large enough that its solve
// takes many rounds (cancellation and concurrency tests want real work).
func bigInstance(t *testing.T, n int) *mpss.Instance {
	t.Helper()
	in, err := mpss.GenerateWorkload("uniform", mpss.WorkloadSpec{N: n, M: 4, Seed: 7})
	if err != nil {
		t.Fatalf("generate workload: %v", err)
	}
	return in
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// post sends a JSON body and returns status + raw response body.
func post(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, out
}

func TestEndpointsMatchLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	jobs, m := testInstance()
	in, err := mpss.NewInstance(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	alpha := mpss.MustAlpha(3)
	req := api.SolveRequest{M: m, Jobs: jobs}

	t.Run("optimal", func(t *testing.T) {
		code, body := post(t, ts.URL+"/v1/solve/optimal", req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.OptimalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := mpss.OptimalSchedule(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Schedule.Energy(alpha) {
			t.Errorf("energy %v, library %v", got.Energy, want.Schedule.Energy(alpha))
		}
		if len(got.Phases) != len(want.Phases) {
			t.Errorf("phases %d, library %d", len(got.Phases), len(want.Phases))
		}
		if len(got.Schedule.Segments) != len(want.Schedule.Segments) {
			t.Errorf("segments %d, library %d", len(got.Schedule.Segments), len(want.Schedule.Segments))
		}
		if err := mpss.Verify(got.Schedule, in); err != nil {
			t.Errorf("returned schedule infeasible: %v", err)
		}
	})

	t.Run("exact", func(t *testing.T) {
		exactReq := req
		exactReq.Exact = true
		code, body := post(t, ts.URL+"/v1/solve/optimal", exactReq)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.OptimalResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := mpss.OptimalScheduleExact(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Schedule.Energy(alpha) {
			t.Errorf("energy %v, library %v", got.Energy, want.Schedule.Energy(alpha))
		}
	})

	t.Run("oa", func(t *testing.T) {
		code, body := post(t, ts.URL+"/v1/solve/oa", req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.OnlineResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := mpss.OA(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Schedule.Energy(alpha) {
			t.Errorf("energy %v, library %v", got.Energy, want.Schedule.Energy(alpha))
		}
		if got.Replans != want.Replans {
			t.Errorf("replans %d, library %d", got.Replans, want.Replans)
		}
		if got.Bound != mpss.OABound(3) {
			t.Errorf("bound %v, want %v", got.Bound, mpss.OABound(3))
		}
	})

	t.Run("avr", func(t *testing.T) {
		code, body := post(t, ts.URL+"/v1/solve/avr", req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.OnlineResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := mpss.AVR(in)
		if err != nil {
			t.Fatal(err)
		}
		if got.Energy != want.Schedule.Energy(alpha) {
			t.Errorf("energy %v, library %v", got.Energy, want.Schedule.Energy(alpha))
		}
	})

	t.Run("feasible", func(t *testing.T) {
		for cap, want := range map[float64]bool{100: true, 0.1: false} {
			capReq := req
			capReq.Cap = cap
			code, body := post(t, ts.URL+"/v1/feasible", capReq)
			if code != http.StatusOK {
				t.Fatalf("status %d: %s", code, body)
			}
			var got api.FeasibleResponse
			if err := json.Unmarshal(body, &got); err != nil {
				t.Fatal(err)
			}
			if got.Feasible != want {
				t.Errorf("cap %v: feasible %v, want %v", cap, got.Feasible, want)
			}
		}
	})

	t.Run("mincap", func(t *testing.T) {
		code, body := post(t, ts.URL+"/v1/mincap", req)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.MinCapResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		want, err := mpss.MinFeasibleCap(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cap != want {
			t.Errorf("cap %v, library %v", got.Cap, want)
		}
	})

	t.Run("atcap", func(t *testing.T) {
		capReq := req
		capReq.Cap = 10
		code, body := post(t, ts.URL+"/v1/solve/atcap", capReq)
		if code != http.StatusOK {
			t.Fatalf("status %d: %s", code, body)
		}
		var got api.AtCapResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if err := mpss.Verify(got.Schedule, in); err != nil {
			t.Errorf("atcap schedule infeasible: %v", err)
		}
	})
}

func TestErrorMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	jobs, _ := testInstance()

	// Malformed JSON: 400 before admission.
	resp, err := http.Post(ts.URL+"/v1/solve/optimal", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	// Invalid instance (m = 0): 400 with the typed kind.
	code, body := post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: 0, Jobs: jobs})
	if code != http.StatusBadRequest {
		t.Errorf("m=0: status %d, want 400 (%s)", code, body)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Kind != "invalid_instance" {
		t.Errorf("m=0: kind %q, want invalid_instance (%s)", e.Error.Kind, body)
	}

	// Infeasible cap: 422.
	code, body = post(t, ts.URL+"/v1/solve/atcap", api.SolveRequest{M: 2, Jobs: jobs, Cap: 0.1})
	if code != http.StatusUnprocessableEntity {
		t.Errorf("low cap: status %d, want 422 (%s)", code, body)
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Kind != "infeasible" {
		t.Errorf("low cap: kind %q, want infeasible (%s)", e.Error.Kind, body)
	}

	// GET on a solve endpoint: 405.
	resp, err = http.Get(ts.URL + "/v1/solve/optimal")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET solve: status %d, want 405", resp.StatusCode)
	}
}

func TestCacheHitDeterminism(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs}

	_, first := post(t, ts.URL+"/v1/solve/optimal", req)
	for i := 0; i < 3; i++ {
		code, body := post(t, ts.URL+"/v1/solve/optimal", req)
		if code != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, code)
		}
		if !bytes.Equal(first, body) {
			t.Fatalf("repeat %d: body diverged from first response", i)
		}
	}
	if hits := s.Recorder().Value("server.cache_hits"); hits < 3 {
		t.Errorf("server.cache_hits = %d, want >= 3", hits)
	}
	// A different instance must not hit the cache.
	other := req
	other.Jobs = append([]mpss.Job(nil), jobs...)
	other.Jobs[0].Work = 9
	_, otherBody := post(t, ts.URL+"/v1/solve/optimal", other)
	if bytes.Equal(first, otherBody) {
		t.Error("different instance returned the cached body")
	}
}

// TestSingleflightLeaderGap holds request B between its cache miss and
// its Join while request A with the same key solves, caches and
// finishes; released, B becomes a flight's leader after A's flight is
// gone, and must find A's answer in the cache rather than solve again.
func TestSingleflightLeaderGap(t *testing.T) {
	var tasks atomic.Int64
	testHookTaskStart = func() { tasks.Add(1) }
	held, release := make(chan struct{}), make(chan struct{})
	var holding atomic.Bool
	testHookBeforeJoin = func() {
		if holding.CompareAndSwap(false, true) {
			close(held)
			<-release
		}
	}
	defer func() { testHookTaskStart, testHookBeforeJoin = nil, nil }()

	_, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	body, err := json.Marshal(api.SolveRequest{M: m, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	type reply struct {
		cache string
		body  []byte
		err   error
	}
	send := func() reply {
		resp, err := http.Post(ts.URL+"/v1/solve/optimal", "application/json", bytes.NewReader(body))
		if err != nil {
			return reply{err: err}
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, out)
		}
		return reply{cache: resp.Header.Get(api.HeaderCache), body: out, err: err}
	}

	bDone := make(chan reply, 1)
	go func() { bDone <- send() }()
	<-held
	a := send()
	if a.err != nil {
		t.Fatalf("request A: %v", a.err)
	}
	close(release)
	b := <-bDone
	if b.err != nil {
		t.Fatalf("request B: %v", b.err)
	}
	if n := tasks.Load(); n != 1 {
		t.Errorf("%d solves ran for one key, want 1", n)
	}
	if b.cache != "hit" || !bytes.Equal(a.body, b.body) {
		t.Errorf("request B: cache %q, body equal to A's %v; want a hit with A's body", b.cache, bytes.Equal(a.body, b.body))
	}
}

// TestAtCapFlowCounted: /v1/solve/atcap's one max flow reaches the
// server's recorder like every other endpoint's flows.
func TestAtCapFlowCounted(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	jobs, m := testInstance()
	before := s.Recorder().Value("flow.solves")
	if code, body := post(t, ts.URL+"/v1/solve/atcap", api.SolveRequest{M: m, Jobs: jobs, Cap: 10}); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	if got := s.Recorder().Value("flow.solves") - before; got != 1 {
		t.Errorf("one atcap request raised flow.solves by %d, want 1", got)
	}
}

func TestQueueFullRejects503(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, CacheEntries: -1})
	jobs, m := testInstance()

	// First request occupies the single worker (held in the hook);
	// second fills the one queue slot; third must bounce with 503. The
	// alphas differ so the requests are distinct flights — identical
	// bodies would coalesce instead of filling the queue.
	var wg sync.WaitGroup
	codes := make([]int, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], _ = post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs, Alpha: float64(2 + i)})
		}(i)
	}
	<-started // worker is now held; queue slot may still be filling
	waitFor(t, func() bool { return len(s.queue) == 1 })

	code, body := post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs, Alpha: 10})
	if code != http.StatusServiceUnavailable {
		t.Errorf("overflow request: status %d, want 503 (%s)", code, body)
	}
	if got := s.Recorder().Value("server.rejected"); got < 1 {
		t.Errorf("server.rejected = %d, want >= 1", got)
	}

	close(release)
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Errorf("held request %d: status %d, want 200", i, c)
		}
	}
}

// waitFor polls cond for up to ~2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 200; i++ {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestCanceledRequestDoesNotPoisonWorker(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	big := bigInstance(t, 512)

	// A 1ms deadline on a 512-job solve cancels mid-phases.
	code, body := post(t, ts.URL+"/v1/solve/optimal",
		api.SolveRequest{M: big.M, Jobs: big.Jobs, TimeoutMS: 1})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("canceled solve: status %d, want 504 (%.200s)", code, body)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(body, &e); err != nil || e.Error.Kind != "canceled" {
		t.Fatalf("canceled solve: kind %q, want canceled (%.200s)", e.Error.Kind, body)
	}
	// The deadline may expire mid-solve (server.canceled) or while the
	// task still queues (server.deadline_exceeded); either way it counts.
	if n := s.Recorder().Value("server.canceled") + s.Recorder().Value("server.deadline_exceeded"); n < 1 {
		t.Errorf("server.canceled + server.deadline_exceeded = %d, want >= 1", n)
	}

	// The same (single) worker session must still solve correctly.
	in, err := mpss.NewInstance(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mpss.OptimalSchedule(in)
	if err != nil {
		t.Fatal(err)
	}
	code, body = post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("post-cancel solve: status %d (%s)", code, body)
	}
	var got api.OptimalResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Energy != want.Schedule.Energy(mpss.MustAlpha(3)) {
		t.Errorf("post-cancel energy %v, library %v", got.Energy, want.Schedule.Energy(mpss.MustAlpha(3)))
	}
}

// TestConcurrentClients is the acceptance e2e: 8 concurrent clients
// mixing endpoints and instances under -race, every response checked
// against a direct library call, with repeats driving cache hits.
func TestConcurrentClients(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 4})
	alpha := mpss.MustAlpha(3)

	type testCase struct {
		path string
		req  api.SolveRequest
		want float64 // expected energy (solve endpoints)
	}
	var cases []testCase
	for seed := int64(1); seed <= 4; seed++ {
		in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		opt, err := mpss.OptimalSchedule(in)
		if err != nil {
			t.Fatal(err)
		}
		oa, err := mpss.OA(in)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases,
			testCase{"/v1/solve/optimal", api.SolveRequest{M: in.M, Jobs: in.Jobs}, opt.Schedule.Energy(alpha)},
			testCase{"/v1/solve/oa", api.SolveRequest{M: in.M, Jobs: in.Jobs}, oa.Schedule.Energy(alpha)},
		)
	}

	const clients = 8
	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*len(cases))
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				tc := cases[(c+r)%len(cases)]
				code, body := post(t, ts.URL+tc.path, tc.req)
				if code != http.StatusOK {
					errs <- fmt.Errorf("client %d %s: status %d (%.200s)", c, tc.path, code, body)
					continue
				}
				var got struct {
					Energy float64 `json:"energy"`
				}
				if err := json.Unmarshal(body, &got); err != nil {
					errs <- fmt.Errorf("client %d %s: %v", c, tc.path, err)
					continue
				}
				if got.Energy != tc.want {
					errs <- fmt.Errorf("client %d %s: energy %v, library %v", c, tc.path, got.Energy, tc.want)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if hits := s.Recorder().Value("server.cache_hits"); hits == 0 {
		t.Error("server.cache_hits = 0 after repeated identical requests")
	}
	if reqs := s.Recorder().Value("server.requests"); reqs != clients*rounds {
		t.Errorf("server.requests = %d, want %d", reqs, clients*rounds)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s := New(Config{Workers: 1, CacheEntries: -1})
	ts := httptest.NewServer(s)
	defer ts.Close()
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs}

	// Hold one solve in flight, then begin draining.
	inflightCode := make(chan int, 1)
	go func() {
		code, _ := post(t, ts.URL+"/v1/solve/optimal", req)
		inflightCode <- code
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Draining: readiness flips (liveness stays 200), new work is
	// rejected.
	waitFor(t, func() bool {
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	liveResp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	liveResp.Body.Close()
	if liveResp.StatusCode != http.StatusOK {
		t.Errorf("healthz during drain: status %d, want 200 (liveness)", liveResp.StatusCode)
	}
	// A distinct request (different alpha, so it cannot coalesce onto
	// the held flight) is new work and must bounce.
	code, _ := post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs, Alpha: 5})
	if code != http.StatusServiceUnavailable {
		t.Errorf("request during drain: status %d, want 503", code)
	}

	// The in-flight solve completes, then Shutdown returns.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown returned before in-flight solve finished: %v", err)
	default:
	}
	close(release)
	if code := <-inflightCode; code != http.StatusOK {
		t.Errorf("in-flight solve: status %d, want 200", code)
	}
	if err := <-shutdownDone; err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs})

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["server.requests"] < 1 {
		t.Errorf("server.requests = %d, want >= 1", snap.Counters["server.requests"])
	}
	if snap.Counters["opt.rounds"] < 1 {
		t.Errorf("opt.rounds = %d, want >= 1 (solver counters not threaded)", snap.Counters["opt.rounds"])
	}
}

// Bodies written for the removed decomposition knob still carry a
// "decompose" field. It is an unknown field now: a body with it, true or
// false, gets the reply bytes of the same body without it, solved
// afresh with the cache off and answered from one entry with it on.
func TestSolveOptimalIgnoresDecomposeField(t *testing.T) {
	in, err := mpss.GenerateWorkload("diurnal", mpss.WorkloadSpec{N: 128, M: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := json.Marshal(api.SolveRequest{M: in.M, Jobs: in.Jobs})
	if err != nil {
		t.Fatal(err)
	}
	bodies := map[string]json.RawMessage{"elided": plain}
	for _, v := range []string{"true", "false"} {
		bodies["decompose="+v] = append([]byte(`{"decompose":`+v+`,`), plain[1:]...)
	}
	for _, cache := range []int{-1, 0} {
		s, ts := newTestServer(t, Config{Workers: 2, CacheEntries: cache})
		code, base := post(t, ts.URL+"/v1/solve/optimal", bodies["elided"])
		if code != http.StatusOK {
			t.Fatalf("cache=%d elided: status %d: %s", cache, code, base)
		}
		for _, name := range []string{"decompose=true", "decompose=false"} {
			code, body := post(t, ts.URL+"/v1/solve/optimal", bodies[name])
			if code != http.StatusOK {
				t.Fatalf("cache=%d %s: status %d: %s", cache, name, code, body)
			}
			if !bytes.Equal(base, body) {
				t.Errorf("cache=%d %s: reply differs from the body without the field", cache, name)
			}
		}
		if hits := s.Recorder().Value("server.cache_hits"); cache == 0 && hits != 2 {
			t.Errorf("server.cache_hits = %d, want 2: the field must not split the key", hits)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status %d", resp.StatusCode)
	}
	var h api.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil || h.Status != "ok" {
		t.Fatalf("healthz body %+v, err %v", h, err)
	}
}
