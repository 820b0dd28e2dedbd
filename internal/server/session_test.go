package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"mpss/api"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpss"
)

// do issues a bodyless request with an arbitrary method (DELETE, GET).
func do(t *testing.T, method, url string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// The session e2e: create, three deltas (remove, add, cap retune), each
// resolve equal to a one-shot solve of the same job set; long-poll GET;
// teardown answers 404 everywhere.
func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 16, M: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}

	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: in.M, Jobs: in.Jobs})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.SessionID == "" || sr.Seq != 1 {
		t.Fatalf("session create: id %q seq %d, want non-empty id, seq 1", sr.SessionID, sr.Seq)
	}
	sessionModel{m: in.M, jobs: in.Jobs}.check(t, s, "create", body)
	if got := s.Recorder().Value("server.sessions_active"); got != 1 {
		t.Errorf("server.sessions_active = %d, want 1", got)
	}
	base := ts.URL + "/v1/session/" + sr.SessionID

	// Delta 1: remove the first job.
	jobs := append([]mpss.Job(nil), in.Jobs[1:]...)
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{in.Jobs[0].ID}})
	if code != http.StatusOK {
		t.Fatalf("delta remove: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != 2 {
		t.Errorf("delta remove: seq %d, want 2", sr.Seq)
	}
	sessionModel{m: in.M, jobs: jobs}.check(t, s, "delta remove", body)

	// Delta 2: add a fresh job.
	nj := mpss.Job{ID: 9001, Release: 1, Deadline: 6, Work: 3}
	jobs = append(jobs, nj)
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{AddJobs: []mpss.Job{nj}})
	if code != http.StatusOK {
		t.Fatalf("delta add: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sessionModel{m: in.M, jobs: jobs}.check(t, s, "delta add", body)

	// Delta 3: retune the cap; the verdict rides the response.
	cap := 1e6
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{Cap: &cap})
	if code != http.StatusOK {
		t.Fatalf("delta cap: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Cap != cap || sr.CapFeasible == nil || !*sr.CapFeasible {
		t.Errorf("delta cap: cap %v feasible %v, want %v true", sr.Cap, sr.CapFeasible, cap)
	}
	sessionModel{m: in.M, jobs: jobs, cap: cap}.check(t, s, "delta cap", body)
	if got := s.Recorder().Value("server.delta_solves"); got != 3 {
		t.Errorf("server.delta_solves = %d, want 3", got)
	}

	// GET returns the latest published resolve.
	code, body = do(t, http.MethodGet, base)
	if code != http.StatusOK {
		t.Fatalf("session get: status %d (%.300s)", code, body)
	}
	var got api.SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != sr.Seq {
		t.Errorf("session get: seq %d, want %d", got.Seq, sr.Seq)
	}

	// Teardown: everything under the ID answers 404 afterwards.
	if code, _ := do(t, http.MethodDelete, base); code != http.StatusNoContent {
		t.Fatalf("session delete: status %d, want 204", code)
	}
	if code, _ := do(t, http.MethodGet, base); code != http.StatusNotFound {
		t.Errorf("get after delete: status %d, want 404", code)
	}
	if code, _ := post(t, base+"/delta", api.SessionDeltaRequest{}); code != http.StatusNotFound {
		t.Errorf("delta after delete: status %d, want 404", code)
	}
	if code, _ := do(t, http.MethodDelete, base); code != http.StatusNotFound {
		t.Errorf("double delete: status %d, want 404", code)
	}
	if got := s.Recorder().Value("server.sessions_active"); got != 0 {
		t.Errorf("server.sessions_active after delete = %d, want 0", got)
	}
}

// A GET with wait_seq blocks until a delta publishes a newer resolve.
func TestSessionLongPoll(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	jobs, m := testInstance()
	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/session/" + sr.SessionID

	go func() {
		time.Sleep(100 * time.Millisecond)
		post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{jobs[0].ID}})
	}()
	start := time.Now()
	code, body = do(t, http.MethodGet, fmt.Sprintf("%s?wait_seq=%d&timeout_ms=5000", base, sr.Seq))
	if code != http.StatusOK {
		t.Fatalf("long-poll: status %d (%.300s)", code, body)
	}
	var got api.SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != sr.Seq+1 {
		t.Errorf("long-poll: seq %d, want %d", got.Seq, sr.Seq+1)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Error("long-poll returned before the delta published")
	}

	// Malformed query parameters are rejected alike, not ignored.
	for _, q := range []string{"wait_seq=abc", "timeout_ms=abc", "wait_seq=2&timeout_ms=1.5"} {
		code, body := do(t, http.MethodGet, base+"?"+q)
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		if code != http.StatusBadRequest || eb.Error.Kind != "bad_query" {
			t.Errorf("GET ?%s: status %d kind %q, want 400 bad_query", q, code, eb.Error.Kind)
		}
	}
}

// Idle sessions are evicted after SessionTTL and counted.
func TestSessionTTLEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, SessionTTL: 50 * time.Millisecond})
	jobs, m := testInstance()
	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	// Poll the counter, not the endpoint: a GET counts as session
	// activity and would keep resetting the idle clock.
	waitFor(t, func() bool { return s.Recorder().Value("server.sessions_evicted") >= 1 })
	if code, _ := do(t, http.MethodGet, ts.URL+"/v1/session/"+sr.SessionID); code != http.StatusNotFound {
		t.Errorf("get after eviction: status %d, want 404", code)
	}
	if got := s.Recorder().Value("server.sessions_evicted"); got != 1 {
		t.Errorf("server.sessions_evicted = %d, want 1", got)
	}
	if got := s.Recorder().Value("server.sessions_active"); got != 0 {
		t.Errorf("server.sessions_active = %d, want 0", got)
	}
}

// The session table and per-session job bounds reject with 503/413, and
// a rejected delta leaves the session untouched.
func TestSessionLimits(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, MaxSessions: 1, SessionMaxJobs: 3})
	jobs, m := testInstance() // 2 jobs, inside the bound of 3

	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/session/" + sr.SessionID

	if code, _ := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs}); code != http.StatusServiceUnavailable {
		t.Errorf("second session: status %d, want 503 (table full)", code)
	}
	big := []mpss.Job{
		{ID: 10, Release: 0, Deadline: 4, Work: 1},
		{ID: 11, Release: 0, Deadline: 4, Work: 1},
	}
	if code, _ := post(t, base+"/delta", api.SessionDeltaRequest{AddJobs: big}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-bound delta: status %d, want 413", code)
	}
	if code, _ := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: append(append([]mpss.Job(nil), jobs...), big...)}); code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-bound create: status %d, want 413", code)
	}

	// An invalid mutation (unknown removal) is rejected whole: nothing
	// applies, the next resolve still matches the untouched job set.
	if code, _ := post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{777}, AddJobs: []mpss.Job{{ID: 12, Release: 0, Deadline: 4, Work: 1}}}); code != http.StatusBadRequest {
		t.Errorf("unknown removal: status %d, want 400", code)
	}
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{jobs[0].ID}})
	if code != http.StatusOK {
		t.Fatalf("post-rejection delta: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	sessionModel{m: m, jobs: jobs[1:]}.check(t, s, "after the rejection", body)
}

// A delta that would leave the session with no jobs is rejected before
// any mutation applies: the session keeps its job set and seq, and a
// later delta against that job set succeeds.
func TestSessionDeltaToEmptyIsAtomic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/session/" + sr.SessionID

	var all []int
	for _, j := range jobs {
		all = append(all, j.ID)
	}
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: all})
	if code != http.StatusBadRequest {
		t.Fatalf("delta removing every job: status %d (%.300s), want 400", code, body)
	}
	var eb api.ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Error.Kind != "invalid_instance" {
		t.Errorf("delta removing every job: error kind %q, want invalid_instance", eb.Error.Kind)
	}

	code, body = do(t, http.MethodGet, base)
	if code != http.StatusOK {
		t.Fatalf("session get: status %d (%.300s)", code, body)
	}
	var got api.SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != sr.Seq || got.Jobs != len(jobs) {
		t.Errorf("after rejected delta: seq %d jobs %d, want %d %d", got.Seq, got.Jobs, sr.Seq, len(jobs))
	}

	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{jobs[0].ID}})
	if code != http.StatusOK {
		t.Fatalf("delta after rejection: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != got.Seq+1 {
		t.Errorf("delta after rejection: seq %d, want %d", sr.Seq, got.Seq+1)
	}
	sessionModel{m: m, jobs: jobs[1:]}.check(t, s, "after the rejection", body)
}

// A batch whose solve fails leaves nothing behind: the deadline expires
// before the batch's solve (504), GET still reads the last published seq
// and job count, and a delta naming a job the failed batch added is
// rejected as unknown (400). The next delta solves as if the failed one
// had never been sent.
func TestSessionFailedDeltaIsUndone(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	jobs, m := testInstance()
	code, body := post(t, ts.URL+"/v1/session", api.SolveRequest{M: m, Jobs: jobs, Cap: 100})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/session/" + sr.SessionID

	testHookDeltaSolve = func(ctx context.Context) { <-ctx.Done() }
	added := mpss.Job{ID: 3, Release: 0, Deadline: 6, Work: 1}
	cap := 0.5
	code, body = post(t, base+"/delta", api.SessionDeltaRequest{
		RemoveIDs: []int{jobs[0].ID}, AddJobs: []mpss.Job{added}, Cap: &cap, TimeoutMS: 20,
	})
	testHookDeltaSolve = nil
	if code != http.StatusGatewayTimeout {
		t.Fatalf("delta past its deadline: status %d (%.300s), want 504", code, body)
	}

	code, body = do(t, http.MethodGet, base)
	if code != http.StatusOK {
		t.Fatalf("session get: status %d (%.300s)", code, body)
	}
	var got api.SessionResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != sr.Seq || got.Jobs != len(jobs) {
		t.Errorf("after failed delta: seq %d jobs %d, want %d %d", got.Seq, got.Jobs, sr.Seq, len(jobs))
	}

	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{added.ID}})
	if code != http.StatusBadRequest {
		t.Fatalf("delta removing a job of the failed batch: status %d (%.300s), want 400", code, body)
	}

	code, body = post(t, base+"/delta", api.SessionDeltaRequest{RemoveIDs: []int{jobs[1].ID}})
	if code != http.StatusOK {
		t.Fatalf("delta after the failed one: status %d (%.300s)", code, body)
	}
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Seq != got.Seq+1 || sr.Cap != 100 {
		t.Errorf("delta after the failed one: seq %d cap %v, want %d 100", sr.Seq, sr.Cap, got.Seq+1)
	}
	sessionModel{m: m, jobs: jobs[:1], cap: 100}.check(t, s, "after the failed delta", body)
}

// A deadline that expires while the task queues — client still
// connected — is the server's failure: 504 and server.deadline_exceeded,
// not the 499 disconnect path.
func TestQueueExpiryDeadline504(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	big := bigInstance(t, 64)
	jobs, m := testInstance()

	// A occupies the single worker (held in the hook).
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: big.M, Jobs: big.Jobs})
	}()
	<-started

	// B — a different instance, so it cannot coalesce with A — queues
	// behind it with a 20ms deadline and expires in the queue.
	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, b := post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: m, Jobs: jobs, TimeoutMS: 20})
		resCh <- result{c, b}
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })
	time.Sleep(50 * time.Millisecond) // let B's queued deadline expire
	close(release)

	r := <-resCh
	if r.code != http.StatusGatewayTimeout {
		t.Errorf("expired-in-queue request: status %d, want 504 (%.300s)", r.code, r.body)
	}
	var e api.ErrorBody
	if err := json.Unmarshal(r.body, &e); err != nil || e.Error.Kind != "canceled" {
		t.Errorf("expired-in-queue request: kind %q, want canceled (%.300s)", e.Error.Kind, r.body)
	}
	if got := s.Recorder().Value("server.deadline_exceeded"); got < 1 {
		t.Errorf("server.deadline_exceeded = %d, want >= 1", got)
	}
	wg.Wait()
}

// A client that disconnects while its task queues is 499 and
// server.canceled — never the deadline counter.
func TestQueueExpiry499OnDisconnect(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	testHookTaskStart = func() {
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	big := bigInstance(t, 64)
	jobs, m := testInstance()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(t, ts.URL+"/v1/solve/optimal", api.SolveRequest{M: big.M, Jobs: big.Jobs})
	}()
	<-started

	// B queues, then its client hangs up.
	ctx, cancel := context.WithCancel(context.Background())
	data, err := json.Marshal(api.SolveRequest{M: m, Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/solve/optimal", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, func() bool { return len(s.queue) == 1 })
	cancel()
	// Give the disconnect time to reach the server's request context.
	time.Sleep(50 * time.Millisecond)
	close(release)

	waitFor(t, func() bool { return s.Recorder().Value("server.canceled") >= 1 })
	if got := s.Recorder().Value("server.deadline_exceeded"); got != 0 {
		t.Errorf("server.deadline_exceeded = %d, want 0 (client hung up, deadline never expired)", got)
	}
	wg.Wait()
}

// K concurrent identical requests run exactly one solve; the other K-1
// coalesce onto it and replay the identical body.
func TestStampedeCoalesce(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	var executions atomic.Int64
	testHookTaskStart = func() {
		executions.Add(1)
		started <- struct{}{}
		<-release
	}
	defer func() { testHookTaskStart = nil }()

	s, ts := newTestServer(t, Config{Workers: 1, CacheEntries: -1})
	jobs, m := testInstance()
	req := api.SolveRequest{M: m, Jobs: jobs}

	const K = 8
	type result struct {
		code int
		body []byte
	}
	resCh := make(chan result, K)
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, b := post(t, ts.URL+"/v1/solve/optimal", req)
			resCh <- result{c, b}
		}()
	}
	<-started // the leader's solve is held in the hook
	waitFor(t, func() bool { return s.Recorder().Value("server.coalesced") == K-1 })
	close(release)
	wg.Wait()
	close(resCh)

	var first []byte
	for r := range resCh {
		if r.code != http.StatusOK {
			t.Fatalf("stampede request: status %d (%.300s)", r.code, r.body)
		}
		if first == nil {
			first = r.body
		} else if !bytes.Equal(first, r.body) {
			t.Error("stampede responses differ")
		}
	}
	if got := executions.Load(); got != 1 {
		t.Errorf("solver executions = %d, want exactly 1", got)
	}
	if got := s.Recorder().Value("server.coalesced"); got != K-1 {
		t.Errorf("server.coalesced = %d, want %d", got, K-1)
	}
}
