package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"mpss/api"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"mpss"
)

// A session's every reply is the one-shot answer for its job set. The
// tests below hold session replies to that contract through the
// handler: the model tracks the job set a session should hold, and each
// 200 reply is compared with /v1/solve/optimal and /v1/feasible on the
// same server.

// serve runs one request through the handler in-process.
func serve(t testing.TB, h http.Handler, method, path string, body any) (int, []byte) {
	t.Helper()
	var data []byte
	if body != nil {
		var err error
		if data, err = json.Marshal(body); err != nil {
			t.Fatalf("marshal: %v", err)
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, path, bytes.NewReader(data)))
	return w.Code, w.Body.Bytes()
}

// shutdown drains s at test end.
func shutdown(t testing.TB, s *Server) {
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
}

// sessionModel is what a session should hold: the machine size, the
// engine, the job set in session order and the cap (0 = none).
type sessionModel struct {
	m     int
	exact bool
	jobs  []mpss.Job
	cap   float64
}

// apply advances the model by a batch the server accepted: the
// survivors in order, then the added jobs; the cap if one is given.
func (sm *sessionModel) apply(req api.SessionDeltaRequest) {
	var next []mpss.Job
	for _, j := range sm.jobs {
		if !slices.Contains(req.RemoveIDs, j.ID) {
			next = append(next, j)
		}
	}
	sm.jobs = append(next, req.AddJobs...)
	if req.Cap != nil {
		sm.cap = *req.Cap
	}
}

// check holds a 200 session reply to the one-shot answers for the
// model's job set: the energy, phases and schedule of /v1/solve/optimal
// bit for bit, the job count and cap, and, while a cap is set,
// /v1/feasible's verdict.
func (sm sessionModel) check(t testing.TB, h http.Handler, label string, body []byte) api.SessionResponse {
	t.Helper()
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("%s: %v (%.300s)", label, err, body)
	}
	code, one := serve(t, h, http.MethodPost, "/v1/solve/optimal", api.SolveRequest{M: sm.m, Jobs: sm.jobs, Exact: sm.exact})
	if code != http.StatusOK {
		t.Fatalf("%s: one-shot solve: status %d (%.300s)", label, code, one)
	}
	var want api.OptimalResponse
	if err := json.Unmarshal(one, &want); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(sr.Energy) != math.Float64bits(want.Energy) {
		t.Errorf("%s: energy %v, one-shot %v", label, sr.Energy, want.Energy)
	}
	if sameJSON(t, sr.Phases, want.Phases) != "" || sameJSON(t, sr.Schedule, want.Schedule) != "" {
		t.Errorf("%s: phases or schedule differ from the one-shot solve:\n%s\n%s",
			label, sameJSON(t, sr.Phases, want.Phases), sameJSON(t, sr.Schedule, want.Schedule))
	}
	if sr.Jobs != len(sm.jobs) || sr.Cap != sm.cap {
		t.Errorf("%s: jobs %d cap %v, want %d %v", label, sr.Jobs, sr.Cap, len(sm.jobs), sm.cap)
	}
	if sm.cap <= 0 {
		if sr.CapFeasible != nil {
			t.Errorf("%s: cap verdict %v without a cap", label, *sr.CapFeasible)
		}
		return sr
	}
	code, probe := serve(t, h, http.MethodPost, "/v1/feasible", api.SolveRequest{M: sm.m, Jobs: sm.jobs, Cap: sm.cap})
	if code != http.StatusOK {
		t.Fatalf("%s: feasibility probe: status %d (%.300s)", label, code, probe)
	}
	var fr api.FeasibleResponse
	if err := json.Unmarshal(probe, &fr); err != nil {
		t.Fatal(err)
	}
	if sr.CapFeasible == nil || *sr.CapFeasible != fr.Feasible {
		t.Errorf("%s: cap %v verdict %v, /v1/feasible says %v", label, sm.cap, sr.CapFeasible, fr.Feasible)
	}
	return sr
}

// sameJSON returns "" when a and b marshal to the same bytes, else both
// renderings.
func sameJSON(t testing.TB, a, b any) string {
	t.Helper()
	ja, err1 := json.Marshal(a)
	jb, err2 := json.Marshal(b)
	if err1 != nil || err2 != nil {
		t.Fatalf("marshal: %v %v", err1, err2)
	}
	if bytes.Equal(ja, jb) {
		return ""
	}
	return fmt.Sprintf("%s\n%s", ja, jb)
}

// sessionWalk is one open session and its model.
type sessionWalk struct {
	h    http.Handler
	base string // /v1/session/{id}
	seq  int64
	sessionModel
}

// createRequest is the request opening a session over the model.
func (sm *sessionModel) createRequest() api.SolveRequest {
	return api.SolveRequest{M: sm.m, Jobs: sm.jobs, Exact: sm.exact, Cap: sm.cap}
}

// openWalk opens a session over the model's job set and checks seq 1.
func openWalk(t testing.TB, h http.Handler, sm sessionModel) *sessionWalk {
	t.Helper()
	code, body := serve(t, h, http.MethodPost, "/v1/session", sm.createRequest())
	return walkFrom(t, h, sm, code, body)
}

// walkFrom checks the reply that opened a session over sm.
func walkFrom(t testing.TB, h http.Handler, sm sessionModel, code int, body []byte) *sessionWalk {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("session create: status %d (%.300s)", code, body)
	}
	w := &sessionWalk{h: h, sessionModel: sm}
	w.jobs = slices.Clone(sm.jobs)
	sr := w.check(t, h, "create", body)
	w.base, w.seq = "/v1/session/"+sr.SessionID, sr.Seq
	if sr.Seq != 1 {
		t.Errorf("create: seq %d, want 1", sr.Seq)
	}
	return w
}

// delta posts a batch the model accepts and checks the reply.
func (w *sessionWalk) delta(t testing.TB, label string, req api.SessionDeltaRequest) {
	t.Helper()
	code, body := serve(t, w.h, http.MethodPost, w.base+"/delta", req)
	w.accept(t, label, req, code, body)
}

// accept checks the reply to a batch the model accepts.
func (w *sessionWalk) accept(t testing.TB, label string, req api.SessionDeltaRequest, code int, body []byte) {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("%s: delta: status %d (%.300s)", label, code, body)
	}
	w.apply(req)
	w.seq++
	if sr := w.check(t, w.h, label, body); sr.Seq != w.seq {
		t.Errorf("%s: seq %d, want %d", label, sr.Seq, w.seq)
	}
}

// randomJob draws a job with a window inside [0, 12].
func randomJob(rng *rand.Rand, id int) mpss.Job {
	r := rng.Float64() * 8
	return mpss.Job{ID: id, Release: r, Deadline: r + 1 + rng.Float64()*4, Work: 0.5 + rng.Float64()*3}
}

// flatJobs returns n jobs that all share the window [0, 10]: the
// event-point partition is a single interval and survives any removal.
func flatJobs(n int) []mpss.Job {
	jobs := make([]mpss.Job, n)
	for i := range jobs {
		jobs[i] = mpss.Job{ID: i + 1, Release: 0, Deadline: 10, Work: 1 + 0.1*float64(i%5)}
	}
	return jobs
}

func capPtr(c float64) *float64 { return &c }

// Every reply of a session walked by random remove, add and cap deltas
// is the one-shot answer for its job set, phases and segments bit for
// bit. The caps stay far from the threshold; near-threshold verdicts are
// TestSessionCapFeasibleMatchesProbe's.
func TestSessionMatchesOneShotFloat(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	for seed := int64(0); seed < 6; seed++ {
		in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed*977 + 11))
		w := openWalk(t, s, sessionModel{m: in.M, jobs: in.Jobs})
		nextID := 10_000
		for step := 0; step < 8; step++ {
			var req api.SessionDeltaRequest
			switch op := rng.Intn(3); {
			case op == 0 && len(w.jobs) > 2:
				req.RemoveIDs = []int{w.jobs[rng.Intn(len(w.jobs))].ID}
			case op == 1:
				req.AddJobs = []mpss.Job{randomJob(rng, nextID)}
				nextID++
			default:
				req.Cap = capPtr(1000)
				if step%2 == 1 {
					req.Cap = capPtr(1e-6)
				}
			}
			w.delta(t, fmt.Sprintf("seed %d step %d", seed, step), req)
		}
	}
}

// The same walk through the exact rational engine.
func TestSessionMatchesOneShotExact(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	for seed := int64(0); seed < 3; seed++ {
		in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 12, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed*31 + 5))
		w := openWalk(t, s, sessionModel{m: in.M, exact: true, jobs: in.Jobs})
		nextID := 20_000
		for step := 0; step < 4; step++ {
			var req api.SessionDeltaRequest
			if step%2 == 0 && len(w.jobs) > 2 {
				req.RemoveIDs = []int{w.jobs[rng.Intn(len(w.jobs))].ID}
			} else {
				req.AddJobs = []mpss.Job{randomJob(rng, nextID)}
				nextID++
			}
			w.delta(t, fmt.Sprintf("seed %d step %d", seed, step), req)
		}
	}
}

// The cap verdict is /v1/feasible's for every retune, near the
// threshold too, and across a removal.
func TestSessionCapFeasibleMatchesProbe(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	w := openWalk(t, s, sessionModel{m: 3, jobs: flatJobs(12)})
	for i, c := range []float64{1000, 0.1, 2, 0.3, 50} {
		req := api.SessionDeltaRequest{Cap: capPtr(c)}
		if i == 2 {
			req.RemoveIDs = []int{w.jobs[0].ID}
		}
		w.delta(t, fmt.Sprintf("cap %v", c), req)
	}
}

// sessionCostCounters are the solver work counters a delta and the
// one-shot solve of its job set must agree on.
var sessionCostCounters = []string{
	"opt.rounds", "opt.phases", "opt.graph_rebuilds",
	"flow.solves", "flow.dinic.aug_paths", "flow.dinic.bfs_passes", "flow.dinic.edges_scanned",
}

// A delta costs what the one-shot solve of its job set costs, op for
// op: the server recorder's counters move by exactly what
// OptimalSchedule, plus FeasibleAtSpeed while a cap is set, record on a
// fresh recorder, over a random walk of add, remove and cap deltas. The
// first walk starts by removing a job whose window endpoints no other
// job shares, so the event-point partition changes under the session.
func TestSessionResolveCountsMatchOneShot(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	rec := s.Recorder()
	partition := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 3},
		{ID: 2, Release: 1, Deadline: 5, Work: 2},
		{ID: 3, Release: 2, Deadline: 9, Work: 4},
		{ID: 4, Release: 0, Deadline: 9, Work: 1},
	}
	instances := []*mpss.Instance{{M: 2, Jobs: partition}, {M: 3, Jobs: flatJobs(12)}}
	for seed := int64(0); seed < 4; seed++ {
		in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	// costs runs one session request and compares the counters it moved
	// with the one-shot solve of sm's job set on a fresh recorder.
	costs := func(label string, sm *sessionModel, run func() (int, []byte)) (int, []byte) {
		t.Helper()
		before := rec.Snapshot().Counters
		code, body := run()
		after := rec.Snapshot().Counters
		one := mpss.NewRecorder()
		cur := &mpss.Instance{M: sm.m, Jobs: sm.jobs}
		if _, err := mpss.OptimalSchedule(cur, mpss.WithRecorder(one)); err != nil {
			t.Fatal(err)
		}
		if sm.cap > 0 {
			if _, err := mpss.FeasibleAtSpeed(cur, sm.cap, mpss.WithRecorder(one)); err != nil {
				t.Fatal(err)
			}
		}
		want := one.Snapshot().Counters
		for _, k := range sessionCostCounters {
			if d := after[k] - before[k]; d != want[k] {
				t.Fatalf("%s: the session request moved %s by %d, the one-shot solve %d", label, k, d, want[k])
			}
		}
		return code, body
	}
	for x, in := range instances {
		rng := rand.New(rand.NewSource(int64(x)*131 + 7))
		label := func(step int) string { return fmt.Sprintf("instance %d step %d", x, step) }
		sm := sessionModel{m: in.M, jobs: in.Jobs}
		code, body := costs(label(0), &sm, func() (int, []byte) {
			return serve(t, s, http.MethodPost, "/v1/session", sm.createRequest())
		})
		w := walkFrom(t, s, sm, code, body)
		delta := func(step int, req api.SessionDeltaRequest) {
			next := w.sessionModel
			next.jobs = slices.Clone(w.jobs)
			next.apply(req)
			code, body := costs(label(step), &next, func() (int, []byte) {
				return serve(t, s, http.MethodPost, w.base+"/delta", req)
			})
			w.accept(t, label(step), req, code, body)
		}
		if x == 0 {
			// Job 2's endpoints 1 and 5 are not shared with any other job.
			delta(1, api.SessionDeltaRequest{RemoveIDs: []int{2}})
		}
		nextID := 10_000
		for step := 2; step < 10; step++ {
			var req api.SessionDeltaRequest
			switch op := rng.Intn(3); {
			case op == 0 && len(w.jobs) > 1:
				req.RemoveIDs = []int{w.jobs[rng.Intn(len(w.jobs))].ID}
			case op == 1:
				req.AddJobs = []mpss.Job{randomJob(rng, nextID)}
				nextID++
			default:
				req.Cap = capPtr([]float64{0, 0.3, 2, 1000}[rng.Intn(4)])
			}
			delta(step, req)
		}
	}
}

// Sessions address jobs by ID: a create whose jobs share an ID, and
// deltas adding an ID the session holds or adding one ID twice, are
// rejected as invalid input and leave nothing behind.
func TestNewSessionRejectsDuplicateIDs(t *testing.T) {
	s := New(Config{Workers: 1})
	shutdown(t, s)
	kind := func(body []byte) string {
		var eb api.ErrorBody
		if err := json.Unmarshal(body, &eb); err != nil {
			t.Fatal(err)
		}
		return eb.Error.Kind
	}
	dup := []mpss.Job{
		{ID: 7, Release: 0, Deadline: 1, Work: 1},
		{ID: 7, Release: 0, Deadline: 2, Work: 1},
	}
	code, body := serve(t, s, http.MethodPost, "/v1/session", api.SolveRequest{M: 2, Jobs: dup})
	if code != http.StatusBadRequest || kind(body) != "invalid_instance" {
		t.Fatalf("create with duplicate IDs: status %d (%.300s), want 400 invalid_instance", code, body)
	}
	if got := len(s.sessions.snapshot()); got != 0 {
		t.Errorf("%d sessions registered after a rejected create, want 0", got)
	}
	if got := s.Recorder().Value("server.sessions_active"); got != 0 {
		t.Errorf("server.sessions_active = %d, want 0", got)
	}

	w := openWalk(t, s, sessionModel{m: 2, jobs: dup[:1]})
	fresh := mpss.Job{ID: 8, Release: 0, Deadline: 3, Work: 1}
	for _, req := range []api.SessionDeltaRequest{
		{AddJobs: []mpss.Job{dup[1]}},
		{AddJobs: []mpss.Job{fresh, fresh}},
	} {
		code, body := serve(t, s, http.MethodPost, w.base+"/delta", req)
		if code != http.StatusBadRequest || kind(body) != "invalid_instance" {
			t.Errorf("delta %+v: status %d (%.300s), want 400 invalid_instance", req, code, body)
		}
	}
	w.delta(t, "after rejections", api.SessionDeltaRequest{AddJobs: []mpss.Job{fresh}})
}

// K concurrent deltas on one session, each adding its own job, all
// commit: the session's turn runs them one at a time, so each solves
// the job set the one before it committed. Without the turn two deltas
// would start from the same job set and one add would be lost.
func TestSessionConcurrentDeltas(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2})
	in, err := mpss.GenerateWorkload("bursty", mpss.WorkloadSpec{N: 64, M: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := openWalk(t, s, sessionModel{m: in.M, jobs: in.Jobs})

	const K = 8
	adds := make([]mpss.Job, K)
	for i := range adds {
		adds[i] = mpss.Job{ID: 5000 + i, Release: float64(i), Deadline: float64(i) + 3, Work: 1 + 0.25*float64(i)}
	}
	seqs := make([]int64, K)
	var wg sync.WaitGroup
	for i := range adds {
		wg.Add(1)
		data, err := json.Marshal(api.SessionDeltaRequest{AddJobs: adds[i : i+1]})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+w.base+"/delta", "application/json", bytes.NewReader(data))
			if err != nil {
				t.Errorf("delta %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var sr api.SessionResponse
			if resp.StatusCode != http.StatusOK {
				t.Errorf("delta %d: status %d", i, resp.StatusCode)
			} else if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
				t.Errorf("delta %d: %v", i, err)
			}
			seqs[i] = sr.Seq
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The seqs are 2…K+1, one each; in seq order they give the order in
	// which the adds were committed.
	order := make([]int, K)
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return int(seqs[a] - seqs[b]) })
	for rank, i := range order {
		if seqs[i] != int64(rank+2) {
			t.Fatalf("reply seqs %v, want each of 2…%d once", seqs, K+1)
		}
		w.apply(api.SessionDeltaRequest{AddJobs: adds[i : i+1]})
	}
	code, body := serve(t, s, http.MethodGet, w.base, nil)
	if code != http.StatusOK {
		t.Fatalf("final get: status %d (%.300s)", code, body)
	}
	if sr := w.check(t, s, "final", body); sr.Seq != K+1 || sr.Jobs != len(in.Jobs)+K {
		t.Errorf("final get: seq %d jobs %d, want %d %d", sr.Seq, sr.Jobs, K+1, len(in.Jobs)+K)
	}
}

// TestResolvedSessionsRetainNoArena is the memory gate of open
// streaming sessions: 64 sessions opened through the server, each over
// its own 64-job instance (m = 4, bursty and uniform in turn). Every
// solve borrows its scratch from the solver pool and returns it, so a
// session keeps its job set, its published reply and its bookkeeping,
// not a flow-network arena sized by its largest solve (~140 KB). The
// gate is the heap kept per session beyond its reply body.
func TestResolvedSessionsRetainNoArena(t *testing.T) {
	const sessions, perSession = 64, 16 << 10
	reqs := make([]api.SolveRequest, sessions)
	for i := range reqs {
		gen := "bursty"
		if i%2 == 1 {
			gen = "uniform"
		}
		in, err := mpss.GenerateWorkload(gen, mpss.WorkloadSpec{N: 64, M: 4, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = api.SolveRequest{M: in.M, Jobs: in.Jobs}
	}
	s := New(Config{Workers: 1})
	shutdown(t, s)
	// Open and close one session first, so the recorder's series exist
	// before the baseline.
	code, body := serve(t, s, http.MethodPost, "/v1/session", reqs[0])
	if code != http.StatusOK {
		t.Fatalf("warm-up create: status %d (%.300s)", code, body)
	}
	var sr api.SessionResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	serve(t, s, http.MethodDelete, "/v1/session/"+sr.SessionID, nil)
	heap := func() uint64 {
		// Two collections empty the pools: the first moves their items
		// to the victim cache, the second drops them.
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	before := heap()
	replies := 0
	for i, req := range reqs {
		code, body := serve(t, s, http.MethodPost, "/v1/session", req)
		if code != http.StatusOK {
			t.Fatalf("session %d: status %d (%.300s)", i, code, body)
		}
		replies += len(body)
	}
	after := heap()
	if per := (int64(after) - int64(before) - int64(replies)) / sessions; per > perSession {
		t.Fatalf("%d bytes of heap kept per open 64-job session beyond its reply, want <= %d", per, perSession)
	} else {
		t.Logf("%d bytes kept per session beyond its %d-byte reply", per, replies/sessions)
	}
}
