package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mpss"
	"mpss/api"
	"mpss/internal/server"
)

// testCluster is three real servers behind one front: each replica is a
// full internal/server instance (own worker pool, cache, recorder) on
// an httptest listener, wired through a StaticSpawner.
type testCluster struct {
	front    *Front
	servers  []*server.Server
	backends []*httptest.Server
	client   *api.Client
	http     *httptest.Server
}

func newTestCluster(t *testing.T, n int, cfg Config) *testCluster {
	t.Helper()
	tc := &testCluster{}
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		srv := server.New(server.Config{
			Workers:     2,
			ReplicaName: fmt.Sprintf("r%d", i+1),
		})
		ts := httptest.NewServer(srv)
		tc.servers = append(tc.servers, srv)
		tc.backends = append(tc.backends, ts)
		urls[i] = ts.URL
	}
	cfg.Spawner = &StaticSpawner{URLs: urls}
	if cfg.MinReplicas == 0 {
		cfg.MinReplicas = n
	}
	if cfg.MaxReplicas == 0 {
		cfg.MaxReplicas = n
	}
	cfg.ProbeInterval = -1 // tests drive probes explicitly
	front, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tc.front = front
	tc.http = httptest.NewServer(front)
	tc.client = api.NewClient(tc.http.URL)
	t.Cleanup(func() {
		tc.http.Close()
		front.Shutdown(context.Background())
		for i := range tc.servers {
			tc.backends[i].Close()
			tc.servers[i].Shutdown(context.Background())
		}
	})
	return tc
}

// solveBody builds a distinct optimal request per variant.
func solveBody(variant int) *api.SolveRequest {
	return &api.SolveRequest{
		M: 2,
		Jobs: []mpss.Job{
			{ID: 1, Release: 0, Deadline: 4, Work: 4 + float64(variant)},
			{ID: 2, Release: 1, Deadline: 5, Work: 3},
			{ID: 3, Release: 2, Deadline: 8, Work: 6},
		},
	}
}

// doSolve posts one optimal solve through the front, returning the
// serving replica (X-Mpss-Replica) and status.
func (tc *testCluster) doSolve(t *testing.T, req *api.SolveRequest) (replica string, status int) {
	t.Helper()
	body, _ := json.Marshal(req)
	res, err := tc.client.DoRaw(context.Background(), http.MethodPost, "/v1/solve/optimal", body)
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	return res.Header.Get(api.HeaderReplica), res.Status
}

// Hash affinity: repeats of an instance land on the replica that
// already solved it, so every repeat is that replica's cache hit.
func TestClusterHashAffinity(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const distinct = 24

	owners := make(map[int]string)
	for v := 0; v < distinct; v++ {
		rep, status := tc.doSolve(t, solveBody(v))
		if status != http.StatusOK {
			t.Fatalf("variant %d: status %d", v, status)
		}
		if rep == "" {
			t.Fatal("missing X-Mpss-Replica header")
		}
		owners[v] = rep
	}
	for v := 0; v < distinct; v++ {
		rep, status := tc.doSolve(t, solveBody(v))
		if status != http.StatusOK {
			t.Fatalf("repeat %d: status %d", v, status)
		}
		if rep != owners[v] {
			t.Errorf("variant %d moved %s -> %s between passes", v, owners[v], rep)
		}
	}

	var hits, misses int64
	byReplica := map[string]int64{}
	for _, s := range tc.servers {
		hits += s.Recorder().Value("server.cache_hits")
		misses += s.Recorder().Value("server.cache_misses")
		byReplica[s.Config().ReplicaName] = s.Recorder().Value("server.cache_hits")
	}
	if hits != distinct {
		t.Errorf("cluster cache hits = %d, want %d (every repeat a per-replica hit): %v", hits, distinct, byReplica)
	}
	if misses != distinct {
		t.Errorf("cluster cache misses = %d, want %d (one per distinct instance)", misses, distinct)
	}
	// The keys must actually spread: one replica owning everything would
	// vacuously pass the affinity check.
	spread := map[string]bool{}
	for _, rep := range owners {
		spread[rep] = true
	}
	if len(spread) < 2 {
		t.Errorf("all %d keys landed on one replica %v — ring not spreading", distinct, spread)
	}
}

// Killing a replica mid-load must not surface errors: the front walks
// the ring to the next successor and marks the dead member down.
func TestClusterReplicaKillReroutes(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const variants = 18
	for v := 0; v < variants; v++ {
		if _, status := tc.doSolve(t, solveBody(v)); status != http.StatusOK {
			t.Fatalf("warmup %d: status %d", v, status)
		}
	}

	tc.backends[1].Close() // r2 dies with cached results on board

	for v := 0; v < variants; v++ {
		rep, status := tc.doSolve(t, solveBody(v))
		if status != http.StatusOK {
			t.Fatalf("variant %d after kill: status %d", v, status)
		}
		if rep == "r2" {
			t.Fatalf("variant %d served by the dead replica", v)
		}
	}
	if got := tc.front.Recorder().Value("cluster.retries"); got == 0 {
		t.Error("no reroute retries recorded though a replica died")
	}

	// Two probe sweeps confirm the death (healthy -> suspect -> down).
	tc.front.ProbeAll(context.Background())
	tc.front.ProbeAll(context.Background())
	st, err := tc.client.ClusterStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var r2 *api.ClusterReplica
	for i := range st.Replicas {
		if st.Replicas[i].Name == "r2" {
			r2 = &st.Replicas[i]
		}
	}
	if r2 == nil || r2.State != "down" {
		t.Errorf("r2 state = %+v, want down", r2)
	}
}

// One coalescing layer: K identical concurrent requests through the
// front share their key, so they meet on one replica, whose
// singleflight and cache run one solve per key. A solve is a cache miss
// that did not coalesce onto a flight. 16 keys at once give a gap
// between a flight's finish and its cache write many chances to show.
func TestClusterSingleflight(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	const keys, K = 16, 8
	statuses := make([][K]int, keys)
	bodies := make([][K][]byte, keys)
	var wg sync.WaitGroup
	for k := 0; k < keys; k++ {
		body, _ := json.Marshal(solveBody(k))
		for i := 0; i < K; i++ {
			wg.Add(1)
			go func(k, i int) {
				defer wg.Done()
				res, err := tc.client.DoRaw(context.Background(), http.MethodPost, "/v1/solve/optimal", body)
				if err != nil {
					t.Errorf("key %d request %d: %v", k, i, err)
					return
				}
				statuses[k][i] = res.Status
				bodies[k][i] = res.Body
			}(k, i)
		}
	}
	wg.Wait()

	var solves int64
	for _, s := range tc.servers {
		solves += s.Recorder().Value("server.cache_misses") - s.Recorder().Value("server.coalesced")
	}
	if solves != keys {
		t.Errorf("cluster ran %d solves for %d keys × %d identical requests, want exactly %d", solves, keys, K, keys)
	}
	for k := 0; k < keys; k++ {
		for i := 0; i < K; i++ {
			if statuses[k][i] != http.StatusOK {
				t.Errorf("key %d request %d: status %d", k, i, statuses[k][i])
			}
			if string(bodies[k][i]) != string(bodies[k][0]) {
				t.Errorf("key %d request %d body differs from request 0 — replay not bit-identical", k, i)
			}
		}
	}
}

// The autoscaler end to end over real scrapes: load generates demand,
// a tick scales the fleet up, quiet windows scale it back down.
func TestClusterAutoscalerScalesUpAndDown(t *testing.T) {
	tc := newTestCluster(t, 3, Config{
		MinReplicas: 1,
		MaxReplicas: 3,
		Autoscale: AutoscaleConfig{
			Enabled:           true,
			Interval:          time.Hour,              // loop never fires; ticks are manual
			Window:            100 * time.Millisecond, // demand must clear within this
			WorkersPerReplica: 1,
			TargetUtil:        0.01, // tiny capacity so millisecond solves overload it
			ScaleDownAfter:    2,
		},
	})
	if got := tc.front.activeCount(); got != 1 {
		t.Fatalf("initial replicas = %d, want 1", got)
	}

	// Generate real demand: distinct instances, so every one solves.
	for v := 0; v < 40; v++ {
		if _, status := tc.doSolve(t, solveBody(v)); status != http.StatusOK {
			t.Fatalf("load %d: status %d", v, status)
		}
	}
	tc.front.AutoscaleTick(context.Background())
	scaledTo := tc.front.activeCount()
	if scaledTo <= 1 {
		t.Fatalf("after demand tick: replicas = %d, want > 1", scaledTo)
	}

	// Quiet windows: demand deltas go to zero; after ScaleDownAfter
	// consecutive low decisions the fleet shrinks to the minimum.
	for i := 0; i < 3; i++ {
		tc.front.AutoscaleTick(context.Background())
	}
	deadline := time.Now().Add(5 * time.Second)
	for tc.front.activeCount() != 1 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // drains finish asynchronously
	}
	if got := tc.front.activeCount(); got != 1 {
		t.Fatalf("after quiet ticks: replicas = %d, want 1", got)
	}

	st, err := tc.client.ClusterStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Events) < 2 {
		t.Errorf("scale events = %+v, want at least up + down", st.Events)
	}
	if !st.Autoscaler.Enabled {
		t.Error("autoscaler status not reported enabled")
	}
	// The ticks' cap searches leave no span in the front's recorder.
	if trace := tc.front.Recorder().Snapshot().Trace; len(trace) != 0 {
		t.Errorf("front recorder holds %d spans after the ticks, want none", len(trace))
	}
}

// A session follows its replica: deltas reach the replica holding its job set, and
// the front answers 404 once the owning replica is gone.
func TestClusterSessionAffinity(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	sess, err := tc.client.SessionCreate(context.Background(), solveBody(0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		add := []mpss.Job{{ID: 10 + i, Release: 0, Deadline: 10, Work: 2}}
		if _, err := tc.client.SessionDelta(context.Background(), sess.SessionID, &api.SessionDeltaRequest{AddJobs: add}); err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
	}
	// Exactly one replica saw the session; its solver served every delta.
	withSession := 0
	for _, s := range tc.servers {
		if s.Recorder().Value("server.sessions_active") == 1 {
			withSession++
		}
	}
	if withSession != 1 {
		t.Errorf("replicas with the session = %d, want exactly 1", withSession)
	}
	if err := tc.client.SessionDelete(context.Background(), sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.client.SessionPoll(context.Background(), sess.SessionID, 0, 0); err == nil {
		t.Error("poll after delete succeeded, want 404")
	}
}

// sessionPins reports the front's session pins and the sum of its
// replicas' session counts.
func (tc *testCluster) sessionPins() (pins int, counted int64) {
	f := tc.front
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, r := range f.replicas {
		r.mu.Lock()
		counted += r.sessions
		r.mu.Unlock()
	}
	return len(f.sessions), counted
}

// A session its replica dropped on its own (TTL eviction) loses its
// pin at the front on the first 404, and with it its replica's count.
func TestClusterSessionPinDropsOn404(t *testing.T) {
	tc := newTestCluster(t, 3, Config{})
	ctx := context.Background()
	sess, err := tc.client.SessionCreate(ctx, solveBody(0))
	if err != nil {
		t.Fatal(err)
	}
	if pins, counted := tc.sessionPins(); pins != 1 || counted != 1 {
		t.Fatalf("after create: pins = %d, counted = %d, want 1 and 1", pins, counted)
	}
	// Drop the session on the replicas themselves, behind the front's
	// back; the non-owners answer 404.
	for _, b := range tc.backends {
		api.NewClient(b.URL).SessionDelete(ctx, sess.SessionID)
	}
	_, err = tc.client.SessionPoll(ctx, sess.SessionID, 0, 0)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Kind != "unknown_session" {
		t.Fatalf("poll of an evicted session: %v, want 404 unknown_session", err)
	}
	if pins, counted := tc.sessionPins(); pins != 0 || counted != 0 {
		t.Errorf("after the 404: pins = %d, counted = %d, want 0 and 0", pins, counted)
	}
}

// The front's own errors use the documented kinds, and both tiers
// answer a body one byte over api.MaxRequestBytes with 413.
func TestClusterErrorKinds(t *testing.T) {
	tc := newTestCluster(t, 2, Config{})
	ctx := context.Background()
	_, err := tc.client.SessionPoll(ctx, "nope", 0, 0)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound || apiErr.Kind != "unknown_session" {
		t.Errorf("unknown session through the front: %v, want 404 unknown_session", err)
	}

	// Valid JSON whose object only closes past the limit, so a decoder
	// has to read over it.
	big := []byte(`{"m":2,` + strings.Repeat(" ", api.MaxRequestBytes-len(`{"m":2,"jobs":[]}`)+1) + `"jobs":[]}`)
	if len(big) != api.MaxRequestBytes+1 {
		t.Fatalf("body is %d bytes, want %d", len(big), api.MaxRequestBytes+1)
	}
	for _, tier := range []struct{ name, url string }{{"front", tc.http.URL}, {"replica", tc.backends[0].URL}} {
		for _, path := range []string{"/v1/solve/optimal", "/v1/session"} {
			res, err := api.NewClient(tier.url).DoRaw(ctx, http.MethodPost, path, big)
			if err != nil {
				t.Fatalf("%s %s: %v", tier.name, path, err)
			}
			if e := api.DecodeError(res.Status, res.RequestID, res.Body); e.Status != http.StatusRequestEntityTooLarge || e.Kind != "body_too_large" {
				t.Errorf("%s %s: %d %s, want 413 body_too_large", tier.name, path, e.Status, e.Kind)
			}
		}
	}
}
