package cluster

import (
	"context"
	"strings"
	"sync"
	"testing"

	"mpss"
	"mpss/internal/pool"
)

func TestFlightGroupCoalesces(t *testing.T) {
	var g pool.Group[proxied]
	lead, isLeader := g.Join("k")
	if !isLeader {
		t.Fatal("first join must lead")
	}
	const followers = 5
	var wg, joined sync.WaitGroup
	results := make([]proxied, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		joined.Add(1)
		go func(i int) {
			defer wg.Done()
			f, leader := g.Join("k")
			joined.Done()
			if leader {
				t.Error("follower became leader while flight open")
			}
			<-f.Done()
			results[i] = f.Val()
		}(i)
	}
	want := proxied{status: 200, body: []byte(`{"x":1}`), replica: "r1"}
	joined.Wait() // every follower is on the flight before it lands
	g.Finish("k", lead, want)
	wg.Wait()
	for i, got := range results {
		if got.status != want.status || string(got.body) != string(want.body) {
			t.Fatalf("follower %d got %+v, want %+v", i, got, want)
		}
	}
	// The key is retired: the next join leads a fresh flight.
	next, leader := g.Join("k")
	if !leader {
		t.Fatal("join after finish must lead")
	}
	// A leader that aborts publishes the zero proxied, which followers
	// must not replay.
	follower, _ := g.Join("k")
	g.Finish("k", next, proxied{})
	<-follower.Done()
	if follower.Val().cacheable() {
		t.Fatal("aborted flight replayed as a cacheable answer")
	}
}

func TestParsePrometheus(t *testing.T) {
	text := `# HELP whatever
# TYPE mpss_server_requests_total counter
mpss_server_requests_total{endpoint="optimal"} 10
mpss_server_requests_total{endpoint="oa"} 5
mpss_server_request_seconds_sum 1.25
mpss_server_request_seconds_count 15
mpss_server_queue_depth 3
garbage line without value x
`
	samples, err := parsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := metricSum(samples, "mpss_server_requests_total"); got != 15 {
		t.Errorf("requests sum = %v, want 15 (labeled series folded)", got)
	}
	if got := metricSum(samples, "mpss_server_request_seconds_sum"); got != 1.25 {
		t.Errorf("seconds sum = %v, want 1.25", got)
	}
	if got := metricSum(samples, "mpss_server_queue_depth"); got != 3 {
		t.Errorf("queue depth = %v, want 3", got)
	}
	if got := metricSum(samples, "mpss_absent_metric"); got != 0 {
		t.Errorf("absent metric = %v, want 0", got)
	}
}

func TestDemandJobsChunking(t *testing.T) {
	jobs := demandJobs(1.0, 2.0, 0.1) // chunk = 0.2 work-seconds
	if len(jobs) != 5 {
		t.Fatalf("got %d jobs, want 5", len(jobs))
	}
	total := 0.0
	for _, j := range jobs {
		if j.Work > 0.2+1e-12 {
			t.Errorf("job %d work %v exceeds chunk 0.2", j.ID, j.Work)
		}
		if j.Release != 0 || j.Deadline != 2.0 {
			t.Errorf("job %d window [%v,%v], want [0,2]", j.ID, j.Release, j.Deadline)
		}
		total += j.Work
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("total work %v, want 1.0", total)
	}
	if demandJobs(0, 1, 1) != nil {
		t.Error("zero demand must yield no jobs")
	}
}

// The autoscaler's core question: smallest m at which the demand
// instance is feasible under the per-replica cap. The demand here is
// exact: W work-seconds in a window of length T under cap c needs
// ceil(W/(c*T)) processors.
func TestDesiredReplicasTracksDemand(t *testing.T) {
	f := &Front{cfg: Config{MinReplicas: 1, MaxReplicas: 8}}
	a := newAutoscaler(f, AutoscaleConfig{Enabled: true})
	window, capPer := 2.0, 0.5 // each replica absorbs 1.0 work-seconds per window
	for _, tc := range []struct {
		demand float64
		want   int
	}{
		{0.0, 1}, {0.5, 1}, {1.0, 1}, {1.5, 2}, {2.9, 3}, {7.5, 8}, {100, 8},
	} {
		jobs := demandJobs(tc.demand, window, capPer)
		got := a.desiredReplicas(context.Background(), jobs, capPer)
		if got != tc.want {
			t.Errorf("demand %v: desired = %d, want %d", tc.demand, got, tc.want)
		}
	}
}

// Feasibility must agree with the solver's own verdict on a structured
// instance, not just the aggregate-work bound.
func TestDesiredReplicasUsesSolver(t *testing.T) {
	f := &Front{cfg: Config{MinReplicas: 1, MaxReplicas: 4}}
	a := newAutoscaler(f, AutoscaleConfig{Enabled: true})
	// Two jobs each filling a full replica-window: aggregate would fit on
	// one processor at speed 2, but the cap forbids it.
	jobs := []mpss.Job{
		{ID: 1, Release: 0, Deadline: 1, Work: 1},
		{ID: 2, Release: 0, Deadline: 1, Work: 1},
	}
	if got := a.desiredReplicas(context.Background(), jobs, 1.0); got != 2 {
		t.Errorf("two window-filling jobs: desired = %d, want 2", got)
	}
}
