package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"time"

	"mpss"
	"mpss/api"
	"mpss/internal/cluster"
	"mpss/internal/obs"
	"mpss/internal/server"
)

const (
	wireJobs = 64
	wireM    = 4
	// wirePool distinct instances are generated for the solves and mincaps
	// of wire-solve, which take them in turn. Twice wireCache, so an
	// instance's previous answer has always left the cache when it comes
	// round again.
	wirePool = 2 * wireCache
	// wireSessions streaming sessions take the deltas in turn. A delta
	// costs about a solve of its session's instance, so fewer sessions
	// would tie the delta class to the cost of a few seeded instances.
	wireSessions = 64
	// wireCache caps the server's result cache so it is full by the end
	// of every window: peak RSS then does not grow with requests served.
	wireCache = 256
	// cachedWarm is the wire-cached warm set: it fits each replica's LRU.
	cachedWarm = 64
)

var wireSolve = workload{
	primary:  classSolve,
	traceOps: 200,
	setup:    setupWireSolve,
}

var wireCached = workload{
	primary:  classCached,
	traceOps: 1500,
	setup:    setupWireCached,
}

// genInstance draws the k-th wire instance: generators alternate so
// every run has the same bursty/uniform mix, the seed draws the jobs.
func genInstance(rng *rand.Rand, k int) (*mpss.Instance, error) {
	gen := [...]string{"bursty", "uniform"}[k%2]
	return mpss.GenerateWorkload(gen, mpss.WorkloadSpec{N: wireJobs, M: wireM, Seed: rng.Int63()})
}

// listener serves one handler on a loopback port.
type listener struct {
	hs   *http.Server
	url  string
	done chan error
}

func serve(h http.Handler) (*listener, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &listener{hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops the listener and waits for Serve to return. Teardown
// errors here and in the env close methods are ignored: they cannot
// change a result that has already been measured.
func (l *listener) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx)
	<-l.done
}

// call is one typed-client request as a user pays for it: encode the
// request, round-trip the pre-encoded body through Client.DoRaw, decode
// the reply. It returns the whole duration and the raw result.
func call(c *api.Client, tr *tracer, i int, path string, req, out any) (time.Duration, *api.Result, error) {
	op := tr.start(spanOp, 0, i)
	defer tr.end(op)
	t0 := time.Now()
	sp := tr.start(spanEncode, op, i)
	body, err := json.Marshal(req)
	tr.end(sp)
	if err != nil {
		return 0, nil, err
	}
	sp = tr.start(spanRoundTrip, op, i)
	res, err := c.DoRaw(context.Background(), http.MethodPost, path, body)
	tr.end(sp)
	if err != nil {
		return time.Since(t0), nil, err
	}
	if res.Status != http.StatusOK {
		return time.Since(t0), res, api.DecodeError(res.Status, res.RequestID, res.Body)
	}
	sp = tr.start(spanDecodeRes, op, i)
	err = json.Unmarshal(res.Body, out)
	tr.end(sp)
	return time.Since(t0), res, err
}

// wireOp is one answered wire-solve request, kept for the check.
type wireOp struct {
	class string
	in    *mpss.Instance // the instance solved (a delta: the session's job set after it)
	value float64        // energy (solve, delta) or cap (mincap)
}

// wireSession is a streaming session opened at set-up. Its deltas
// alternately remove a job and add it back, so its size stays fixed.
type wireSession struct {
	id      string
	jobs    []mpss.Job // current job set, in the session's order
	removed *mpss.Job
}

type wireSolveEnv struct {
	srv      *server.Server
	l        *listener
	client   *api.Client
	rng      *rand.Rand
	insts    []*mpss.Instance
	next     int // requests that took an instance of insts
	sessions []*wireSession
	deltas   int // deltas issued; sessions take them in turn
	log      []wireOp
}

func setupWireSolve(seed int64) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &wireSolveEnv{rng: rng}
	for i := 0; i < wirePool; i++ {
		in, err := genInstance(rng, i)
		if err != nil {
			return nil, err
		}
		e.insts = append(e.insts, in)
	}
	e.srv = server.New(server.Config{Workers: 2, CacheEntries: wireCache})
	var err error
	if e.l, err = serve(e.srv); err != nil {
		e.srv.Shutdown(context.Background())
		return nil, err
	}
	e.client = api.NewClient(e.l.url)
	for s := 0; s < wireSessions; s++ {
		in, err := genInstance(rng, s)
		if err != nil {
			e.close()
			return nil, err
		}
		res, err := e.client.SessionCreate(context.Background(), &api.SolveRequest{M: in.M, Jobs: in.Jobs})
		if err != nil {
			e.close()
			return nil, err
		}
		e.sessions = append(e.sessions, &wireSession{id: res.SessionID, jobs: append([]mpss.Job(nil), in.Jobs...)})
	}
	// Warm-up: two rounds of the class mix on instances of their own.
	for i := 0; i < 2*len(wireMix); i++ {
		if _, err := e.do(-1, wireMix[i%len(wireMix)], nil); err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	e.log = nil
	return e, nil
}

// wireMix is the fixed request-class cycle of wire-solve: half solves,
// a quarter mincaps, a quarter session deltas.
var wireMix = [...]string{classSolve, classMincap, classSolve, classDelta}

// do issues one request of class and logs its answer for the check.
func (e *wireSolveEnv) do(i int, class string, tr *tracer) (time.Duration, error) {
	op := wireOp{class: class}
	var d time.Duration
	var err error
	switch class {
	case classSolve, classMincap:
		op.in = e.insts[e.next%len(e.insts)]
		e.next++
		req := &api.SolveRequest{M: op.in.M, Jobs: op.in.Jobs}
		if class == classSolve {
			var out api.OptimalResponse
			d, _, err = call(e.client, tr, i, "/v1/solve/optimal", req, &out)
			op.value = out.Energy
		} else {
			var out api.MinCapResponse
			d, _, err = call(e.client, tr, i, "/v1/mincap", req, &out)
			op.value = out.Cap
		}
	case classDelta:
		s := e.sessions[e.deltas%len(e.sessions)]
		e.deltas++
		var req api.SessionDeltaRequest
		if s.removed == nil {
			k := e.rng.Intn(len(s.jobs))
			j := s.jobs[k]
			req.RemoveIDs = []int{j.ID}
			s.jobs = append(s.jobs[:k:k], s.jobs[k+1:]...)
			s.removed = &j
		} else {
			req.AddJobs = []mpss.Job{*s.removed}
			s.jobs = append(s.jobs, *s.removed)
			s.removed = nil
		}
		op.in = &mpss.Instance{M: wireM, Jobs: append([]mpss.Job(nil), s.jobs...)}
		var out api.SessionResponse
		d, _, err = call(e.client, tr, i, "/v1/session/"+s.id+"/delta", &req, &out)
		op.value = out.Energy
	}
	if err == nil {
		e.log = append(e.log, op)
	}
	return d, err
}

func (e *wireSolveEnv) run(stop func(int) bool, tr *tracer) (*window, error) {
	e.log = nil
	w := newWindow()
	for i := 0; !stop(i); i++ {
		class := wireMix[i%len(wireMix)]
		d, err := e.do(i, class, tr)
		if err != nil {
			fmt.Printf("request %d (%s): %v\n", i, class, err)
		}
		jobs := 0
		if err == nil {
			jobs = len(e.log[len(e.log)-1].in.Jobs)
		}
		w.record(class, d, jobs, err == nil)
	}
	return w, nil
}

// check recomputes every logged answer in-process: a solve's energy
// against a one-shot OptimalSchedule, a delta's against a one-shot solve of the
// session's job set, a mincap against MinFeasibleCap.
func (e *wireSolveEnv) check(tr *tracer) int {
	bad := make([]bool, len(e.log))
	parallel(len(e.log), 2, func(k int) {
		op := e.log[k]
		var want float64
		var err error
		if op.class == classMincap {
			want, err = mpss.MinFeasibleCap(op.in, 0)
		} else {
			var res *mpss.OptimalResult
			if res, err = mpss.OptimalSchedule(op.in); err == nil {
				want = res.Schedule.Energy(alpha3)
			}
		}
		if err != nil || want != op.value {
			fmt.Printf("check: %s %d: got %v, want %v (%v)\n", op.class, k, op.value, want, err)
			bad[k] = true
		}
	})
	failed := 0
	for _, b := range bad {
		if b {
			failed++
		}
	}
	return failed
}

func (e *wireSolveEnv) counters() map[string]float64 {
	c := map[string]float64{}
	addRecorder(c, e.srv.Recorder())
	addRuntime(c)
	return c
}

func (e *wireSolveEnv) close() {
	if e.l != nil {
		e.l.close()
	}
	e.srv.Shutdown(context.Background())
}

// wireCachedEnv is mpss-front over two in-process replicas with a
// primed warm set.
type wireCachedEnv struct {
	replicas []*server.Server
	backs    []*listener
	front    *cluster.Front
	l        *listener
	client   *api.Client
	reqs     []*api.SolveRequest
	primed   [][]byte // each warm request's priming response body
	order    []int
	// stale counts timed answers that were not byte-identical cache hits.
	stale int
}

func setupWireCached(seed int64) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &wireCachedEnv{}
	for i := 0; i < cachedWarm; i++ {
		in, err := genInstance(rng, i)
		if err != nil {
			return nil, err
		}
		e.reqs = append(e.reqs, &api.SolveRequest{M: in.M, Jobs: in.Jobs})
	}
	e.order = rng.Perm(cachedWarm)
	var urls []string
	for r := 1; r <= 2; r++ {
		srv := server.New(server.Config{Workers: 1, ReplicaName: fmt.Sprintf("r%d", r)})
		e.replicas = append(e.replicas, srv)
		l, err := serve(srv)
		if err != nil {
			e.close()
			return nil, err
		}
		e.backs = append(e.backs, l)
		urls = append(urls, l.url)
	}
	var err error
	e.front, err = cluster.New(cluster.Config{
		Spawner:     &cluster.StaticSpawner{URLs: urls},
		MinReplicas: 2, MaxReplicas: 2,
		ProbeInterval: -1, // no background probes: the fleet is fixed
	})
	if err != nil {
		e.close()
		return nil, err
	}
	if e.l, err = serve(e.front); err != nil {
		e.close()
		return nil, err
	}
	e.client = api.NewClient(e.l.url)
	for i, req := range e.reqs {
		var out api.OptimalResponse
		_, res, err := call(e.client, nil, i, "/v1/solve/optimal", req, &out)
		if err != nil {
			e.close()
			return nil, fmt.Errorf("priming request %d: %w", i, err)
		}
		e.primed = append(e.primed, res.Body)
	}
	// Warm-up: one pass of hits over the warm set.
	if _, err := e.run(func(ops int) bool { return ops >= cachedWarm }, nil); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *wireCachedEnv) run(stop func(int) bool, tr *tracer) (*window, error) {
	e.stale = 0
	w := newWindow()
	for i := 0; !stop(i); i++ {
		k := e.order[i%len(e.order)]
		var out api.OptimalResponse
		d, res, err := call(e.client, tr, i, "/v1/solve/optimal", e.reqs[k], &out)
		if err != nil {
			fmt.Printf("request %d: %v\n", i, err)
		} else if res.Header.Get(api.HeaderCache) != "hit" || !bytes.Equal(res.Body, e.primed[k]) {
			e.stale++
		}
		w.record(classCached, d, len(e.reqs[k].Jobs), err == nil)
	}
	return w, nil
}

// check fails every timed answer that was not a byte-identical cache
// hit, and verifies each primed schedule against its instance.
func (e *wireCachedEnv) check(tr *tracer) int {
	failed := e.stale
	if failed > 0 {
		fmt.Printf("check: %d answers were not byte-identical cache hits\n", failed)
	}
	for k, body := range e.primed {
		var out api.OptimalResponse
		err := json.Unmarshal(body, &out)
		if err == nil {
			sp := tr.start(spanVerify, 0, k)
			err = mpss.Verify(out.Schedule, &mpss.Instance{M: e.reqs[k].M, Jobs: e.reqs[k].Jobs})
			tr.end(sp)
		}
		if err != nil {
			fmt.Printf("check: primed answer %d: %v\n", k, err)
			failed++
		}
	}
	return failed
}

func (e *wireCachedEnv) counters() map[string]float64 {
	c := map[string]float64{}
	for i, srv := range e.replicas {
		addRecorder(c, srv.Recorder())
		name := fmt.Sprintf("r%d", i+1)
		c["cluster.proxied."+name] = float64(e.front.Recorder().Value(
			obs.LabeledName("cluster.proxied", obs.Label{Key: "replica", Value: name})))
	}
	c["cluster.retries"] = float64(e.front.Recorder().Value("cluster.retries"))
	addRuntime(c)
	return c
}

func (e *wireCachedEnv) close() {
	if e.l != nil {
		e.l.close()
	}
	if e.front != nil {
		e.front.Shutdown(context.Background())
	}
	for i, srv := range e.replicas {
		if i < len(e.backs) {
			e.backs[i].close()
		}
		srv.Shutdown(context.Background())
	}
}
