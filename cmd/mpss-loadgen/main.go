// Command mpss-loadgen is the open-loop load generator and SLO harness
// for mpss-served: it offers requests on a Poisson arrival process
// (arrivals do not wait for completions — the "heavy traffic from
// millions of users" model, where load is independent of service
// speed), mixes endpoints by configurable weights, splits traffic
// between a warm pool of repeated instances (cache-friendly) and
// unique instances (cache-busting), and reports latency percentiles,
// throughput and an error breakdown as a JSON SLO report.
//
// Usage:
//
//	mpss-loadgen -url http://127.0.0.1:8080 -duration 10s -rate 200 \
//	    -mix optimal=6,oa=2,feasible=1,mincap=1 -unique 0.5 \
//	    -slo-p99 250ms -slo-error-rate 0.01
//
// The SLO verdict gates the exit code: 0 when the run passed (p99 within
// target, error rate within budget, at least one completed request),
// 1 when the SLO failed, 2 on usage errors — so CI and autoscaler
// experiments can consume the verdict directly.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpss"
	"mpss/api"
	"mpss/internal/stats"
)

// endpointPaths maps mix names onto API paths.
var endpointPaths = map[string]string{
	"optimal":  "/v1/solve/optimal",
	"exact":    "/v1/solve/optimal",
	"oa":       "/v1/solve/oa",
	"avr":      "/v1/solve/avr",
	"atcap":    "/v1/solve/atcap",
	"feasible": "/v1/feasible",
	"mincap":   "/v1/mincap",
}

// outcome is one completed (or failed) request as the collector sees it.
type outcome struct {
	endpoint  string
	status    int // 0 = transport error
	seconds   float64
	errKind   string // error body kind, or transport error class
	requestID string
}

// LatencyReport summarizes one latency population in milliseconds.
type LatencyReport struct {
	Count  int     `json:"count"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P90MS  float64 `json:"p90_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// SLOReport is the verdict block of the JSON report.
type SLOReport struct {
	P99TargetMS  float64 `json:"p99_target_ms"`
	P99MS        float64 `json:"p99_ms"`
	MaxErrorRate float64 `json:"max_error_rate"`
	ErrorRate    float64 `json:"error_rate"`
	Pass         bool    `json:"pass"`
	Reason       string  `json:"reason,omitempty"`
}

// Report is the full JSON document mpss-loadgen emits.
type Report struct {
	Config          map[string]any           `json:"config"`
	DurationSeconds float64                  `json:"duration_seconds"`
	Offered         int                      `json:"offered"`
	Completed       int                      `json:"completed"`
	ShedInflight    int                      `json:"shed_inflight"`
	ThroughputRPS   float64                  `json:"throughput_rps"`
	StatusCounts    map[string]int           `json:"status_counts"`
	ErrorKinds      map[string]int           `json:"error_kinds,omitempty"`
	Latency         LatencyReport            `json:"latency"`
	PerEndpoint     map[string]LatencyReport `json:"per_endpoint"`
	SLO             SLOReport                `json:"slo"`
}

func main() {
	var (
		baseURL     = flag.String("url", "http://127.0.0.1:8080", "base URL of mpss-served (or mpss-front)")
		targetsFlag = flag.String("targets", "", "comma-separated base URLs to spread load across (overrides -url; arrivals round-robin)")
		duration    = flag.Duration("duration", 10*time.Second, "offered-load window")
		rate        = flag.Float64("rate", 50, "mean arrival rate in req/s (Poisson process)")
		mix         = flag.String("mix", "optimal=6,oa=2,feasible=1,mincap=1", "endpoint weights name=w,... (optimal, exact, oa, avr, atcap, feasible, mincap)")
		unique      = flag.Float64("unique", 0.5, "fraction of arrivals solving a fresh unique instance (cache-busting); the rest replay a warm pool")
		warmPool    = flag.Int("warm-pool", 8, "distinct instances in the warm (cache-friendly) pool")
		jobs        = flag.Int("jobs", 16, "jobs per generated instance")
		m           = flag.Int("m", 3, "processors per generated instance")
		capFlag     = flag.Float64("cap", 100, "speed cap for feasible/atcap requests")
		workload    = flag.String("workload", "bursty", "workload generator family (see mpss.GenerateWorkload)")
		seed        = flag.Int64("seed", 1, "base RNG seed (arrivals, mix draws, instances)")
		reqTimeout  = flag.Duration("timeout", 5*time.Second, "per-request client timeout")
		maxInflight = flag.Int("max-inflight", 512, "open-loop safety valve: arrivals beyond this many in-flight requests are shed and counted")
		sloP99      = flag.Duration("slo-p99", 500*time.Millisecond, "SLO: p99 latency target")
		sloErrRate  = flag.Float64("slo-error-rate", 0.01, "SLO: max fraction of transport/5xx failures")
		outPath     = flag.String("o", "", "write the JSON report to this file (default stdout)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpss-loadgen: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	weights, err := parseMix(*mix)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-loadgen:", err)
		os.Exit(2)
	}
	if *rate <= 0 || *duration <= 0 {
		fmt.Fprintln(os.Stderr, "mpss-loadgen: -rate and -duration must be positive")
		os.Exit(2)
	}

	// Pre-generate the request bodies: a warm pool replayed across the
	// run (cache hits exercise the LRU) and, lazily below, unique
	// instances that can never hit the cache.
	warm := make([][]byte, 0, *warmPool)
	for i := 0; i < *warmPool; i++ {
		body, err := requestBody(*workload, *jobs, *m, *seed+int64(i), *capFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mpss-loadgen:", err)
			os.Exit(2)
		}
		warm = append(warm, body)
	}

	// All targets share one transport; each gets its own typed api.Client
	// (the same wire client the e2e suites and the cluster tier use).
	targets := []string{*baseURL}
	if *targetsFlag != "" {
		targets = targets[:0]
		for _, t := range strings.Split(*targetsFlag, ",") {
			if t = strings.TrimSpace(t); t != "" {
				targets = append(targets, t)
			}
		}
		if len(targets) == 0 {
			fmt.Fprintln(os.Stderr, "mpss-loadgen: -targets has no URLs")
			os.Exit(2)
		}
	}
	httpc := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        *maxInflight,
			MaxIdleConnsPerHost: *maxInflight,
		},
	}
	clients := make([]*api.Client, len(targets))
	for i, t := range targets {
		clients[i] = api.NewClient(t, api.WithHTTPClient(httpc), api.WithClientTimeout(*reqTimeout))
	}

	rng := rand.New(rand.NewSource(*seed))
	outcomes := make(chan outcome, 4096)
	var collected []outcome
	collectDone := make(chan struct{})
	go func() {
		defer close(collectDone)
		for o := range outcomes {
			collected = append(collected, o)
		}
	}()

	var wg sync.WaitGroup
	var inflight sync.WaitGroup // counted separately so sheds are cheap
	var mu sync.Mutex
	offered, shed, uniqueSeq, active := 0, 0, int64(0), 0

	start := time.Now()
	for time.Since(start) < *duration {
		// Poisson arrivals: exponential inter-arrival gaps.
		gap := time.Duration(rng.ExpFloat64() / *rate * float64(time.Second))
		time.Sleep(gap)
		if time.Since(start) >= *duration {
			break
		}
		offered++
		mu.Lock()
		if active >= *maxInflight {
			shed++
			mu.Unlock()
			continue
		}
		active++
		mu.Unlock()

		name := pickEndpoint(weights, rng.Float64())
		var body []byte
		if rng.Float64() < *unique {
			uniqueSeq++
			b, err := requestBody(*workload, *jobs, *m, *seed+1_000_000+uniqueSeq, *capFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, "mpss-loadgen:", err)
				os.Exit(2)
			}
			body = b
		} else {
			body = warm[rng.Intn(len(warm))]
		}
		reqID := fmt.Sprintf("loadgen-%d", offered)

		c := clients[offered%len(clients)] // round-robin across targets

		wg.Add(1)
		inflight.Add(1)
		go func(c *api.Client, name string, body []byte, reqID string) {
			defer wg.Done()
			defer inflight.Done()
			o := fire(c, name, body, reqID)
			mu.Lock()
			active--
			mu.Unlock()
			outcomes <- o
		}(c, name, body, reqID)
	}
	wg.Wait()
	close(outcomes)
	<-collectDone
	elapsed := time.Since(start)

	report := buildReport(collected, elapsed, offered, shed, map[string]any{
		"url": *baseURL, "targets": targets, "duration": duration.String(), "rate": *rate,
		"mix": *mix, "unique": *unique, "warm_pool": *warmPool,
		"jobs": *jobs, "m": *m, "workload": *workload, "seed": *seed,
	}, sloP99.Seconds()*1000, *sloErrRate)

	enc, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-loadgen:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, enc, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "mpss-loadgen:", err)
			os.Exit(1)
		}
	} else {
		os.Stdout.Write(enc)
	}
	if !report.SLO.Pass {
		fmt.Fprintln(os.Stderr, "mpss-loadgen: SLO FAIL:", report.SLO.Reason)
		os.Exit(1)
	}
}

// parseMix parses "name=weight,..." into a cumulative-weight table.
type weighted struct {
	name string
	cum  float64
}

func parseMix(mix string) ([]weighted, error) {
	var out []weighted
	total := 0.0
	for _, part := range strings.Split(mix, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, wText, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix element %q (want name=weight)", part)
		}
		if _, known := endpointPaths[name]; !known {
			return nil, fmt.Errorf("unknown endpoint %q in mix", name)
		}
		w, err := strconv.ParseFloat(wText, 64)
		if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("bad weight in %q", part)
		}
		total += w
		out = append(out, weighted{name: name, cum: total})
	}
	if len(out) == 0 || total <= 0 {
		return nil, fmt.Errorf("empty endpoint mix %q", mix)
	}
	for i := range out {
		out[i].cum /= total
	}
	return out, nil
}

// pickEndpoint draws one endpoint from the cumulative table.
func pickEndpoint(weights []weighted, u float64) string {
	for _, w := range weights {
		if u <= w.cum {
			return w.name
		}
	}
	return weights[len(weights)-1].name
}

// requestBody renders one SolveRequest-shaped body from a generated
// workload instance.
func requestBody(workload string, jobs, m int, seed int64, cap float64) ([]byte, error) {
	in, err := mpss.GenerateWorkload(workload, mpss.WorkloadSpec{N: jobs, M: m, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("generate workload: %w", err)
	}
	return json.Marshal(map[string]any{
		"m":    in.M,
		"jobs": in.Jobs,
		"cap":  cap,
	})
}

// fire issues one request through the shared api.Client and classifies
// the outcome. The client pins the X-Request-ID we mint and applies the
// per-request timeout; api.DecodeError reads the nested error envelope
// and falls back to the bare status when it is missing.
func fire(c *api.Client, name string, body []byte, reqID string) outcome {
	o := outcome{endpoint: name, requestID: reqID}
	path := endpointPaths[name]
	if name == "exact" {
		var withExact map[string]any
		json.Unmarshal(body, &withExact)
		withExact["exact"] = true
		body, _ = json.Marshal(withExact)
	}

	t0 := time.Now()
	res, err := c.DoRaw(api.WithRequestID(context.Background(), reqID), http.MethodPost, path, body)
	o.seconds = time.Since(t0).Seconds()
	if err != nil {
		o.errKind = classifyTransportError(err)
		return o
	}
	o.status = res.Status
	if res.Status >= 400 {
		o.errKind = api.DecodeError(res.Status, res.RequestID, res.Body).Kind
	}
	return o
}

func classifyTransportError(err error) string {
	msg := err.Error()
	switch {
	case strings.Contains(msg, "Client.Timeout"), strings.Contains(msg, "context deadline exceeded"):
		return "client_timeout"
	case strings.Contains(msg, "connection refused"):
		return "connection_refused"
	default:
		return "transport"
	}
}

// buildReport aggregates the outcomes into the JSON document.
func buildReport(outcomes []outcome, elapsed time.Duration, offered, shed int,
	config map[string]any, p99TargetMS, maxErrRate float64) Report {

	statusCounts := map[string]int{}
	errorKinds := map[string]int{}
	var all []float64
	perEndpoint := map[string][]float64{}
	failures := 0
	for _, o := range outcomes {
		if o.status == 0 {
			statusCounts["transport_error"]++
		} else {
			statusCounts[strconv.Itoa(o.status)]++
		}
		if o.errKind != "" {
			errorKinds[o.errKind]++
		}
		// SLO failures: the service (or path to it) broke — transport
		// errors and 5xx. 4xx are the client's own malformed/infeasible
		// requests and 422 in particular is a correct domain answer.
		if o.status == 0 || o.status >= 500 {
			failures++
		}
		all = append(all, o.seconds*1000)
		perEndpoint[o.endpoint] = append(perEndpoint[o.endpoint], o.seconds*1000)
	}

	r := Report{
		Config:          config,
		DurationSeconds: elapsed.Seconds(),
		Offered:         offered,
		Completed:       len(outcomes),
		ShedInflight:    shed,
		StatusCounts:    statusCounts,
		ErrorKinds:      errorKinds,
		PerEndpoint:     map[string]LatencyReport{},
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(len(outcomes)) / elapsed.Seconds()
	}
	r.Latency = summarizeLatency(all)
	for ep, lats := range perEndpoint {
		r.PerEndpoint[ep] = summarizeLatency(lats)
	}

	errRate := 0.0
	if len(outcomes) > 0 {
		errRate = float64(failures) / float64(len(outcomes))
	}
	slo := SLOReport{
		P99TargetMS:  p99TargetMS,
		P99MS:        r.Latency.P99MS,
		MaxErrorRate: maxErrRate,
		ErrorRate:    errRate,
		Pass:         true,
	}
	switch {
	case len(outcomes) == 0:
		slo.Pass = false
		slo.Reason = "no requests completed"
	case errRate > maxErrRate:
		slo.Pass = false
		slo.Reason = fmt.Sprintf("error rate %.4f exceeds budget %.4f", errRate, maxErrRate)
	case r.Latency.P99MS > p99TargetMS:
		slo.Pass = false
		slo.Reason = fmt.Sprintf("p99 %.1fms exceeds target %.1fms", r.Latency.P99MS, p99TargetMS)
	}
	r.SLO = slo
	return r
}

func summarizeLatency(ms []float64) LatencyReport {
	if len(ms) == 0 {
		return LatencyReport{}
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	sum := 0.0
	for _, v := range sorted {
		sum += v
	}
	return LatencyReport{
		Count:  len(sorted),
		MeanMS: sum / float64(len(sorted)),
		P50MS:  stats.Percentile(sorted, 0.5),
		P90MS:  stats.Percentile(sorted, 0.9),
		P95MS:  stats.Percentile(sorted, 0.95),
		P99MS:  stats.Percentile(sorted, 0.99),
		MaxMS:  sorted[len(sorted)-1],
	}
}
