// Command perfbench is the repository benchmark. One process runs one
// workload at one seed and prints, as its last stdout line, a JSON
// object {"correct","attempted","failed","metrics"}.
//
// With --trace 0 it measures the end-to-end metrics over a timed window
// of --seconds; with --trace 1 it runs a fixed, seed-determined sequence
// of operations twice (untraced, then traced) and reports the per-layer
// metrics. See README.md for the workloads, metric definitions and how
// to read the traced output.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRepeats is how many times a run builds its workload before the
// timed window; setup_s reports the median so one slow boot does not
// move it.
const setupRepeats = 5

// latency classes; each percentile is taken within one class only.
const (
	classTrace  = "trace"
	classSolve  = "solve"
	classMincap = "mincap"
	classDelta  = "delta"
	classCached = "cached"
)

// workload describes one benchmark workload.
type workload struct {
	primary string // latency class behind latency_p50_ms
	// traceOps is the size of the fixed operation sequence of a traced
	// run, chosen so one pass takes a few seconds on a 2-core box.
	traceOps int
	setup    func(seed int64) (env, error)
}

// env is a set-up workload, ready to issue operations.
type env interface {
	// run issues operations until stop reports true. With a non-nil
	// tracer it records a span around every layer call.
	run(stop func(ops int) bool, tr *tracer) (*window, error)
	// check verifies every answer of the last run against an
	// in-process reference and returns how many operations failed.
	check(tr *tracer) int
	// counters returns the program's own counters (recorders, runtime),
	// read before and after a traced pass.
	counters() map[string]float64
	close()
}

var workloads = map[string]workload{
	"trace-stream": traceStream,
	"wire-solve":   wireSolve,
	"wire-cached":  wireCached,
}

// window is the outcome of one run of operations.
type window struct {
	ops, failed int
	jobs        int
	lat         map[string][]float64 // ms per class; a failed op is +Inf
}

func newWindow() *window { return &window{lat: map[string][]float64{}} }

// record books one finished operation.
func (w *window) record(class string, d time.Duration, jobs int, ok bool) {
	w.ops++
	ms := d.Seconds() * 1e3
	if ok {
		w.jobs += jobs
	} else {
		w.failed++
		ms = math.Inf(1)
	}
	w.lat[class] = append(w.lat[class], ms)
}

// opSeconds is the summed duration of the operations that succeeded.
func (w *window) opSeconds() float64 {
	var total float64
	for _, l := range w.lat {
		for _, ms := range l {
			if !math.IsInf(ms, 1) {
				total += ms / 1e3
			}
		}
	}
	return total
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: trace-stream, wire-solve or wire-cached")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "timed window length (untraced runs)")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the timed window")
	spans := flag.String("spans", "", "traced runs: write every span as JSON lines to this file")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	fmt.Printf("env: workload=%s seed=%d nproc=%d GOMAXPROCS=%d go=%s\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, w.traceOps, *spans)
	} else {
		res, err = runTimed(w, *seed, time.Duration(*seconds*float64(time.Second)))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printResult(res)
}

// runTimed sets the workload up setupRepeats times, measures one timed
// window on the last set-up, then checks every answer.
func runTimed(w workload, seed int64, d time.Duration) (*result, error) {
	e, setupS, err := setupMedian(w, seed)
	if err != nil {
		return nil, err
	}
	defer e.close()
	var t0, deadline time.Time
	var cpu0, busy0, stolen0 float64
	win, err := e.run(func(ops int) bool {
		if ops == 0 {
			t0 = time.Now()
			deadline = t0.Add(d)
			cpu0 = cpuSeconds()
			busy0, stolen0 = cpuStat()
		}
		return !time.Now().Before(deadline)
	}, nil)
	if err != nil {
		return nil, err
	}
	wall := time.Since(t0).Seconds()
	cpu := cpuSeconds() - cpu0
	busy, stolen := cpuStat()
	busy, stolen = busy-busy0, stolen-stolen0
	rssMB, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	failed := win.failed + e.check(nil)
	p50, _, _, _ := latency(win.lat[w.primary])
	for _, c := range []string{classTrace, classSolve, classMincap, classDelta, classCached} {
		if l := win.lat[c]; len(l) > 0 {
			q50, qt, qp, qb := latency(l)
			fmt.Printf("class %-6s n=%d p50=%.4f ms p%g=%.4f ms (%d samples beyond)\n", c, len(l), q50, qp, qt, qb)
		}
	}
	fmt.Printf("window %.3f s, process CPU %.3f s, VM busy %.2f s, stolen %.2f s (%.2f%% of demanded)\n",
		wall, cpu, busy, stolen, 100*ratio(stolen, busy+stolen))
	return &result{
		Correct:   failed == 0,
		Attempted: win.ops,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":        {setupS, "s"},
			"peak_rss_mb":    {rssMB, "MiB"},
			"jobs_per_s":     {float64(win.jobs) / wall, "jobs/s"},
			"requests_per_s": {float64(win.ops) / wall, "1/s"},
			"latency_p50_ms": {finite(p50), "ms"},
		},
	}, nil
}

// setupMedian builds the workload setupRepeats times, keeps the last
// one and returns the median set-up time in seconds.
func setupMedian(w workload, seed int64) (env, float64, error) {
	var times []float64
	var e env
	for i := 0; i < setupRepeats; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		var err error
		if e, err = w.setup(seed); err != nil {
			return nil, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	sort.Float64s(times)
	return e, times[len(times)/2], nil
}

// runTraced runs the same fixed operation sequence on two fresh set-ups,
// first untraced and then traced, and reports the per-layer metrics of
// the traced pass plus the tracing overhead between the two.
func runTraced(w workload, seed int64, n int, spansPath string) (*result, error) {
	stop := func(ops int) bool { return ops >= n }
	plain, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	untraced, err := plain.run(stop, nil)
	plain.close()
	if err != nil {
		return nil, err
	}

	e, err := w.setup(seed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	tr := newTracer()
	before := e.counters()
	traced, err := e.run(stop, tr)
	if err != nil {
		return nil, err
	}
	after := e.counters()
	failed := traced.failed + e.check(tr)
	if spansPath != "" {
		if err := tr.writeJSONL(spansPath); err != nil {
			return nil, err
		}
	}
	delta := map[string]float64{}
	for k, v := range after {
		delta[k] = v - before[k]
	}
	layers := perLayer(traced, delta, tr)
	layers["trace.overhead_pct"] = metric{100 * (tr.opSeconds()/untraced.opSeconds() - 1), "%"}
	return &result{Correct: failed == 0, Attempted: traced.ops, Failed: failed, Metrics: layers}, nil
}

// latency returns a class's median and its tail: the highest of p99,
// p95, p90 and p75 that still has at least ten samples beyond it (the
// median when no percentile does), with that percentile and the
// number of samples beyond it.
func latency(ms []float64) (p50, tail, pct float64, beyond int) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p50, b50 := percentile(s, 50)
	for _, p := range []float64{99, 95, 90, 75} {
		if v, b := percentile(s, p); b >= 10 {
			return p50, v, p, b
		}
	}
	return p50, p50, 50, b50
}

// percentile is the nearest-rank percentile of sorted s and the number
// of samples above its rank.
func percentile(s []float64, p float64) (float64, int) {
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

// peakRSSMiB reads this process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			var kb float64
			if _, err := fmt.Sscan(f[1], &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuStat returns the VM's busy CPU time (user, nice, system, irq,
// softirq) and the time the hypervisor stole, summed over its CPUs,
// from /proc/stat; zeros where unavailable. It is printed next to each
// window, not used to correct any metric.
func cpuStat() (busy, stolen float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	f := strings.Fields(strings.SplitN(string(data), "\n", 2)[0])
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	var t [8]float64 // user nice system idle iowait irq softirq steal
	for i := range t {
		if _, err := fmt.Sscan(f[i+1], &t[i]); err != nil {
			return 0, 0
		}
	}
	const userHZ = 100
	return (t[0] + t[1] + t[2] + t[5] + t[6]) / userHZ, t[7] / userHZ
}

func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-34s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
	fmt.Printf("attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.Correct)
	out, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// parallel calls f(0..n-1) on up to workers goroutines and waits.
func parallel(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
