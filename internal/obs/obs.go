// Package obs is the zero-dependency observability substrate of the
// reproduction: named atomic counters, value/duration histograms
// summarized through internal/stats, and a hierarchical span tracer that
// records the phase structure of a solver run.
//
// The package is designed so that uninstrumented callers pay essentially
// nothing: every API is safe on a nil *Recorder (and on the nil *Span
// and *Counter handles a nil recorder returns), so the hot paths carry a
// single pointer comparison when observability is off. Solvers keep
// their innermost-loop tallies in plain local integers and publish them
// to the Recorder once per solve, so even an enabled recorder stays off
// the critical path.
//
// Typical use:
//
//	rec := obs.New()
//	res, err := opt.Schedule(in, opt.WithRecorder(rec))
//	rec.WriteJSON(os.Stdout)     // machine-readable snapshot
//	fmt.Print(rec.TraceTree())   // human-readable phase tree
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mpss/internal/stats"
)

// Counter is a monotonically adjustable atomic counter. All methods are
// safe on a nil receiver (no-ops / zero), so handles obtained from a nil
// Recorder can be used unconditionally.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta int64) {
	if c == nil {
		return
	}
	c.v.Add(delta)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DefaultBuckets are the cumulative upper bounds (in seconds, matching
// the histograms' dominant use for durations) a Histogram tallies into
// when no explicit bounds were set: an exponential ladder from 50µs to
// 10s. Exposed so the Prometheus encoder and tests agree on the grid.
var DefaultBuckets = []float64{
	5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
	2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// reservoirCap bounds the per-histogram raw-sample memory: a long-lived
// daemon observing millions of requests keeps at most this many samples
// (uniformly selected via reservoir sampling) for percentile estimation,
// while bucket counts, count, sum and extrema stay exact.
const reservoirCap = 4096

// Histogram accumulates float64 observations (typically durations in
// seconds). It maintains exact cumulative bucket counts on a fixed
// bound grid (for Prometheus exposition), exact count/sum/extrema, and
// a bounded uniform reservoir of raw samples for quantile estimation
// through internal/stats. Safe for concurrent use; all methods are
// no-ops on a nil receiver.
type Histogram struct {
	mu       sync.Mutex
	bounds   []float64 // cumulative upper bounds; DefaultBuckets unless SetBuckets ran
	counts   []uint64  // len(bounds)+1; last slot is +Inf
	total    uint64
	sum      float64
	min, max float64
	samples  []float64 // uniform reservoir, ≤ reservoirCap
	rng      uint64    // xorshift64 state for reservoir replacement
}

// SetBuckets replaces the bucket bound grid (sorted copy). It resets any
// existing bucket tallies, so call it before the first Observe.
func (h *Histogram) SetBuckets(bounds []float64) {
	if h == nil {
		return
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h.mu.Lock()
	h.bounds = b
	h.counts = make([]uint64, len(b)+1)
	h.mu.Unlock()
}

// Observe appends one sample.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.counts == nil {
		if h.bounds == nil {
			h.bounds = DefaultBuckets
		}
		h.counts = make([]uint64, len(h.bounds)+1)
	}
	// Prometheus "le" semantics: bucket i counts v <= bounds[i].
	h.counts[sort.SearchFloat64s(h.bounds, v)]++
	if h.total == 0 || v < h.min {
		h.min = v
	}
	if h.total == 0 || v > h.max {
		h.max = v
	}
	h.total++
	h.sum += v
	if len(h.samples) < reservoirCap {
		h.samples = append(h.samples, v)
	} else {
		// Algorithm R with a deterministic xorshift64 stream: each of
		// the total observations ends up in the reservoir with equal
		// probability, and runs are reproducible.
		if h.rng == 0 {
			h.rng = 0x9e3779b97f4a7c15
		}
		h.rng ^= h.rng << 13
		h.rng ^= h.rng >> 7
		h.rng ^= h.rng << 17
		if j := h.rng % h.total; j < reservoirCap {
			h.samples[j] = v
		}
	}
	h.mu.Unlock()
}

// Total returns the exact observation count and sum, the rate
// numerator/denominator a poller diffs between scrapes (0, 0 on a nil
// or empty histogram).
func (h *Histogram) Total() (count uint64, sum float64) {
	if h == nil {
		return 0, 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total, h.sum
}

// Count returns the number of samples observed so far.
func (h *Histogram) Count() int {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.total)
}

// Summary computes the distributional summary of the samples. Count,
// mean and extrema are exact; Std and the percentiles are estimated
// from the bounded reservoir once the histogram has seen more than
// reservoirCap observations. It returns an error on an empty histogram
// (matching stats.Summarize).
func (h *Histogram) Summary() (stats.Summary, error) {
	if h == nil {
		return stats.Summary{}, fmt.Errorf("obs: nil histogram")
	}
	h.mu.Lock()
	sample := append([]float64(nil), h.samples...)
	total, sum, lo, hi := h.total, h.sum, h.min, h.max
	h.mu.Unlock()
	s, err := stats.Summarize(sample)
	if err != nil {
		return s, err
	}
	s.N = int(total)
	s.Mean = sum / float64(total)
	s.Min, s.Max = lo, hi
	return s, nil
}

// exposition returns the histogram's Prometheus-facing state: bucket
// bounds with cumulative (monotone) counts, total count and sum. ok is
// false for an empty (or nil) histogram.
func (h *Histogram) exposition() (bounds []float64, cum []uint64, count uint64, sum float64, ok bool) {
	if h == nil {
		return nil, nil, 0, 0, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return nil, nil, 0, 0, false
	}
	bounds = append([]float64(nil), h.bounds...)
	cum = make([]uint64, len(h.counts))
	var running uint64
	for i, c := range h.counts {
		running += c
		cum[i] = running
	}
	return bounds, cum, h.total, h.sum, true
}

// Span is one node of the hierarchical trace: a named region of a solver
// run with a wall-clock duration, integer counters, float-valued
// attributes and child spans. Spans are created with StartSpan and
// closed with End; a span never explicitly ended is closed at snapshot
// time. All methods are safe on a nil receiver.
type Span struct {
	rec   *Recorder
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time
	counters map[string]int64
	values   map[string]float64
	tags     map[string]string
	children []*Span
}

// StartSpan opens a child span under s. When the recorder's trace cap
// (LimitTrace) is exhausted it returns nil — a no-op span — so the
// trace tree stays bounded however many spans its callers open.
func (s *Span) StartSpan(name string) *Span {
	if s == nil {
		return nil
	}
	if s.rec != nil && !s.rec.spanBudget() {
		return nil
	}
	child := &Span{rec: s.rec, name: name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, child)
	s.mu.Unlock()
	return child
}

// Recorder returns the recorder this span records into (nil on a nil
// span), so instrumented layers can reach shared counters through the
// span they were handed.
func (s *Span) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Add increments a per-span counter.
func (s *Span) Add(name string, delta int64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.counters == nil {
		s.counters = make(map[string]int64, 4)
	}
	s.counters[name] += delta
	s.mu.Unlock()
}

// SetValue records a float-valued attribute (e.g. the critical speed of
// a phase).
func (s *Span) SetValue(name string, v float64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.values == nil {
		s.values = make(map[string]float64, 4)
	}
	s.values[name] = v
	s.mu.Unlock()
}

// SetTag records a string-valued attribute (e.g. the request ID a
// server span belongs to), so trace consumers can correlate spans with
// logs and responses.
func (s *Span) SetTag(name, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.tags == nil {
		s.tags = make(map[string]string, 2)
	}
	s.tags[name] = value
	s.mu.Unlock()
}

// End closes the span. Calling End more than once keeps the first end
// time.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.mu.Unlock()
}

// spanKey is the context key ContextWithSpan stores the span under.
type spanKey struct{}

// ContextWithSpan returns a copy of ctx carrying s, so a layer that
// only receives a context (a solver entry point) can nest its spans
// under the caller's.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

// SpanFromContext returns the span ContextWithSpan stored in ctx (nil
// when there is none, and on a nil ctx).
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Recorder collects named counters, histograms and a trace tree for one
// solver run (or one experiment). The zero value is not usable; construct
// with New. A nil *Recorder is the no-op default: every method returns
// immediately, so instrumented code needs no conditional plumbing.
//
// Counter handles are atomic and histogram/span updates take a mutex, so
// a Recorder may be shared by concurrent solver goroutines.
type Recorder struct {
	start time.Time

	spanCap   atomic.Int64 // 0 = unlimited
	spanCount atomic.Int64

	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
	root     *Span
}

// New returns an empty enabled recorder.
func New() *Recorder {
	now := time.Now()
	r := &Recorder{
		start:    now,
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
	r.root = &Span{rec: r, name: "root", start: now}
	return r
}

// Enabled reports whether the recorder actually records (false for nil).
func (r *Recorder) Enabled() bool { return r != nil }

// LimitTrace caps the total number of spans the recorder will record;
// once n spans have been started, further StartSpan calls return nil
// (the no-op span) and are tallied in the "obs.spans_dropped" counter.
// Counters and histograms are unaffected. The scheduling daemon caps
// each request's own span tree this way, so one solve with thousands of
// phases cannot grow it without bound; n <= 0 restores the unlimited
// default.
func (r *Recorder) LimitTrace(n int) {
	if r == nil {
		return
	}
	r.spanCap.Store(int64(n))
}

// spanBudget consumes one unit of the trace cap, reporting false (and
// counting the drop) once the cap is exhausted.
func (r *Recorder) spanBudget() bool {
	cap := r.spanCap.Load()
	if cap <= 0 {
		return true
	}
	if r.spanCount.Add(1) > cap {
		r.Add("obs.spans_dropped", 1)
		return false
	}
	return true
}

// Counter returns the named counter, creating it on first use. On a nil
// recorder it returns a nil handle whose methods are no-ops.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Add increments the named counter by delta.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.Counter(name).Add(delta)
}

// Value returns the current value of the named counter (0 if absent or
// on a nil recorder).
func (r *Recorder) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	c := r.counters[name]
	r.mu.Unlock()
	return c.Value()
}

// Histogram returns the named histogram, creating it on first use (nil
// handle on a nil recorder).
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// Observe appends one sample to the named histogram.
func (r *Recorder) Observe(name string, v float64) {
	if r == nil {
		return
	}
	r.Histogram(name).Observe(v)
}

var noopStop = func() {}

// Time starts a wall-clock timer; the returned function stops it and
// records the elapsed seconds in the named histogram. On a nil recorder
// the returned function does nothing and no clock is read.
func (r *Recorder) Time(name string) func() {
	if r == nil {
		return noopStop
	}
	t0 := time.Now()
	return func() { r.Observe(name, time.Since(t0).Seconds()) }
}

// Root returns the implicit root span (nil on a nil recorder).
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// StartSpan opens a new top-level span under the root.
func (r *Recorder) StartSpan(name string) *Span { return r.Root().StartSpan(name) }

// SpanSnapshot is the exported form of one trace node.
type SpanSnapshot struct {
	Name     string             `json:"name"`
	Seconds  float64            `json:"seconds"`
	Counters map[string]int64   `json:"counters,omitempty"`
	Values   map[string]float64 `json:"values,omitempty"`
	Tags     map[string]string  `json:"tags,omitempty"`
	Children []SpanSnapshot     `json:"children,omitempty"`
}

// Snapshot is a point-in-time export of everything a Recorder holds:
// the counter map, per-histogram summaries, and the span tree. It is the
// machine-readable unit the CLIs write as JSON (mpss.Metrics aliases it).
type Snapshot struct {
	WallSeconds float64                  `json:"wall_seconds"`
	Counters    map[string]int64         `json:"counters"`
	Gauges      map[string]float64       `json:"gauges,omitempty"`
	Histograms  map[string]stats.Summary `json:"histograms,omitempty"`
	Trace       []SpanSnapshot           `json:"trace,omitempty"`
}

// Snapshot exports the recorder's current state. Open spans are reported
// with their duration up to now. A nil recorder yields a zero Snapshot.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	now := time.Now()
	snap := Snapshot{
		WallSeconds: now.Sub(r.start).Seconds(),
		Counters:    make(map[string]int64),
		Histograms:  make(map[string]stats.Summary),
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h
	}
	root := r.root
	r.mu.Unlock()

	for name, c := range counters {
		snap.Counters[name] = c.Value()
	}
	for name, h := range hists {
		if sum, err := h.Summary(); err == nil {
			snap.Histograms[name] = sum
		}
	}
	snap.Gauges = r.gaugeSnapshot()
	snap.Trace = snapshotChildren(root, now)
	return snap
}

func snapshotChildren(s *Span, now time.Time) []SpanSnapshot {
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	out := make([]SpanSnapshot, 0, len(children))
	for _, c := range children {
		out = append(out, snapshotSpan(c, now))
	}
	return out
}

func snapshotSpan(s *Span, now time.Time) SpanSnapshot {
	s.mu.Lock()
	end := s.end
	if end.IsZero() {
		end = now
	}
	ss := SpanSnapshot{
		Name:    s.name,
		Seconds: end.Sub(s.start).Seconds(),
	}
	if len(s.counters) > 0 {
		ss.Counters = make(map[string]int64, len(s.counters))
		for k, v := range s.counters {
			ss.Counters[k] = v
		}
	}
	if len(s.values) > 0 {
		ss.Values = make(map[string]float64, len(s.values))
		for k, v := range s.values {
			ss.Values[k] = v
		}
	}
	if len(s.tags) > 0 {
		ss.Tags = make(map[string]string, len(s.tags))
		for k, v := range s.tags {
			ss.Tags[k] = v
		}
	}
	s.mu.Unlock()
	ss.Children = snapshotChildren(s, now)
	return ss
}

// WriteJSON writes the Snapshot as indented JSON.
func (r *Recorder) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(r.Snapshot(), "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// TraceTree renders the span tree as an indented human-readable listing,
// one line per span with its duration, counters and values.
func (r *Recorder) TraceTree() string { return r.Snapshot().TraceTree() }

// TraceTree renders the snapshot's span tree.
func (s Snapshot) TraceTree() string {
	var b strings.Builder
	for _, sp := range s.Trace {
		renderSpan(&b, sp, 0)
	}
	return b.String()
}

func renderSpan(b *strings.Builder, s SpanSnapshot, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	fmt.Fprintf(b, "%s  [%.3fms]", s.Name, s.Seconds*1e3)
	for _, k := range sortedKeys(s.Counters) {
		fmt.Fprintf(b, "  %s=%d", k, s.Counters[k])
	}
	for _, k := range sortedKeys(s.Values) {
		fmt.Fprintf(b, "  %s=%.6g", k, s.Values[k])
	}
	for _, k := range sortedKeys(s.Tags) {
		fmt.Fprintf(b, "  %s=%q", k, s.Tags[k])
	}
	b.WriteByte('\n')
	for _, c := range s.Children {
		renderSpan(b, c, depth+1)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// CounterTable renders the snapshot's counters as aligned "name value"
// lines in sorted order — the per-experiment summary mpss-bench prints.
func (s Snapshot) CounterTable() string {
	keys := sortedKeys(s.Counters)
	width := 0
	for _, k := range keys {
		if len(k) > width {
			width = len(k)
		}
	}
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %-*s %d\n", width, k, s.Counters[k])
	}
	return b.String()
}

// Merge combines two snapshots: counters are summed, histogram summaries
// are pooled with stats.Merge, and the trace trees are concatenated.
// Used to aggregate per-experiment metrics into a suite total.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{
		WallSeconds: s.WallSeconds + o.WallSeconds,
		Counters:    make(map[string]int64, len(s.Counters)+len(o.Counters)),
		Histograms:  make(map[string]stats.Summary, len(s.Histograms)+len(o.Histograms)),
	}
	for k, v := range s.Counters {
		out.Counters[k] += v
	}
	for k, v := range o.Counters {
		out.Counters[k] += v
	}
	// Gauges are levels; merging sums them (e.g. per-worker queue depths
	// aggregate to the pool total).
	if len(s.Gauges)+len(o.Gauges) > 0 {
		out.Gauges = make(map[string]float64, len(s.Gauges)+len(o.Gauges))
		for k, v := range s.Gauges {
			out.Gauges[k] += v
		}
		for k, v := range o.Gauges {
			out.Gauges[k] += v
		}
	}
	for k, v := range s.Histograms {
		out.Histograms[k] = v
	}
	for k, v := range o.Histograms {
		out.Histograms[k] = stats.Merge(out.Histograms[k], v)
	}
	out.Trace = append(append([]SpanSnapshot(nil), s.Trace...), o.Trace...)
	return out
}
