package server

// The flight recorder keeps the last N and the N slowest request span
// trees in two bounded rings, so "what just happened" and "what was
// slow" survive long after the requests themselves — without the
// unbounded growth a full trace store would mean for a daemon serving
// millions of requests. GET /v1/debug/traces exposes both rings.

import (
	"sort"
	"sync"
	"time"

	"mpss/internal/obs"
)

// TraceEntry is one recorded request: identity, outcome, timing and the
// span tree the request produced (request → solve → the solver's
// phase spans, with the request ID as a span tag).
type TraceEntry struct {
	RequestID string           `json:"request_id"`
	Endpoint  string           `json:"endpoint"`
	Status    int              `json:"status"`
	Start     time.Time        `json:"start"`
	Seconds   float64          `json:"seconds"`
	Trace     obs.SpanSnapshot `json:"trace"`
}

// TracesResponse is the body of GET /v1/debug/traces.
type TracesResponse struct {
	Total   uint64       `json:"total"`   // requests seen since boot
	Recent  []TraceEntry `json:"recent"`  // most recent first
	Slowest []TraceEntry `json:"slowest"` // slowest first
}

// spanBudget caps the spans of one request's tree. A 64-job solve
// opens about a dozen phase spans; a solve with more phases than the
// budget keeps the first ones and counts the rest on the request span
// as "spans_dropped".
const spanBudget = 256

// flightRecorder is safe for concurrent use.
type flightRecorder struct {
	mu     sync.Mutex
	size   int
	total  uint64
	recent []TraceEntry // ring; next is the oldest slot
	next   int
	slow   []TraceEntry // sorted by Seconds descending, ≤ size entries
}

// startSpan opens a request's span tree on a fresh recorder of its
// own, capped at spanBudget spans: every span the request opens, the
// solver's included, lands in this tree and nowhere else.
func (f *flightRecorder) startSpan(name string) *obs.Span {
	rec := obs.New()
	rec.LimitTrace(spanBudget)
	return rec.StartSpan(name)
}

// record stores one finished request, snapshotting its span tree.
func (f *flightRecorder) record(e TraceEntry, span *obs.Span) {
	rec := span.Recorder()
	if dropped := rec.Value("obs.spans_dropped"); dropped > 0 {
		span.Add("spans_dropped", dropped)
	}
	e.Trace = rec.Snapshot().Trace[0]
	f.mu.Lock()
	defer f.mu.Unlock()
	f.total++
	if len(f.recent) < f.size {
		f.recent = append(f.recent, e)
		f.next = len(f.recent) % f.size
	} else {
		f.recent[f.next] = e
		f.next = (f.next + 1) % f.size
	}
	// Insert into the slowest ring if it qualifies (sorted descending).
	if len(f.slow) < f.size || e.Seconds > f.slow[len(f.slow)-1].Seconds {
		i := sort.Search(len(f.slow), func(i int) bool { return f.slow[i].Seconds < e.Seconds })
		f.slow = append(f.slow, TraceEntry{})
		copy(f.slow[i+1:], f.slow[i:])
		f.slow[i] = e
		if len(f.slow) > f.size {
			f.slow = f.slow[:f.size]
		}
	}
}

// snapshot returns the current rings: recent (most recent first) and
// slowest (slowest first).
func (f *flightRecorder) snapshot() TracesResponse {
	f.mu.Lock()
	defer f.mu.Unlock()
	recent := make([]TraceEntry, 0, len(f.recent))
	for i := 0; i < len(f.recent); i++ {
		// Walk backwards from the newest slot.
		idx := (f.next - 1 - i + 2*len(f.recent)) % len(f.recent)
		recent = append(recent, f.recent[idx])
	}
	return TracesResponse{
		Total:   f.total,
		Recent:  recent,
		Slowest: append([]TraceEntry(nil), f.slow...),
	}
}
