// Package schedule represents multi-processor variable-speed schedules and
// verifies the feasibility invariants of the speed-scaling model:
//
//   - every job runs only inside its [release, deadline) window,
//   - a processor runs at most one job at a time,
//   - a job never runs on two processors simultaneously (migration is
//     allowed, parallel self-execution is not),
//   - every job completes exactly its processing volume.
//
// Schedules are piecewise-constant: a Segment pins one job to one
// processor at one speed over a half-open time window. Lemmas 1 and 2 of
// the paper guarantee optimal schedules of this shape exist.
package schedule

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"mpss/internal/job"
	"mpss/internal/power"
)

// DefaultTolerance is the absolute tolerance used by Verify for time and
// work comparisons unless overridden.
const DefaultTolerance = 1e-6

// Segment is a maximal run of one job on one processor at constant speed.
type Segment struct {
	Proc  int     `json:"proc"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	JobID int     `json:"job"`
	Speed float64 `json:"speed"`
}

// Work returns the processing volume completed by the segment.
func (s Segment) Work() float64 { return s.Speed * (s.End - s.Start) }

// Len returns the segment duration.
func (s Segment) Len() float64 { return s.End - s.Start }

// String renders the segment compactly for logs and error messages.
func (s Segment) String() string {
	return fmt.Sprintf("P%d[%g,%g) J%d @%g", s.Proc, s.Start, s.End, s.JobID, s.Speed)
}

// Schedule is a set of segments over M processors.
type Schedule struct {
	M        int       `json:"m"`
	Segments []Segment `json:"segments"`
}

// New returns an empty schedule over m processors.
func New(m int) *Schedule {
	return &Schedule{M: m}
}

// Add appends a segment, dropping zero-or-negative-length or zero-speed
// segments silently (they carry no work).
func (s *Schedule) Add(seg Segment) {
	if seg.End-seg.Start <= 0 || seg.Speed <= 0 {
		return
	}
	s.Segments = append(s.Segments, seg)
}

// Extend appends all segments of other into s.
func (s *Schedule) Extend(other *Schedule) {
	s.Segments = append(s.Segments, other.Segments...)
}

// Normalize sorts segments by (processor, start, end) and merges abutting
// segments of the same job and speed on the same processor.
func (s *Schedule) Normalize() {
	slices.SortFunc(s.Segments, CompareSegments)
	merged := s.Segments[:0]
	for _, seg := range s.Segments {
		if n := len(merged); n > 0 {
			last := &merged[n-1]
			if last.Proc == seg.Proc && last.JobID == seg.JobID &&
				math.Abs(last.End-seg.Start) < 1e-12 &&
				math.Abs(last.Speed-seg.Speed) < 1e-12 {
				last.End = seg.End
				continue
			}
		}
		merged = append(merged, seg)
	}
	s.Segments = merged
}

// CompareSegments is Normalize's order: by (processor, start, end). It
// is negative exactly when the less function Normalize used with
// sort.Slice reported true, ties and NaNs included; sort.Slice and
// slices.SortFunc run the same pdqsort and consult only that sign, so the
// sorted permutation is unchanged. A caller that hands Normalize
// segments strictly increasing in this order gets them back in that
// order: input without ties has exactly one sorted order.
func CompareSegments(x, y Segment) int {
	if x.Proc != y.Proc {
		return cmp.Compare(x.Proc, y.Proc)
	}
	if x.Start != y.Start {
		return floatOrder(x.Start, y.Start)
	}
	return floatOrder(x.End, y.End)
}

// floatOrder is -1 when a < b, +1 when a > b and 0 otherwise (equal, or
// either is NaN).
func floatOrder(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// Energy returns the total energy of the schedule under power function p.
// Idle time contributes nothing (P(0) = 0 by the model).
func (s *Schedule) Energy(p power.Function) float64 {
	var e float64
	for _, seg := range s.Segments {
		e += p.Energy(seg.Speed, seg.Len())
	}
	return e
}

// WorkByJob returns the processing volume completed per job ID.
func (s *Schedule) WorkByJob() map[int]float64 {
	out := make(map[int]float64)
	for _, seg := range s.Segments {
		out[seg.JobID] += seg.Work()
	}
	return out
}

// CompletedWork returns the volume of the given job finished in [from, to),
// clipping segments to the window. The online simulator uses it to deplete
// remaining volumes between planning events.
func (s *Schedule) CompletedWork(jobID int, from, to float64) float64 {
	var w float64
	for _, seg := range s.Segments {
		if seg.JobID != jobID {
			continue
		}
		lo := math.Max(seg.Start, from)
		hi := math.Min(seg.End, to)
		if hi > lo {
			w += seg.Speed * (hi - lo)
		}
	}
	return w
}

// JobSpeeds returns, for each job ID, the sorted distinct speeds at which
// the job runs, clustering speeds within tol of each other.
func (s *Schedule) JobSpeeds(tol float64) map[int][]float64 {
	bySpeed := make(map[int][]float64)
	for _, seg := range s.Segments {
		bySpeed[seg.JobID] = append(bySpeed[seg.JobID], seg.Speed)
	}
	for id, speeds := range bySpeed {
		bySpeed[id] = clusterSpeeds(speeds, tol)
	}
	return bySpeed
}

// DistinctSpeeds returns the sorted (descending) distinct speeds used in
// the schedule, clustering within tol. Lemma 1 implies an optimal schedule
// has at most n distinct speeds.
func (s *Schedule) DistinctSpeeds(tol float64) []float64 {
	speeds := make([]float64, 0, len(s.Segments))
	for _, seg := range s.Segments {
		speeds = append(speeds, seg.Speed)
	}
	out := clusterSpeeds(speeds, tol)
	sort.Sort(sort.Reverse(sort.Float64Slice(out)))
	return out
}

func clusterSpeeds(speeds []float64, tol float64) []float64 {
	if len(speeds) == 0 {
		return nil
	}
	sort.Float64s(speeds)
	out := []float64{speeds[0]}
	for _, v := range speeds[1:] {
		if v-out[len(out)-1] > tol {
			out = append(out, v)
		}
	}
	return out
}

// SpeedsAt returns the speed of each processor at time t (0 when idle).
func (s *Schedule) SpeedsAt(t float64) []float64 {
	out := make([]float64, s.M)
	for _, seg := range s.Segments {
		if seg.Start <= t && t < seg.End {
			out[seg.Proc] = seg.Speed
		}
	}
	return out
}

// MinSpeedAt returns the minimum processor speed at time t, counting idle
// processors as speed 0.
func (s *Schedule) MinSpeedAt(t float64) float64 {
	speeds := s.SpeedsAt(t)
	mn := math.Inf(1)
	for _, v := range speeds {
		mn = math.Min(mn, v)
	}
	return mn
}

// Span returns the earliest segment start and latest segment end, or
// (0, 0) for an empty schedule.
func (s *Schedule) Span() (start, end float64) {
	if len(s.Segments) == 0 {
		return 0, 0
	}
	start, end = math.Inf(1), math.Inf(-1)
	for _, seg := range s.Segments {
		start = math.Min(start, seg.Start)
		end = math.Max(end, seg.End)
	}
	return start, end
}

// Clip returns a copy of the schedule restricted to [from, to).
func (s *Schedule) Clip(from, to float64) *Schedule {
	out := New(s.M)
	for _, seg := range s.Segments {
		lo := math.Max(seg.Start, from)
		hi := math.Min(seg.End, to)
		if hi > lo {
			out.Add(Segment{Proc: seg.Proc, Start: lo, End: hi, JobID: seg.JobID, Speed: seg.Speed})
		}
	}
	return out
}

// VerifyOption adjusts feasibility checking.
type VerifyOption func(*verifyConfig)

type verifyConfig struct {
	tol         float64
	partialWork bool
}

// WithTolerance sets the absolute tolerance for time and work comparisons.
func WithTolerance(tol float64) VerifyOption {
	return func(c *verifyConfig) { c.tol = tol }
}

// AllowPartialWork skips the "every job completes exactly its volume"
// check; overlap and window checks still apply. Used for clipped prefixes
// of online schedules.
func AllowPartialWork() VerifyOption {
	return func(c *verifyConfig) { c.partialWork = true }
}

// Verify checks the schedule against the instance and returns the first
// violated invariant, or nil when the schedule is feasible.
func (s *Schedule) Verify(in *job.Instance, opts ...VerifyOption) error {
	cfg := verifyConfig{tol: DefaultTolerance}
	for _, o := range opts {
		o(&cfg)
	}
	tol := cfg.tol

	if s.M != in.M {
		return fmt.Errorf("schedule: schedule has m=%d, instance m=%d", s.M, in.M)
	}

	// One lookup per call, keeping the first of any duplicate IDs as
	// Instance.ByID does.
	jobs := make(map[int]job.Job, len(in.Jobs))
	for _, j := range in.Jobs {
		if _, dup := jobs[j.ID]; !dup {
			jobs[j.ID] = j
		}
	}
	byProc := make([][]Segment, s.M)
	byJob := make(map[int][]Segment)
	for _, seg := range s.Segments {
		if seg.Proc < 0 || seg.Proc >= s.M {
			return fmt.Errorf("schedule: segment %v uses processor outside [0,%d)", seg, s.M)
		}
		if seg.End <= seg.Start {
			return fmt.Errorf("schedule: segment %v has non-positive length", seg)
		}
		if seg.Speed <= 0 || math.IsNaN(seg.Speed) || math.IsInf(seg.Speed, 0) {
			return fmt.Errorf("schedule: segment %v has invalid speed", seg)
		}
		j, ok := jobs[seg.JobID]
		if !ok {
			return fmt.Errorf("schedule: segment %v references unknown job", seg)
		}
		if seg.Start < j.Release-tol || seg.End > j.Deadline+tol {
			return fmt.Errorf("schedule: segment %v escapes window [%g,%g)", seg, j.Release, j.Deadline)
		}
		byProc[seg.Proc] = append(byProc[seg.Proc], seg)
		byJob[seg.JobID] = append(byJob[seg.JobID], seg)
	}

	// No processor runs two segments at once.
	for p, segs := range byProc {
		sort.Slice(segs, func(a, b int) bool { return segs[a].Start < segs[b].Start })
		for i := 1; i < len(segs); i++ {
			if segs[i].Start < segs[i-1].End-tol {
				return fmt.Errorf("schedule: processor %d overlap between %v and %v", p, segs[i-1], segs[i])
			}
		}
	}

	// No job runs on two processors at once.
	for id, segs := range byJob {
		sort.Slice(segs, func(a, b int) bool { return segs[a].Start < segs[b].Start })
		for i := 1; i < len(segs); i++ {
			if segs[i].Start < segs[i-1].End-tol {
				return fmt.Errorf("schedule: job %d runs in parallel: %v and %v", id, segs[i-1], segs[i])
			}
		}
	}

	// Every job finishes its volume.
	if !cfg.partialWork {
		done := s.WorkByJob()
		for _, j := range in.Jobs {
			got := done[j.ID]
			// Work comparisons scale with the job volume.
			if math.Abs(got-j.Work) > tol*(1+j.Work) {
				return fmt.Errorf("schedule: job %d completed %g of %g work", j.ID, got, j.Work)
			}
		}
	}
	return nil
}

// Piece is one job's execution demand inside a single event interval:
// run for Duration time units at Speed.
type Piece struct {
	JobID    int
	Duration float64
	Speed    float64
}

// WrapAround packs the pieces into the interval [start, end) on the given
// processors using McNaughton's wrap-around rule: pieces are laid out on a
// virtual timeline of length len(procs)*(end-start) and split at processor
// boundaries. Because every piece duration is at most the interval length,
// the two halves of a split piece (end of processor mu, start of mu+1)
// never overlap in real time, so the job is not executed in parallel.
//
// The segments are appended to dst, in packing order, and the extended
// slice is returned. Segments Schedule.Add would drop (End-Start <= 0 or
// Speed <= 0) are left out, so dst may be a schedule's Segments. On error
// dst is returned at its original length.
//
// The total duration must not exceed the available capacity; pieces must
// individually fit in the interval.
func WrapAround(dst []Segment, start, end float64, procs []int, pieces []Piece) ([]Segment, error) {
	length := end - start
	if length <= 0 {
		return dst, fmt.Errorf("schedule: empty interval [%g,%g)", start, end)
	}
	var total float64
	for _, p := range pieces {
		if p.Duration < 0 {
			return dst, fmt.Errorf("schedule: negative duration for job %d", p.JobID)
		}
		if p.Duration > length*(1+1e-9)+1e-12 {
			return dst, fmt.Errorf("schedule: piece of job %d (%g) exceeds interval length %g", p.JobID, p.Duration, length)
		}
		total += p.Duration
	}
	if total > float64(len(procs))*length*(1+1e-9)+1e-12 {
		return dst, fmt.Errorf("schedule: pieces (%g) exceed capacity %g", total, float64(len(procs))*length)
	}

	n0 := len(dst)
	const eps = 1e-12
	proc := 0
	pos := 0.0 // offset within the current processor's copy of the interval
	emit := func(jobID int, dur, speed float64) {
		if dur <= eps {
			return
		}
		seg := Segment{
			Proc:  procs[proc],
			Start: start + pos,
			End:   math.Min(start+pos+dur, end),
			JobID: jobID,
			Speed: speed,
		}
		pos += dur
		if seg.End-seg.Start > 0 && seg.Speed > 0 {
			dst = append(dst, seg)
		}
	}
	for _, p := range pieces {
		remaining := p.Duration
		// Clamp tiny overshoot from floating-point accumulation.
		if remaining > length {
			remaining = length
		}
		room := length - pos
		if remaining > room+eps {
			// Split at the processor boundary.
			emit(p.JobID, room, p.Speed)
			remaining -= room
			if proc+1 >= len(procs) {
				return dst[:n0], fmt.Errorf("schedule: ran out of processors packing job %d", p.JobID)
			}
			proc++
			pos = 0
		}
		emit(p.JobID, remaining, p.Speed)
		if pos >= length-eps {
			// Advance to the next processor exactly at the boundary.
			if proc+1 < len(procs) {
				proc++
			}
			pos = 0
		}
	}
	return dst, nil
}

// Gantt renders an ASCII chart of the schedule, one row per processor,
// with the given number of character columns across the time span.
// Intended for examples and debugging, not for parsing.
func (s *Schedule) Gantt(cols int) string {
	if len(s.Segments) == 0 {
		return "(empty schedule)\n"
	}
	if cols < 10 {
		cols = 10
	}
	start, end := s.Span()
	scale := float64(cols) / (end - start)
	var b strings.Builder
	fmt.Fprintf(&b, "time %g .. %g (one column = %.3g)\n", start, end, 1/scale)
	for p := 0; p < s.M; p++ {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, seg := range s.Segments {
			if seg.Proc != p {
				continue
			}
			lo := int(math.Floor((seg.Start - start) * scale))
			hi := int(math.Ceil((seg.End - start) * scale))
			if hi > cols {
				hi = cols
			}
			ch := byte('0' + seg.JobID%10)
			for i := lo; i < hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(&b, "P%-2d |%s|\n", p, row)
	}
	return b.String()
}
