// Package job defines the deadline-based scheduling workload model of the
// speed-scaling framework: jobs with release times, deadlines and
// processing volumes, instances of such jobs, and the event-interval
// partition of the time horizon induced by release times and deadlines.
package job

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"mpss/internal/mpsserr"
)

// Job is one unit of work in the Yao–Demers–Shenker model. The job becomes
// available at Release, must be finished by Deadline, and carries Work
// units of processing volume (CPU cycles). Processing the job at speed s
// takes Work/s time.
type Job struct {
	ID       int     `json:"id"`
	Release  float64 `json:"release"`
	Deadline float64 `json:"deadline"`
	Work     float64 `json:"work"`
}

// Density returns w / (d - r), the minimum average speed required to finish
// the job within its own window. AVR(m) schedules every job at (at least)
// its density.
func (j Job) Density() float64 { return j.Work / (j.Deadline - j.Release) }

// Span returns d - r, the length of the job's feasibility window.
func (j Job) Span() float64 { return j.Deadline - j.Release }

// ActiveIn reports whether the job may be processed throughout [start, end),
// i.e. whether [start, end) is contained in [Release, Deadline).
func (j Job) ActiveIn(start, end float64) bool {
	return j.Release <= start && end <= j.Deadline
}

// ActiveAt reports whether the job may be processed at time t.
func (j Job) ActiveAt(t float64) bool { return j.Release <= t && t < j.Deadline }

// Validate reports an error when the job is malformed: non-finite fields,
// an empty or overflowing window, or non-positive work. All errors wrap
// mpsserr.ErrInvalidInstance.
func (j Job) Validate() error {
	for _, v := range []float64{j.Release, j.Deadline, j.Work} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: job %d: non-finite field", mpsserr.ErrInvalidInstance, j.ID)
		}
	}
	if j.Deadline <= j.Release {
		return fmt.Errorf("%w: job %d: deadline %v <= release %v", mpsserr.ErrInvalidInstance, j.ID, j.Deadline, j.Release)
	}
	if math.IsInf(j.Deadline-j.Release, 0) {
		// Both endpoints finite but the span overflows float64; every
		// downstream span/density computation would be infinite.
		return fmt.Errorf("%w: job %d: window [%v,%v] wider than float64 range", mpsserr.ErrInvalidInstance, j.ID, j.Release, j.Deadline)
	}
	if j.Work <= 0 {
		return fmt.Errorf("%w: job %d: work %v <= 0", mpsserr.ErrInvalidInstance, j.ID, j.Work)
	}
	return nil
}

// String renders the job compactly for logs and error messages.
func (j Job) String() string {
	return fmt.Sprintf("J%d[r=%g d=%g w=%g]", j.ID, j.Release, j.Deadline, j.Work)
}

// Instance is a validated job sequence to be scheduled on m processors.
type Instance struct {
	Jobs []Job `json:"jobs"`
	M    int   `json:"m"`
}

// NewInstance validates the jobs and processor count and returns an
// Instance. Job IDs must be unique; jobs are stored in the given order.
func NewInstance(m int, jobs []Job) (*Instance, error) {
	in := &Instance{Jobs: jobs, M: m}
	if err := in.Validate(); err != nil {
		return nil, err
	}
	return &Instance{Jobs: append([]Job(nil), jobs...), M: m}, nil
}

// Validate checks the instance against the full rejection catalogue: a
// nil or empty instance, m < 1, any malformed job (see Job.Validate) and
// duplicate job IDs. All errors wrap mpsserr.ErrInvalidInstance. The
// solver entry points (internal/opt) call it on every instance they
// solve — including ones built as struct literals that never went
// through NewInstance, and each component of a decomposed or streamed
// solve — so hostile values are rejected before they reach the flow
// arenas.
func (in *Instance) Validate() error {
	if in == nil {
		return fmt.Errorf("%w: nil instance", mpsserr.ErrInvalidInstance)
	}
	if in.M < 1 {
		return fmt.Errorf("%w: need at least one processor, got %d", mpsserr.ErrInvalidInstance, in.M)
	}
	if len(in.Jobs) == 0 {
		return fmt.Errorf("%w: empty instance", mpsserr.ErrInvalidInstance)
	}
	seen := make(map[int]bool, len(in.Jobs))
	for _, j := range in.Jobs {
		if err := j.Validate(); err != nil {
			return err
		}
		if seen[j.ID] {
			return fmt.Errorf("%w: duplicate job ID %d", mpsserr.ErrInvalidInstance, j.ID)
		}
		seen[j.ID] = true
	}
	return nil
}

// N returns the number of jobs.
func (in *Instance) N() int { return len(in.Jobs) }

// TotalWork returns the sum of all processing volumes.
func (in *Instance) TotalWork() float64 {
	var w float64
	for _, j := range in.Jobs {
		w += j.Work
	}
	return w
}

// Horizon returns the earliest release time and the latest deadline.
func (in *Instance) Horizon() (start, end float64) {
	start, end = math.Inf(1), math.Inf(-1)
	for _, j := range in.Jobs {
		start = math.Min(start, j.Release)
		end = math.Max(end, j.Deadline)
	}
	return start, end
}

// ByID returns the job with the given ID and whether it exists.
func (in *Instance) ByID(id int) (Job, bool) {
	for _, j := range in.Jobs {
		if j.ID == id {
			return j, true
		}
	}
	return Job{}, false
}

// MarshalJSON/UnmarshalJSON round-trip instances for the CLI tools.
func (in *Instance) MarshalJSON() ([]byte, error) {
	type alias Instance
	return json.Marshal((*alias)(in))
}

// UnmarshalJSON parses and validates an instance.
func (in *Instance) UnmarshalJSON(data []byte) error {
	type alias Instance
	var a alias
	if err := json.Unmarshal(data, &a); err != nil {
		return err
	}
	v, err := NewInstance(a.M, a.Jobs)
	if err != nil {
		return err
	}
	*in = *v
	return nil
}

// Interval is one event interval I_j = [Start, End) of the partition of
// the time horizon along job release times and deadlines. No release time
// or deadline falls strictly inside an interval, so the set of active jobs
// is constant on it.
type Interval struct {
	Start, End float64
}

// Len returns the interval length End - Start.
func (iv Interval) Len() float64 { return iv.End - iv.Start }

// String renders the interval as [start,end).
func (iv Interval) String() string { return fmt.Sprintf("[%g,%g)", iv.Start, iv.End) }

// Partition computes the event intervals of a set of jobs: the sorted
// distinct release times and deadlines tau_1 < ... < tau_k induce the
// intervals [tau_j, tau_{j+1}). Coincident event times are merged.
func Partition(jobs []Job) []Interval {
	if len(jobs) == 0 {
		return nil
	}
	times := make([]float64, 0, 2*len(jobs))
	for _, j := range jobs {
		times = append(times, j.Release, j.Deadline)
	}
	sort.Float64s(times)
	uniq := times[:1]
	for _, t := range times[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	ivs := make([]Interval, 0, len(uniq)-1)
	for i := 0; i+1 < len(uniq); i++ {
		ivs = append(ivs, Interval{Start: uniq[i], End: uniq[i+1]})
	}
	return ivs
}

// PartitionFrom is Partition restricted to the sub-horizon starting at t0:
// events before t0 are clamped to t0 and empty intervals dropped. OA(m)
// uses it when re-planning the remaining workload at time t0.
func PartitionFrom(jobs []Job, t0 float64) []Interval {
	if len(jobs) == 0 {
		return nil
	}
	times := []float64{t0}
	for _, j := range jobs {
		if j.Release > t0 {
			times = append(times, j.Release)
		}
		if j.Deadline > t0 {
			times = append(times, j.Deadline)
		}
	}
	sort.Float64s(times)
	uniq := times[:1]
	for _, t := range times[1:] {
		if t != uniq[len(uniq)-1] {
			uniq = append(uniq, t)
		}
	}
	ivs := make([]Interval, 0, len(uniq)-1)
	for i := 0; i+1 < len(uniq); i++ {
		ivs = append(ivs, Interval{Start: uniq[i], End: uniq[i+1]})
	}
	return ivs
}

// ActiveJobs returns the indices (into jobs) of the jobs active throughout
// the interval iv.
func ActiveJobs(jobs []Job, iv Interval) []int {
	var out []int
	for i, j := range jobs {
		if j.ActiveIn(iv.Start, iv.End) {
			out = append(out, i)
		}
	}
	return out
}

// ActiveCount returns, for each interval, how many of the jobs are active
// in it.
func ActiveCount(jobs []Job, ivs []Interval) []int {
	counts := make([]int, len(ivs))
	for jx, iv := range ivs {
		for _, j := range jobs {
			if j.ActiveIn(iv.Start, iv.End) {
				counts[jx]++
			}
		}
	}
	return counts
}

// TotalDensity returns the sum of densities of jobs active at time t —
// the speed the single-processor AVR algorithm would use at t.
func TotalDensity(jobs []Job, t float64) float64 {
	var d float64
	for _, j := range jobs {
		if j.ActiveAt(t) {
			d += j.Density()
		}
	}
	return d
}

// SortByDeadline returns a copy of jobs sorted by deadline, then release,
// then ID — the EDF order used by the single-processor online algorithms.
func SortByDeadline(jobs []Job) []Job {
	out := append([]Job(nil), jobs...)
	sort.Slice(out, func(a, b int) bool {
		if out[a].Deadline != out[b].Deadline {
			return out[a].Deadline < out[b].Deadline
		}
		if out[a].Release != out[b].Release {
			return out[a].Release < out[b].Release
		}
		return out[a].ID < out[b].ID
	})
	return out
}
