package mpss

import (
	"fmt"
	"io"
	"sync"

	"mpss/internal/job"
	"mpss/internal/opt"
	"mpss/internal/workload"
)

// TraceWriter streams a job trace in the mpss-trace-v1 JSONL format: a
// header line carrying the processor count, then one job per line in
// nondecreasing release order. See internal/workload/stream.go for the
// format specification.
type TraceWriter = workload.StreamWriter

// TraceReader reads an mpss-trace-v1 job trace one job at a time.
type TraceReader = workload.StreamReader

// NewTraceWriter writes the trace header for m processors and returns a
// writer for the job lines; call Flush when done.
func NewTraceWriter(w io.Writer, m int) (*TraceWriter, error) {
	return workload.NewStreamWriter(w, m)
}

// NewTraceReader parses the trace header and returns a reader positioned
// at the first job.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	return workload.NewStreamReader(r)
}

// IsTraceStream reports whether data (a prefix suffices) begins with an
// mpss-trace-v1 header; tools use it to tell a streamed trace from the
// in-memory instance JSON.
func IsTraceStream(data []byte) bool { return workload.IsStream(data) }

// GenerateTrace streams exactly spec.N cluster-trace-shaped jobs
// (diurnal arrival waves, Pareto work volumes, mixed job classes) into
// w in release order, materializing only one wave (~64 jobs) at a time.
// The same process materialized is the "diurnal" workload generator.
func GenerateTrace(w *TraceWriter, spec WorkloadSpec) error {
	return workload.WriteTrace(w, spec)
}

// TraceSolveSummary is the outcome of a streamed trace solve. The full
// schedule of a million-job trace is itself millions of segments, so the
// streaming path reports this fixed-size summary instead of retaining
// the segments.
type TraceSolveSummary struct {
	Jobs             int     // jobs read from the trace
	M                int     // processors, from the trace header
	Components       int     // independent components cut and solved
	MaxComponentJobs int     // size of the largest component
	Phases           int     // total phases across all components
	Rounds           int     // total flow-checked rounds
	Energy           float64 // total energy under the given power function
}

// SolveTraceStream reads an mpss-trace-v1 trace and computes its optimal
// schedule's phase counts and total energy under p, cutting independent
// components at zero-active boundaries as the reader crosses them and
// dispatching each component to a worker as soon as it is complete — a
// separable trace is never materialized in full, so memory is bounded by
// the largest component (times the worker count), not the trace length.
// Energy is summed in component order, so the result is deterministic at
// any WithParallelism setting. Each component is one Schedule call, so
// the exact fallback applies per component. The phases and energy are
// those of OptimalSchedule of the whole trace, which splits it at the
// same boundaries.
func SolveTraceStream(r io.Reader, p PowerFunction, opts ...SolveOption) (*TraceSolveSummary, error) {
	cfg := buildSolveConfig(opts)
	sr, err := workload.NewStreamReader(r)
	if err != nil {
		return nil, err
	}

	workers := cfg.par
	if workers < 1 {
		workers = 1
	}
	sum := &TraceSolveSummary{M: sr.M()}

	type comp struct {
		idx  int
		jobs []job.Job
	}
	type compStats struct {
		phases, rounds int
		energy         float64
	}
	compCh := make(chan comp, workers)
	errCh := make(chan error, workers)
	var mu sync.Mutex
	var stats []compStats // indexed by component; summaries only, O(components) memory
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range compCh {
				res, err := opt.Schedule(&job.Instance{M: sum.M, Jobs: c.jobs},
					opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
				if err != nil {
					select {
					case errCh <- fmt.Errorf("mpss: trace component %d (%d jobs): %w", c.idx, len(c.jobs), err):
					default:
					}
					return
				}
				cs := compStats{phases: res.Stats.Phases, rounds: res.Stats.Rounds, energy: res.Schedule.Energy(p)}
				mu.Lock()
				for len(stats) <= c.idx {
					stats = append(stats, compStats{})
				}
				stats[c.idx] = cs
				mu.Unlock()
			}
		}()
	}

	// Cut components as the reader advances (componentSpan): the moment
	// a release reaches the maximum deadline seen, the buffered jobs form
	// a finished component.
	dispatch := func(c comp) error {
		select {
		case compCh <- c:
			return nil
		case err := <-errCh:
			return err
		}
	}
	var (
		buf     []job.Job
		cur     componentSpan
		readErr error
	)
	for {
		j, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			readErr = err
			break
		}
		if cur.add(j) {
			if err := dispatch(comp{idx: sum.Components, jobs: buf}); err != nil {
				readErr = err
				break
			}
			sum.Components++
			buf = nil
		}
		buf = append(buf, j)
		sum.Jobs++
		if len(buf) > sum.MaxComponentJobs {
			sum.MaxComponentJobs = len(buf)
		}
	}
	if readErr == nil && len(buf) > 0 {
		if err := dispatch(comp{idx: sum.Components, jobs: buf}); err != nil {
			readErr = err
		} else {
			sum.Components++
		}
	}
	close(compCh)
	wg.Wait()
	if readErr == nil {
		select {
		case readErr = <-errCh:
		default:
		}
	}
	if readErr != nil {
		return nil, readErr
	}
	if sum.Jobs == 0 {
		return nil, fmt.Errorf("mpss: empty trace: %w", ErrInvalidInstance)
	}

	cfg.rec.Add("opt.components", int64(sum.Components))
	cfg.rec.Add("opt.decompose_cuts", int64(sum.Components-1))
	cfg.rec.Add("opt.component_jobs_max", int64(sum.MaxComponentJobs))
	for _, cs := range stats {
		sum.Phases += cs.phases
		sum.Rounds += cs.rounds
		sum.Energy += cs.energy
	}
	return sum, nil
}

// componentSpan applies the streaming cut rule to jobs in release
// order: a job whose release reaches the largest deadline seen so far
// starts a new component, because no window of the jobs before it
// crosses that point. It holds the running component's end and job
// count.
type componentSpan struct {
	end float64
	n   int
}

// add extends the running component by j, first closing it when j's
// release reaches its end; cut reports that.
func (c *componentSpan) add(j job.Job) (cut bool) {
	if c.n > 0 && j.Release >= c.end {
		cut = true
		c.n = 0
	}
	if c.n == 0 {
		c.end = j.Deadline
	}
	c.n++
	c.end = max(c.end, j.Deadline)
	return cut
}
