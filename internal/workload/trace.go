// Cluster-trace-shaped workload: diurnal arrival waves, heavy-tailed
// work volumes, job classes with distinct deadline tightness. This is
// the generator behind the datacenter-scale experiments: it emits jobs
// one at a time in release order (GenerateTrace), so a 10M-job trace
// streams straight to disk, and its waves are separable by construction
// — every window opened inside a wave closes before the next wave
// starts — so the windowed decomposition cuts the trace into components
// of roughly wave size no matter how long it runs.
package workload

import (
	"math"
	"math/rand"
	"sort"

	"mpss/internal/job"
)

// traceJobsPerWave is the target component size: each diurnal wave holds
// about this many jobs, so the solve cost is governed by this constant
// rather than the trace length.
const traceJobsPerWave = 64

// Job-class mix of the trace, modelled on the interactive/service/batch
// split of public cluster traces: most jobs are small and urgent, a
// heavy tail of batch work carries most of the volume.
type traceClass struct {
	weight  float64 // fraction of jobs
	window  float64 // max window length as a fraction of the wave period
	xm      float64 // Pareto scale (minimum work)
	alpha   float64 // Pareto shape (smaller = heavier tail)
	workCap float64 // truncation, in multiples of xm
}

var traceClasses = []traceClass{
	{weight: 0.60, window: 0.06, xm: 0.05, alpha: 2.2, workCap: 20},  // interactive
	{weight: 0.30, window: 0.18, xm: 0.25, alpha: 2.0, workCap: 40},  // service
	{weight: 0.10, window: 0.28, xm: 1.00, alpha: 1.5, workCap: 100}, // batch
}

// traceDuty is the fraction of each wave period during which jobs
// arrive. Arrivals stop at duty*T and the widest window is 0.28*T, so
// every window closes by (duty+0.28)*T < T: waves never overlap and the
// boundary between consecutive waves is always a decomposition cut.
const traceDuty = 0.70

// GenerateTrace emits exactly spec.N diurnal-trace jobs in nondecreasing
// release order through emit, materializing at most one wave (~64 jobs)
// at a time. Job IDs are 1..N. spec.Horizon spans the whole trace; the
// zero default is 100 time units per wave so the wave period stays
// O(100) at any N (a fixed total default would shrink periods toward
// float granularity on million-job traces).
func GenerateTrace(spec Spec, emit func(job.Job) error) error {
	if err := spec.validate(); err != nil {
		return err
	}
	waves := spec.N / traceJobsPerWave
	if waves < 1 {
		waves = 1
	}
	h := spec.Horizon
	if h == 0 {
		h = 100 * float64(waves)
	}
	period := h / float64(waves)
	rng := rand.New(rand.NewSource(spec.Seed))

	// Exact per-wave counts: N/waves each, remainder spread over the
	// first waves. The arrival *times* are random; the counts are pinned
	// so the generator emits exactly N jobs.
	base, rem := spec.N/waves, spec.N%waves
	id := 1
	releases := make([]float64, 0, base+1)
	for w := 0; w < waves; w++ {
		cnt := base
		if w < rem {
			cnt++
		}
		w0 := float64(w) * period
		// Arrival offsets within the wave follow the sin^2 diurnal
		// envelope over the duty window, drawn by rejection against the
		// unit envelope and sorted — a thinned Poisson process
		// conditioned on the wave's job count.
		releases = releases[:0]
		for len(releases) < cnt {
			u := rng.Float64() * traceDuty * period
			if rng.Float64() < sqSin(math.Pi*u/(traceDuty*period)) {
				releases = append(releases, w0+u)
			}
		}
		sort.Float64s(releases)
		for _, r := range releases {
			c := pickClass(rng)
			span := c.window * period * (0.3 + 0.7*rng.Float64())
			work := c.xm * math.Pow(rng.Float64(), -1/c.alpha)
			if work > c.xm*c.workCap {
				work = c.xm * c.workCap
			}
			j := job.Job{ID: id, Release: r, Deadline: r + span, Work: work}
			id++
			if err := emit(j); err != nil {
				return err
			}
		}
	}
	return nil
}

func sqSin(x float64) float64 { s := math.Sin(x); return s * s }

func pickClass(rng *rand.Rand) traceClass {
	u := rng.Float64()
	for _, c := range traceClasses {
		if u < c.weight {
			return c
		}
		u -= c.weight
	}
	return traceClasses[len(traceClasses)-1]
}

// WriteTrace streams a generated trace into sw.
func WriteTrace(sw *StreamWriter, spec Spec) error {
	return GenerateTrace(spec, sw.Write)
}

// Diurnal is the materialized form of GenerateTrace for the generator
// catalogue: cluster-trace arrival waves as an in-memory instance, for
// the test suites and moderate-size sweeps. Large traces should stream
// (GenerateTrace / WriteTrace) instead.
func Diurnal(spec Spec) (*job.Instance, error) {
	jobs := make([]job.Job, 0, spec.N)
	if err := GenerateTrace(spec, func(j job.Job) error {
		jobs = append(jobs, j)
		return nil
	}); err != nil {
		return nil, err
	}
	return job.NewInstance(spec.M, jobs)
}
