// Package online implements the paper's two online multi-processor
// speed-scaling algorithms and the non-migratory baselines they are
// compared against:
//
//   - OA(m), "Optimal Available" (Section 3.1): at every job arrival,
//     recompute an optimal schedule for the remaining work of all released
//     unfinished jobs using the offline algorithm of internal/opt, and
//     follow it until the next arrival. Theorem 2 proves OA(m) is exactly
//     alpha^alpha-competitive.
//   - AVR(m), "Average Rate" (Section 3.2): in every event interval,
//     repeatedly peel off jobs whose density exceeds the average density
//     per remaining processor onto dedicated processors, then schedule the
//     rest at the uniform average speed by wrap-around. Theorem 3 proves a
//     competitive ratio of (2 alpha)^alpha / 2 + 1.
//   - Non-migratory baselines (after reference [8]): assign each job to a
//     processor (randomly, round-robin, or least-loaded) and run the
//     single-processor YDS optimum per processor.
//
// The paper states AVR(m) for integer release times and deadlines with
// unit intervals; this implementation works on the event-interval
// partition instead, which is equivalent (densities are constant between
// events, and the wrap-around feasibility argument carries over verbatim
// because every pooled job's share delta_i/s <= 1 of the interval).
package online

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
	"mpss/internal/opt"
	"mpss/internal/schedule"
	"mpss/internal/yds"
)

// Option configures the online simulators.
type Option func(*config)

type config struct {
	rec *obs.Recorder
	ctx context.Context
}

// WithRecorder attaches an observability recorder: OA(m) and AVR(m)
// record per-event spans (arrivals, live jobs, replanning phase
// structure) and whole-run counters (arrivals processed, speed
// recomputations, preemptions, migrations) into it. A nil recorder is
// the no-op default.
func WithRecorder(r *obs.Recorder) Option {
	return func(c *config) { c.rec = r }
}

// WithContext makes the simulation cancelable: OA polls ctx at every
// arrival event (each event is one offline replan, the expensive
// quantum, and the replan itself inherits ctx), AVR at every event
// interval. A canceled context surfaces as an error wrapping
// mpsserr.ErrCanceled. Nil disables the checks (the default). A span
// the context carries (obs.ContextWithSpan) is the run span's parent.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// canceledAt converts a non-nil ctx error into the typed error.
func canceledAt(ctx context.Context, alg string, t float64) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("online: %s canceled at t=%g: %v: %w", alg, t, err, mpsserr.ErrCanceled)
	}
	return nil
}

func buildConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// parent is the span a run's span nests under: the one WithContext's
// context carries (obs.ContextWithSpan), else the recorder's root.
func (c config) parent() *obs.Span {
	if s := obs.SpanFromContext(c.ctx); s != nil {
		return s
	}
	return c.rec.Root()
}

// publishRunMetrics folds the executed schedule's descriptive metrics
// into the run span and the recorder's prefixed counters. It normalizes
// the schedule (ComputeMetrics does) — callers already normalize anyway.
func publishRunMetrics(rec *obs.Recorder, run *obs.Span, prefix string, s *schedule.Schedule) {
	if !rec.Enabled() {
		return
	}
	m := s.ComputeMetrics()
	rec.Add(prefix+".migrations", int64(m.Migrations))
	rec.Add(prefix+".preemptions", int64(m.Preemptions))
	rec.Add(prefix+".segments", int64(m.Segments))
	run.Add("migrations", int64(m.Migrations))
	run.Add("preemptions", int64(m.Preemptions))
	run.SetValue("max_speed", m.MaxSpeed)
	run.SetValue("utilization", m.Utilization)
}

// OAEvent records one replanning step of OA(m): the arrival time, the jobs
// that were live, and the plan the algorithm will follow from here.
type OAEvent struct {
	Time      float64
	Plan      *schedule.Schedule // optimal plan for the remaining work
	JobSpeeds map[int]float64    // constant speed per live job in Plan
	Remaining map[int]float64    // remaining volume per live job at Time
}

// OAResult is the executed OA(m) schedule plus the replanning trace used
// by the Lemma 7/8 monotonicity experiments.
type OAResult struct {
	Schedule *schedule.Schedule
	Events   []OAEvent
	Replans  int
}

// OA runs Optimal Available on m parallel processors.
func OA(in *job.Instance, opts ...Option) (*OAResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	rec := cfg.rec
	run := cfg.parent().StartSpan("OA")
	// Event times: distinct release times, ascending.
	releases := make([]float64, 0, in.N())
	for _, j := range in.Jobs {
		releases = append(releases, j.Release)
	}
	sort.Float64s(releases)
	events := releases[:1]
	for _, t := range releases[1:] {
		if t != events[len(events)-1] {
			events = append(events, t)
		}
	}

	remaining := make(map[int]float64, in.N())
	for _, j := range in.Jobs {
		remaining[j.ID] = j.Work
	}

	res := &OAResult{Schedule: schedule.New(in.M)}
	_, horizon := in.Horizon()

	for ei, t0 := range events {
		if cerr := canceledAt(cfg.ctx, "OA", t0); cerr != nil {
			rec.Add("oa.canceled", 1)
			return nil, cerr
		}
		// Live jobs: released, unfinished, deadline not passed.
		var live []job.Job
		for _, j := range in.Jobs {
			rem := remaining[j.ID]
			if j.Release <= t0 && rem > 1e-9*(1+j.Work) && j.Deadline > t0 {
				live = append(live, job.Job{
					ID:       j.ID,
					Release:  t0,
					Deadline: j.Deadline,
					Work:     rem,
				})
			}
		}
		if len(live) == 0 {
			continue
		}
		ev := run.StartSpan(fmt.Sprintf("arrival t=%g", t0))
		ev.Add("live_jobs", int64(len(live)))
		rec.Add("oa.arrivals", 1)
		sub, err := job.NewInstance(in.M, live)
		if err != nil {
			return nil, fmt.Errorf("online: OA replan at %g: %w", t0, err)
		}
		plan, err := opt.Schedule(sub, opt.WithRecorder(rec), opt.UnderSpan(ev), opt.WithContext(cfg.ctx))
		if err != nil {
			return nil, fmt.Errorf("online: OA replan at %g: %w", t0, err)
		}
		res.Replans++
		rec.Add("oa.replans", 1)
		rec.Add("oa.speed_recomputations", 1)

		speeds := make(map[int]float64, len(live))
		for _, ph := range plan.Phases {
			for _, id := range ph.JobIDs {
				speeds[id] = ph.Speed
			}
		}
		rem := make(map[int]float64, len(live))
		for _, j := range live {
			rem[j.ID] = j.Work
		}
		res.Events = append(res.Events, OAEvent{
			Time:      t0,
			Plan:      plan.Schedule,
			JobSpeeds: speeds,
			Remaining: rem,
		})

		// Execute the plan until the next arrival (or to the end).
		until := horizon
		if ei+1 < len(events) {
			until = events[ei+1]
		}
		executed := plan.Schedule.Clip(t0, until)
		for _, seg := range executed.Segments {
			res.Schedule.Add(seg)
		}
		for id := range remaining {
			if done := executed.CompletedWork(id, t0, until); done > 0 {
				remaining[id] = math.Max(0, remaining[id]-done)
			}
		}
		if rec.Enabled() {
			// Highest planned speed at this event: the first phase of the
			// replanned optimum carries the critical speed.
			var maxSpeed float64
			for _, s := range speeds {
				maxSpeed = math.Max(maxSpeed, s)
			}
			ev.SetValue("max_speed", maxSpeed)
			ev.Add("executed_segments", int64(len(executed.Segments)))
		}
		ev.End()
	}

	res.Schedule.Normalize()
	run.Add("arrivals", int64(len(res.Events)))
	publishRunMetrics(rec, run, "oa", res.Schedule)
	run.End()
	return res, nil
}

// AVRLevel records the density split AVR(m) chose in one event interval:
// which jobs got a dedicated processor and the uniform speed of the pool.
type AVRLevel struct {
	Interval  job.Interval
	Dedicated []int   // job IDs peeled onto their own processor
	PoolSpeed float64 // uniform speed of the remaining jobs (0 if none)
}

// AVRResult is the AVR(m) schedule plus its per-interval level structure.
type AVRResult struct {
	Schedule *schedule.Schedule
	Levels   []AVRLevel
}

// AVR runs Average Rate on m parallel processors.
func AVR(in *job.Instance, opts ...Option) (*AVRResult, error) {
	if err := in.Validate(); err != nil {
		return nil, err
	}
	cfg := buildConfig(opts)
	rec := cfg.rec
	run := cfg.parent().StartSpan("AVR")
	ivs := job.Partition(in.Jobs)
	res := &AVRResult{Schedule: schedule.New(in.M)}

	for _, iv := range ivs {
		if cerr := canceledAt(cfg.ctx, "AVR", iv.Start); cerr != nil {
			rec.Add("avr.canceled", 1)
			return nil, cerr
		}
		var active []job.Job
		for _, j := range in.Jobs {
			if j.ActiveIn(iv.Start, iv.End) {
				active = append(active, j)
			}
		}
		if len(active) == 0 {
			continue
		}
		ev := run.StartSpan(fmt.Sprintf("interval [%g,%g)", iv.Start, iv.End))
		ev.Add("active_jobs", int64(len(active)))
		rec.Add("avr.intervals", 1)
		rec.Add("avr.speed_recomputations", 1)
		// Highest density first so the peel loop is a prefix scan.
		sort.Slice(active, func(a, b int) bool {
			da, db := active[a].Density(), active[b].Density()
			if da != db {
				return da > db
			}
			return active[a].ID < active[b].ID
		})
		var totalDensity float64
		for _, j := range active {
			totalDensity += j.Density()
		}

		level := AVRLevel{Interval: iv}
		m := in.M
		rest := totalDensity
		idx := 0
		proc := 0
		for idx < len(active) && m > 0 && active[idx].Density() > rest/float64(m)+1e-15 {
			d := active[idx].Density()
			res.Schedule.Add(schedule.Segment{
				Proc:  proc,
				Start: iv.Start,
				End:   iv.End,
				JobID: active[idx].ID,
				Speed: d,
			})
			level.Dedicated = append(level.Dedicated, active[idx].ID)
			rest -= d
			m--
			proc++
			idx++
		}
		if idx < len(active) {
			if m == 0 {
				return nil, fmt.Errorf("online: AVR ran out of processors in %v (overload: %d active on %d processors): %w", iv, len(active), in.M, mpsserr.ErrInfeasible)
			}
			sPool := rest / float64(m)
			level.PoolSpeed = sPool
			pieces := make([]schedule.Piece, 0, len(active)-idx)
			for _, j := range active[idx:] {
				pieces = append(pieces, schedule.Piece{
					JobID:    j.ID,
					Duration: j.Density() / sPool * iv.Len(),
					Speed:    sPool,
				})
			}
			procs := make([]int, m)
			for i := range procs {
				procs[i] = proc + i
			}
			var err error
			res.Schedule.Segments, err = schedule.WrapAround(res.Schedule.Segments, iv.Start, iv.End, procs, pieces)
			if err != nil {
				// Mathematically every pooled piece fits its interval
				// (density <= pool speed), so a packing failure means the
				// float arithmetic overflowed or lost the margin.
				return nil, fmt.Errorf("online: AVR packing %v: %v: %w", iv, err, mpsserr.ErrNumeric)
			}
		}
		rec.Add("avr.dedicated_jobs", int64(len(level.Dedicated)))
		ev.Add("dedicated_jobs", int64(len(level.Dedicated)))
		ev.Add("pool_jobs", int64(len(active)-len(level.Dedicated)))
		ev.SetValue("pool_speed", level.PoolSpeed)
		ev.End()
		res.Levels = append(res.Levels, level)
	}

	res.Schedule.Normalize()
	run.Add("intervals", int64(len(res.Levels)))
	publishRunMetrics(rec, run, "avr", res.Schedule)
	run.End()
	return res, nil
}

// Assignment maps each job (by index into the instance) to a processor.
type Assignment func(in *job.Instance) []int

// RandomAssignment assigns jobs uniformly at random — the randomized
// strategy of reference [8], whose expected approximation factor is the
// alpha-th Bell number.
func RandomAssignment(seed int64) Assignment {
	return func(in *job.Instance) []int {
		rng := rand.New(rand.NewSource(seed))
		out := make([]int, in.N())
		for i := range out {
			out[i] = rng.Intn(in.M)
		}
		return out
	}
}

// RoundRobinAssignment deals jobs to processors in release order.
func RoundRobinAssignment() Assignment {
	return func(in *job.Instance) []int {
		order := make([]int, in.N())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
			if ja.Release != jb.Release {
				return ja.Release < jb.Release
			}
			return ja.ID < jb.ID
		})
		out := make([]int, in.N())
		for pos, idx := range order {
			out[idx] = pos % in.M
		}
		return out
	}
}

// LeastWorkAssignment greedily sends each job (in release order) to the
// processor with the least total volume assigned so far.
func LeastWorkAssignment() Assignment {
	return func(in *job.Instance) []int {
		order := make([]int, in.N())
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool {
			ja, jb := in.Jobs[order[a]], in.Jobs[order[b]]
			if ja.Release != jb.Release {
				return ja.Release < jb.Release
			}
			return ja.ID < jb.ID
		})
		load := make([]float64, in.M)
		out := make([]int, in.N())
		for _, idx := range order {
			best := 0
			for p := 1; p < in.M; p++ {
				if load[p] < load[best] {
					best = p
				}
			}
			out[idx] = best
			load[best] += in.Jobs[idx].Work
		}
		return out
	}
}

// NonMigratory assigns jobs to processors with the given policy and runs
// the single-processor YDS optimum on each processor — the strongest
// schedule achievable for that fixed assignment.
func NonMigratory(in *job.Instance, assign Assignment) (*schedule.Schedule, error) {
	if assign == nil {
		return nil, errors.New("online: nil assignment")
	}
	procOf := assign(in)
	if len(procOf) != in.N() {
		return nil, fmt.Errorf("online: assignment returned %d entries for %d jobs", len(procOf), in.N())
	}
	byProc := make([][]job.Job, in.M)
	for i, p := range procOf {
		if p < 0 || p >= in.M {
			return nil, fmt.Errorf("online: job %d assigned to processor %d outside [0,%d)", in.Jobs[i].ID, p, in.M)
		}
		byProc[p] = append(byProc[p], in.Jobs[i])
	}
	out := schedule.New(in.M)
	for p, jobs := range byProc {
		if len(jobs) == 0 {
			continue
		}
		r, err := yds.Schedule(jobs)
		if err != nil {
			return nil, fmt.Errorf("online: YDS on processor %d: %w", p, err)
		}
		for _, seg := range r.Schedule.Segments {
			seg.Proc = p
			out.Add(seg)
		}
	}
	out.Normalize()
	return out, nil
}
