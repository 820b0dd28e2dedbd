package online

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
	"mpss/internal/opt"
	"mpss/internal/schedule"
)

// Planner is the incremental form of OA(m): the interface an actual
// runtime would drive. Jobs are pushed as they arrive; the planner
// advances simulated time, executes its current optimal plan, and replans
// on every arrival batch, exactly like the batch OA function (the test
// suite checks the two produce identical schedules when fed the same
// arrival sequence).
//
// A Planner is not safe for concurrent use.
type Planner struct {
	m        int
	now      float64
	started  bool
	plan     *schedule.Schedule
	executed *schedule.Schedule
	live     map[int]liveJob
	replans  int
	rec      *obs.Recorder
}

// SetRecorder attaches an observability recorder: arrivals, replans and
// admission-control probes are counted, and each replan's phase
// structure is traced. A nil recorder disables recording.
func (p *Planner) SetRecorder(r *obs.Recorder) { p.rec = r }

type liveJob struct {
	deadline  float64
	work      float64 // original volume (for tolerance scaling)
	remaining float64
}

// NewPlanner returns an empty planner over m processors.
func NewPlanner(m int) (*Planner, error) {
	if m < 1 {
		return nil, fmt.Errorf("online: planner needs m >= 1, got %d: %w", m, mpsserr.ErrInvalidInstance)
	}
	return &Planner{
		m:        m,
		executed: schedule.New(m),
		live:     map[int]liveJob{},
	}, nil
}

// Now returns the planner's current simulated time.
func (p *Planner) Now() float64 { return p.now }

// Replans returns how many optimal schedules have been computed.
func (p *Planner) Replans() int { return p.replans }

// Current returns the plan computed at the last arrival (nil before the
// first arrival). Callers must not mutate it.
func (p *Planner) Current() *schedule.Schedule { return p.plan }

// Executed returns a copy of the schedule executed so far.
func (p *Planner) Executed() *schedule.Schedule {
	out := schedule.New(p.m)
	out.Segments = append(out.Segments, p.executed.Segments...)
	out.Normalize()
	return out
}

// Remaining returns the unfinished volume per live job ID.
func (p *Planner) Remaining() map[int]float64 {
	out := make(map[int]float64, len(p.live))
	for id, lj := range p.live {
		out[id] = lj.remaining
	}
	return out
}

// Arrive advances simulated time to t (executing the current plan on the
// way), admits the newly released jobs, and recomputes the optimal plan
// for all unfinished work. Job release fields must equal t or be zero
// (zero is filled in); IDs must be fresh; deadlines must exceed t.
func (p *Planner) Arrive(t float64, jobs ...job.Job) error {
	if len(jobs) == 0 {
		return errors.New("online: Arrive needs at least one job")
	}
	if err := p.advance(t); err != nil {
		return err
	}
	for _, j := range jobs {
		if j.Release == 0 {
			j.Release = t
		}
		if math.Abs(j.Release-t) > 1e-9*(1+math.Abs(t)) {
			return fmt.Errorf("online: job %d released at %v, arriving at %v", j.ID, j.Release, t)
		}
		j.Release = t
		if err := j.Validate(); err != nil {
			return err
		}
		if _, dup := p.live[j.ID]; dup {
			return fmt.Errorf("online: duplicate live job ID %d", j.ID)
		}
		p.live[j.ID] = liveJob{deadline: j.Deadline, work: j.Work, remaining: j.Work}
	}
	p.rec.Add("planner.arrivals", int64(len(jobs)))
	return p.replan()
}

// FinishHorizon advances to the given time (normally the latest deadline)
// executing the current plan, completing the run.
func (p *Planner) FinishHorizon(t float64) error {
	return p.advance(t)
}

// advance executes the current plan over [now, t) and depletes volumes.
func (p *Planner) advance(t float64) error {
	if p.started && t < p.now-1e-12 {
		return fmt.Errorf("online: time went backwards (%v -> %v)", p.now, t)
	}
	if !p.started {
		p.started = true
		p.now = t
		return nil
	}
	if p.plan != nil && t > p.now {
		window := p.plan.Clip(p.now, t)
		p.executed.Segments = append(p.executed.Segments, window.Segments...)
		for id, lj := range p.live {
			done := window.CompletedWork(id, p.now, t)
			lj.remaining = math.Max(0, lj.remaining-done)
			if lj.remaining <= 1e-9*(1+lj.work) {
				delete(p.live, id)
			} else {
				p.live[id] = lj
			}
		}
	}
	p.now = math.Max(p.now, t)
	return nil
}

// CanAdmit reports whether the live workload plus the candidate job
// remains feasible when every processor is capped at the given maximum
// speed — the admission-control question of the speed-bounded setting.
// The planner state is not modified; the candidate's release is taken as
// the planner's current time.
func (p *Planner) CanAdmit(cap float64, cand job.Job) (bool, error) {
	cand.Release = p.now
	if err := cand.Validate(); err != nil {
		return false, err
	}
	if _, dup := p.live[cand.ID]; dup {
		return false, fmt.Errorf("online: job ID %d already live", cand.ID)
	}
	jobs := []job.Job{cand}
	for id, lj := range p.live {
		jobs = append(jobs, job.Job{ID: id, Release: p.now, Deadline: lj.deadline, Work: lj.remaining})
	}
	// Map order is random: sort, so every call probes the same network.
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	sub, err := job.NewInstance(p.m, jobs)
	if err != nil {
		return false, err
	}
	p.rec.Add("planner.admission_probes", 1)
	return opt.FeasibleAtSpeed(sub, cap, opt.WithRecorder(p.rec))
}

// replan recomputes the optimal schedule for the live jobs from p.now.
func (p *Planner) replan() error {
	if len(p.live) == 0 {
		p.plan = nil
		return nil
	}
	jobs := make([]job.Job, 0, len(p.live))
	for id, lj := range p.live {
		if lj.deadline <= p.now {
			return fmt.Errorf("online: job %d still has %v work at its deadline: %w", id, lj.remaining, mpsserr.ErrInfeasible)
		}
		jobs = append(jobs, job.Job{ID: id, Release: p.now, Deadline: lj.deadline, Work: lj.remaining})
	}
	sort.Slice(jobs, func(a, b int) bool { return jobs[a].ID < jobs[b].ID })
	sub, err := job.NewInstance(p.m, jobs)
	if err != nil {
		return err
	}
	span := p.rec.StartSpan(fmt.Sprintf("replan t=%g", p.now))
	span.Add("live_jobs", int64(len(jobs)))
	res, err := opt.Schedule(sub, opt.WithRecorder(p.rec), opt.UnderSpan(span))
	span.End()
	if err != nil {
		return err
	}
	p.plan = res.Schedule
	p.replans++
	p.rec.Add("planner.replans", 1)
	return nil
}
