// Package mpss is an energy-aware multi-processor scheduling library
// implementing "On multi-processor speed scaling with migration" by
// Albers, Antoniadis and Greiner (SPAA 2011 / JCSS 2015).
//
// # Model
//
// A sequence of jobs — each with a release time, a deadline and a
// processing volume — must be scheduled on m parallel variable-speed
// processors. Jobs may be preempted and migrated between processors, but
// a job never runs on two processors at once. A processor running at
// speed s draws power P(s), a convex non-decreasing function with
// P(0) = 0 (classically P(s) = s^alpha with alpha > 1); the objective is
// to finish every job inside its window with minimum total energy.
//
// # Algorithms
//
//   - OptimalSchedule: the paper's combinatorial offline optimum
//     (Theorem 1), built from repeated maximum-flow computations. The
//     schedule it returns is optimal simultaneously for every convex
//     non-decreasing power function.
//   - OA: the online Optimal Available algorithm for m processors
//     (Theorem 2, alpha^alpha-competitive).
//   - AVR: the online Average Rate algorithm for m processors
//     (Theorem 3, (2 alpha)^alpha/2 + 1-competitive).
//   - YDS: the classic single-processor optimum of Yao, Demers and
//     Shenker, used as a baseline and as the per-processor optimum of the
//     non-migratory baselines.
//   - NonMigratory: assignment + per-processor YDS baselines in the style
//     of the non-migratory multiprocessor literature.
//
// # Quick start
//
//	jobs := []mpss.Job{
//		{ID: 1, Release: 0, Deadline: 4, Work: 8},
//		{ID: 2, Release: 1, Deadline: 5, Work: 2},
//	}
//	in, _ := mpss.NewInstance(2, jobs)
//	res, _ := mpss.OptimalSchedule(in)
//	fmt.Println(res.Schedule.Energy(mpss.MustAlpha(3)))
//
// See the examples directory for runnable scenarios and cmd/ for CLI
// tools (instance generation, offline solving, online simulation, and the
// experiment harness reproducing the paper's claims).
package mpss

import (
	"context"
	"fmt"
	"io"

	"mpss/internal/bkp"
	"mpss/internal/discrete"
	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/online"
	"mpss/internal/opt"
	"mpss/internal/potential"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/sleep"
	"mpss/internal/viz"
	"mpss/internal/workload"
	"mpss/internal/yds"
)

// Job is one unit of work: released at Release, due by Deadline, carrying
// Work units of processing volume.
type Job = job.Job

// Instance is a validated set of jobs to schedule on M processors.
type Instance = job.Instance

// Interval is one event interval of the partition of the time horizon
// along release times and deadlines.
type Interval = job.Interval

// Schedule is a multi-processor schedule of constant-speed segments.
type Schedule = schedule.Schedule

// Segment pins one job to one processor at one speed over a time window.
type Segment = schedule.Segment

// PowerFunction is a convex non-decreasing power function with P(0) = 0.
type PowerFunction = power.Function

// Alpha is the canonical power function P(s) = s^alpha.
type Alpha = power.Alpha

// OptimalResult is the outcome of the offline optimum: the schedule plus
// its phase structure (job sets with their uniform speeds).
type OptimalResult = opt.Result

// OptimalPhase is one speed level of an optimal schedule.
type OptimalPhase = opt.Phase

// OAResult is the executed OA(m) schedule plus its replanning trace.
type OAResult = online.OAResult

// AVRResult is the AVR(m) schedule plus its per-interval level structure.
type AVRResult = online.AVRResult

// Assignment maps each job (by index) to a processor, for the
// non-migratory baselines.
type Assignment = online.Assignment

// WorkloadSpec parameterizes the bundled workload generators.
type WorkloadSpec = workload.Spec

// Recorder collects solver metrics: named atomic counters, duration
// histograms and a hierarchical span trace of the solver's phase
// structure. Construct with NewRecorder and attach to any solver entry
// point via WithRecorder; a nil *Recorder is a no-op, so instrumented
// call sites need no conditionals. See internal/obs.
type Recorder = obs.Recorder

// NewRecorder returns an empty metrics recorder.
func NewRecorder() *Recorder { return obs.New() }

// Metrics is a point-in-time export of a Recorder: counters, histogram
// summaries and the span trace. Obtain one with Recorder.Snapshot; write
// it as JSON with Recorder.WriteJSON or render the phase tree with
// Metrics.TraceTree.
type Metrics = obs.Snapshot

// SolveOption configures the solver entry points — the package-level
// one-shot functions (OptimalSchedule, OptimalScheduleExact, OA, AVR,
// FeasibleAtSpeed, MinFeasibleCap, ScheduleAtCap) and the Solver
// methods. Options
// given to NewSolver become the Solver's defaults; options given to an
// individual call are applied on top.
type SolveOption func(*solveConfig)

type solveConfig struct {
	rec *obs.Recorder
	par int
	ctx context.Context
}

// WithRecorder directs a solver run to record its metrics and phase
// trace into r.
func WithRecorder(r *Recorder) SolveOption {
	return func(c *solveConfig) { c.rec = r }
}

// WithParallelism sets how many trace components SolveTraceStream
// solves at once; n <= 1, the default, solves them one after another.
// Only SolveTraceStream reads it. Every max-flow computation is
// sequential, and the summary is accumulated in component order, so the
// result is bit-identical at any n.
func WithParallelism(n int) SolveOption {
	return func(c *solveConfig) { c.par = n }
}

func buildSolveConfig(opts []SolveOption) solveConfig {
	var cfg solveConfig
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// NewInstance validates m and the jobs and returns a schedulable instance.
func NewInstance(m int, jobs []Job) (*Instance, error) {
	return job.NewInstance(m, jobs)
}

// NewAlpha returns the power function P(s) = s^alpha; alpha must exceed 1.
func NewAlpha(alpha float64) (Alpha, error) { return power.NewAlpha(alpha) }

// MustAlpha is NewAlpha that panics on invalid input.
func MustAlpha(alpha float64) Alpha { return power.MustAlpha(alpha) }

// OptimalSchedule computes an energy-optimal migratory schedule for the
// instance using the paper's combinatorial flow-based algorithm. The
// result is feasible and optimal for every convex non-decreasing power
// function with P(0) = 0.
//
// Failures are classified by the package's sentinel errors (see
// ErrInvalidInstance and friends); the solver never panics on caller
// input.
func OptimalSchedule(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	return NewSolver(opts...).Solve(in)
}

// OptimalScheduleExact is OptimalSchedule with all phase decisions carried
// out in exact rational arithmetic. Slower, but immune to floating-point
// misclassification.
func OptimalScheduleExact(in *Instance, opts ...SolveOption) (*OptimalResult, error) {
	return NewSolver(opts...).SolveExact(in)
}

// YDS computes the classic optimal single-processor schedule.
func YDS(jobs []Job) (*Schedule, error) {
	r, err := yds.Schedule(jobs)
	if err != nil {
		return nil, err
	}
	return r.Schedule, nil
}

// OA runs the online Optimal Available algorithm on the instance,
// replanning with the offline optimum at every arrival. Theorem 2 of the
// paper: the result consumes at most alpha^alpha times the optimal energy
// under P(s) = s^alpha.
func OA(in *Instance, opts ...SolveOption) (*OAResult, error) {
	return NewSolver(opts...).OA(in)
}

// AVR runs the online Average Rate algorithm on the instance. Theorem 3
// of the paper: the result consumes at most (2 alpha)^alpha/2 + 1 times
// the optimal energy under P(s) = s^alpha.
func AVR(in *Instance, opts ...SolveOption) (*AVRResult, error) {
	return NewSolver(opts...).AVR(in)
}

// NonMigratory schedules without migration: jobs are assigned to
// processors with the given policy and each processor runs its
// single-processor YDS optimum.
func NonMigratory(in *Instance, assign Assignment) (*Schedule, error) {
	return online.NonMigratory(in, assign)
}

// RandomAssignment assigns jobs to processors uniformly at random.
func RandomAssignment(seed int64) Assignment { return online.RandomAssignment(seed) }

// RoundRobinAssignment deals jobs to processors in release order.
func RoundRobinAssignment() Assignment { return online.RoundRobinAssignment() }

// LeastWorkAssignment sends each job to the least-loaded processor.
func LeastWorkAssignment() Assignment { return online.LeastWorkAssignment() }

// Verify checks a schedule against the feasibility invariants of the
// model (windows, volumes, no processor or job overlap).
func Verify(s *Schedule, in *Instance) error {
	if err := ValidateInstance(in); err != nil {
		return err
	}
	if s == nil {
		return fmt.Errorf("mpss: nil schedule: %w", ErrInvalidInstance)
	}
	return s.Verify(in)
}

// OABound returns alpha^alpha, the proven competitive ratio of OA(m).
func OABound(alpha float64) float64 { return power.MustAlpha(alpha).OABound() }

// AVRBound returns (2 alpha)^alpha/2 + 1, the proven competitive ratio of
// AVR(m).
func AVRBound(alpha float64) float64 { return power.MustAlpha(alpha).AVRBound() }

// GenerateWorkload builds a reproducible random instance with the named
// generator; see Workloads for the catalogue.
func GenerateWorkload(name string, spec WorkloadSpec) (*Instance, error) {
	g, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	return g.Make(spec)
}

// Workloads lists the names of the bundled workload generators.
func Workloads() []string {
	gens := workload.All()
	names := make([]string, len(gens))
	for i, g := range gens {
		names[i] = g.Name
	}
	return names
}

// PowerTerm is one monomial of a Polynomial power function.
type PowerTerm = power.Term

// NewPolynomial builds a convex polynomial power function
// sum C_i * s^E_i (C_i >= 0, E_i >= 1).
func NewPolynomial(terms ...PowerTerm) (PowerFunction, error) {
	return power.NewPolynomial(terms...)
}

// SamplePiecewiseAlpha builds a piecewise-linear convex upper
// approximation of s^alpha with k breakpoints on (0, maxSpeed].
func SamplePiecewiseAlpha(alpha, maxSpeed float64, k int) (PowerFunction, error) {
	return power.SampleAlpha(alpha, maxSpeed, k)
}

// DiscreteResult is the outcome of scheduling with a finite speed menu.
type DiscreteResult = discrete.Result

// DiscreteSchedule computes an optimal schedule restricted to a finite
// menu of processor speeds (the discrete-DVFS setting of the related
// work the paper cites), by two-level mixing of the continuous optimum.
func DiscreteSchedule(in *Instance, p PowerFunction, levels []float64) (*DiscreteResult, error) {
	return discrete.Schedule(in, p, levels)
}

// UniformSpeedMenu builds k evenly spaced speed levels on (0, max].
func UniformSpeedMenu(max float64, k int) ([]float64, error) {
	return discrete.UniformMenu(max, k)
}

// FeasibleAtSpeed reports whether the instance fits under a maximum
// processor speed cap (the speed-bounded setting), via one max-flow
// test. Options: WithRecorder counts the probe and the flow-solver
// operations, WithContext makes it cancelable.
func FeasibleAtSpeed(in *Instance, cap float64, opts ...SolveOption) (bool, error) {
	return NewSolver(opts...).FeasibleAtSpeed(in, cap)
}

// MinFeasibleCap returns the smallest processor speed cap at which the
// instance remains feasible: the unbounded optimum's top phase speed
// s_1, which it computes by solving the optimum's first phase only and
// checks with one feasibility probe, so FeasibleAtSpeed and
// ScheduleAtCap accept it. No cap below s_1 is feasible. rel is ignored;
// it stays for callers written against the former bisection. With
// WithRecorder, "opt.feasibility_probes" counts the probes run;
// WithContext makes it cancelable.
func MinFeasibleCap(in *Instance, rel float64, opts ...SolveOption) (float64, error) {
	return NewSolver(opts...).MinFeasibleCap(in, rel)
}

// PotentialTracker evaluates the potential function of the paper's OA(m)
// analysis along an executed run; see internal/potential.
type PotentialTracker = potential.Tracker

// NewPotentialTracker wires an instance, an executed OA run on it, and
// the offline-optimal schedule, for auditing the Theorem 2 analysis.
func NewPotentialTracker(in *Instance, oa *OAResult, opt *Schedule, alpha float64) (*PotentialTracker, error) {
	return potential.NewTracker(in, oa, opt, alpha)
}

// PeriodicTask is one periodic real-time task for ExpandPeriodic.
type PeriodicTask = workload.Task

// ExpandPeriodic unrolls a periodic task set over [0, horizon) into a
// job instance on m processors.
func ExpandPeriodic(m int, tasks []PeriodicTask, horizon float64) (*Instance, error) {
	return workload.ExpandPeriodic(m, tasks, horizon)
}

// InstanceFromTrace parses an external JSON job trace into a validated
// instance (the format emitted by cmd/mpss-gen).
func InstanceFromTrace(data []byte) (*Instance, error) {
	return workload.FromTrace(data)
}

// BKP runs the single-processor Bansal-Kimbrel-Pruhs online algorithm
// (reference [5] of the paper; its multi-processor extension is the open
// problem raised in the paper's conclusion). slicesPerInterval controls
// the simulation granularity (0 = default).
func BKP(jobs []Job, slicesPerInterval int) (*Schedule, error) {
	return bkp.Schedule(jobs, bkp.Options{SlicesPerInterval: slicesPerInterval})
}

// BKPBound returns 2 (alpha/(alpha-1))^alpha e^alpha, the proven
// competitive ratio of the BKP algorithm on one processor.
func BKPBound(alpha float64) float64 { return bkp.Bound(alpha) }

// ScheduleAtCap builds a feasible fixed-frequency schedule: every
// processor runs at exactly cap or idles ("race to idle"). It fails when
// the instance is infeasible at the cap. Options: WithRecorder counts its
// max flow's flow-solver operations, WithContext makes it cancelable.
func ScheduleAtCap(in *Instance, cap float64, opts ...SolveOption) (*Schedule, error) {
	cfg := buildSolveConfig(opts)
	return opt.ScheduleAtCap(in, cap, opt.WithRecorder(cfg.rec), opt.WithContext(cfg.ctx))
}

// SleepModel describes static (leakage) power and the cost of waking
// from the sleep state — the combined speed-scaling/power-down model the
// paper's conclusion points to as future work.
type SleepModel = sleep.Model

// EnergyBreakdown is the energy account of a schedule under a SleepModel.
type EnergyBreakdown = sleep.Breakdown

// EvaluateWithSleep prices a schedule under dynamic power p plus the
// sleep model over [start, end): awake processors draw P(s) + IdlePower,
// and every idle gap takes the cheaper of idling and sleeping.
func EvaluateWithSleep(s *Schedule, p PowerFunction, m SleepModel, start, end float64) (EnergyBreakdown, error) {
	return sleep.Evaluate(s, p, m, start, end)
}

// Planner is the incremental, push-style form of OA(m): arrivals are fed
// one batch at a time, the planner executes its current optimal plan
// between them and replans on every batch — the interface an actual
// runtime would drive. It reproduces OA exactly.
type Planner = online.Planner

// NewPlanner returns an empty incremental OA(m) planner over m
// processors.
func NewPlanner(m int) (*Planner, error) { return online.NewPlanner(m) }

// Canonicalize rewrites a schedule into the paper's canonical form
// (Lemma 6): within every event interval, processor 0 carries the highest
// speed, processor 1 the next, and so on. Feasibility and energy are
// unchanged. The interval partition must be the one the schedule was
// built on (OptimalResult.Intervals).
func Canonicalize(s *Schedule, ivs []Interval) (*Schedule, error) {
	return opt.Canonicalize(s, ivs)
}

// ProfilePoint is one step of a schedule's piecewise-constant aggregate
// speed/power time series (see Schedule.PowerProfile).
type ProfilePoint = schedule.ProfilePoint

// ProfileEnergy integrates a PowerProfile series back into total energy.
func ProfileEnergy(profile []ProfilePoint) float64 {
	return schedule.ProfileEnergy(profile)
}

// SVGOptions controls RenderSVG geometry.
type SVGOptions = viz.Options

// RenderSVG writes the schedule as a standalone SVG document: one lane
// per processor, bar height proportional to speed, tooltips with job,
// window and speed.
func RenderSVG(w io.Writer, s *Schedule, o SVGOptions) error {
	return viz.SVG(w, s, o)
}
