// Package opt implements the paper's primary contribution: a strongly
// combinatorial polynomial-time algorithm computing energy-optimal
// multi-processor schedules with migration (Section 2, Theorem 1 of
// Albers, Antoniadis, Greiner: "On multi-processor speed scaling with
// migration").
//
// The algorithm works in phases. Phase i identifies the set J_i of jobs
// that an optimal schedule runs at the i-th highest speed s_i, together
// with the number m_ij of processors that set occupies in every event
// interval I_j (Lemma 3 pins m_ij = min{n_ij, m - sum_{l<i} m_lj}).
// Within a phase the algorithm iterates rounds: it conjectures that a
// candidate set forms J_i, checks the conjecture with a maximum-flow
// computation on the network G(J, m, s) — source -> job edges of capacity
// w_k/s, job -> interval edges of capacity |I_j|, interval -> sink edges
// of capacity m_j|I_j| — and, when the flow does not saturate the source,
// removes every provably-excluded job and retries. The final flow values
// are per-interval execution times; McNaughton's wrap-around rule turns
// them into an explicit schedule.
//
// The paper conjectures all remaining jobs at the start of every phase.
// runPhases instead keeps the jobs each rejected round excluded as a
// block on a stack and starts the next phase from the most recent block:
// a rejected round's maximal min cut splits its candidates by optimal
// speed, so the blocks of one phase are ordered fastest-last and the
// next phase's job set lies entirely in the last one. The first phase
// starts from every job, as in the paper; every later phase reaches the
// same J_i from a smaller candidate set, in fewer and smaller rounds.
// Every popped block is first split at its time gaps, the boundaries no
// candidate's window crosses, and each piece is solved as a block of
// its own: pieces share no interval, so their phases are those of the
// whole block, merged by speed once the loop ends (blocks.go).
//
// Every round of both engines builds its network afresh for the
// round's alive candidates, over their interval span (the union of
// their windows) and with flow-equivalent interval runs
// contracted (contract.go), and solves it from zero: the float path on a
// flow.PhaseNet, the max-flow kernel for this network shape, the exact
// path on a flow.RatGraph (exact.go). A round's network thus depends
// only on its candidate set and the processors earlier phases left free.
// The excluded jobs are chosen by a flow-invariant rule — every
// candidate whose node can still reach the sink in the residual graph
// (PhaseNet.CoReachable, RatGraph.CoReachable) — so both engines remove
// exactly the jobs the paper's rule removes. Each of them is outside J_i
// on its own, so one rejected round removes them all. The accepted
// round's flow is emitted as it stands, a super-interval's times cut
// over its member intervals. See DESIGN.md §7 and §12 for the
// invariants.
//
// Nothing of one solve's flow carries into the next: a caller that
// revises a job set step by step (the server's streaming sessions)
// solves each revision with Schedule.
//
// Because the optimal speed levels depend only on the combinatorial
// structure (not on the particular convex power function), the same
// schedule is optimal for every convex non-decreasing P with P(0) = 0;
// the power function enters only when reporting energy.
package opt

import (
	"context"
	"errors"
	"fmt"
	"math"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
	"mpss/internal/pool"
	"mpss/internal/schedule"
)

// Phase records one speed level of the optimal schedule: the jobs run at
// that speed and the processors they occupy per event interval.
type Phase struct {
	Speed  float64 // uniform speed s_i of this job set
	JobIDs []int   // jobs processed at Speed
	Procs  []int   // m_ij: processors reserved in each event interval
}

// Stats collects counters for the runtime experiments (E2).
type Stats struct {
	Phases       int // p, the number of distinct speed levels
	Rounds       int // total flow-checked rounds (conjecture tests)
	FlowVertices int // vertices of the largest flow network built
}

// Result is an optimal schedule together with its phase structure.
type Result struct {
	Schedule  *schedule.Schedule
	Phases    []Phase
	Intervals []job.Interval
	Stats     Stats
}

// Option configures the solver.
type Option func(*config)

// config is the one option set of every entry point: Schedule,
// FeasibleAtSpeed, MinFeasibleCap and ScheduleAtCap. Interval contraction
// is always on outside tests; noContract, the raw-interval reference
// mode the differential tests and benchmarks compare against, is set
// only by an option defined in the package's tests.
type config struct {
	exact      bool
	noContract bool
	rec        *obs.Recorder
	span       *obs.Span
	ctx        context.Context
}

// newConfig applies opts to the defaults: without UnderSpan, spans nest
// under the span WithContext's context carries (obs.ContextWithSpan),
// else under the recorder's root; without WithRecorder, the span's
// recorder records.
func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	if cfg.span == nil {
		cfg.span = obs.SpanFromContext(cfg.ctx)
	}
	if cfg.span == nil {
		cfg.span = cfg.rec.Root()
	}
	if cfg.rec == nil {
		cfg.rec = cfg.span.Recorder()
	}
	return cfg
}

// Exact switches the phase decisions to exact math/big.Rat arithmetic.
// Substantially slower, but immune to floating-point misclassification;
// used by tests to cross-validate the float64 fast path.
func Exact() Option { return func(c *config) { c.exact = true } }

// WithRecorder attaches an observability recorder: the solver records
// per-phase spans (critical speed, rounds, jobs saturated/removed) and
// global flow-solver operation counters into it. A nil recorder is the
// no-op default.
func WithRecorder(r *obs.Recorder) Option {
	return func(c *config) { c.rec = r }
}

// UnderSpan nests the solver's phase spans under the given parent span
// (e.g. one OA replanning event) instead of the context's span or the
// recorder root. The span's recorder is used when WithRecorder was not
// given.
func UnderSpan(s *obs.Span) Option {
	return func(c *config) { c.span = s }
}

// WithContext makes the solve cancelable: ctx is polled at every
// phase/round boundary of the driver loop, and a canceled or expired
// context unwinds the solve promptly with an error wrapping
// mpsserr.ErrCanceled. The arena the solve borrowed goes back to the
// pool in a reusable state: the next solve on it starts fresh. A nil
// ctx (the default) disables the checks entirely. A span the context
// carries (obs.ContextWithSpan) is the parent of the solve's spans.
func WithContext(ctx context.Context) Option {
	return func(c *config) { c.ctx = ctx }
}

// canceled converts a non-nil ctx error into the typed solver error,
// annotated with the phase/round position the solve had reached.
func canceled(ctx context.Context, phase, round int) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("opt: solve canceled (phase %d, round %d): %v: %w", phase, round, err, mpsserr.ErrCanceled)
	}
	return nil
}

// arena is the solver's scratch: the flow networks, the job×interval
// activity index, the round bookkeeping and the emission buffers, all
// recycled from one solve to the next so that steady-state solving does
// not allocate graph storage. solverPool is its only owner: every entry
// point — Schedule, FeasibleAtSpeed, MinFeasibleCap and
// ScheduleAtCap — borrows an arena for one call and
// returns it, so no idle object holds one.
type arena struct {
	fr frame // the solve's partition and job runs, shared by both engines
	fe floatEngine
	ee exactEngine
	cn capNet // feasibility probes and ScheduleAtCap
}

var solverPool pool.FreeList[arena]

// Schedule computes an energy-optimal schedule for the instance. The
// returned schedule is feasible (verifiable with schedule.Verify) and
// optimal for every convex non-decreasing power function with P(0) = 0.
//
// Failure handling: the float64 fast path can fail numerically on
// hostile inputs (ErrNumeric) or trip a contained solver invariant
// (ErrInternal). Both are retried once with the exact rational engine
// (counter "opt.fallback_exact"), so production callers only see an
// error when both engines fail. The retry solves the whole instance
// again. Explicit Exact() runs skip the retry: there is nothing more
// exact to fall back to.
func Schedule(in *job.Instance, opts ...Option) (*Result, error) {
	return schedulePooled(in, newConfig(opts))
}

// schedulePooled is Schedule on an applied option set, on a pooled
// arena.
func schedulePooled(in *job.Instance, cfg config) (*Result, error) {
	a := solverPool.Get()
	defer solverPool.Put(a)
	return a.schedule(in, cfg)
}

func (s *arena) schedule(in *job.Instance, cfg config) (*Result, error) {
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	s.fr.reset(in)
	s.ee.contract = !cfg.noContract
	if cfg.exact {
		return runPhases(cfg.ctx, &s.fr, &s.ee, cfg.rec, cfg.span)
	}
	s.fe.contract = !cfg.noContract
	res, err := runPhases(cfg.ctx, &s.fr, &s.fe, cfg.rec, cfg.span)
	if err == nil || !retryable(err) {
		return res, err
	}
	floatErr := err
	cfg.rec.Add("opt.fallback_exact", 1)
	res, err = runPhases(cfg.ctx, &s.fr, &s.ee, cfg.rec, cfg.span)
	if err != nil {
		return nil, fmt.Errorf("opt: exact fallback also failed: %w (float path: %v)", err, floatErr)
	}
	return res, nil
}

// retryable reports whether the exact engine may succeed where the
// float engine failed: numeric failures by construction, internal
// invariant violations because a differently-conditioned engine often
// sidesteps the triggering state. Invalid or infeasible
// inputs fail identically everywhere.
func retryable(err error) bool {
	return errors.Is(err, mpsserr.ErrNumeric) || errors.Is(err, mpsserr.ErrInternal)
}

// validateForSolve is the solver-boundary input check: the full
// job.Instance.Validate catalogue, duplicate job IDs included. Emission
// orders each interval's pieces by job ID, so an ID shared by two jobs
// would leave that order to the flow network's edge layout.
func validateForSolve(in *job.Instance) error {
	return in.Validate()
}

// phaseEngine is the round loop's arithmetic backend. floatEngine runs
// it in float64, exactEngine in math/big.Rat; runPhases drives both so
// the two paths cannot drift structurally.
type phaseEngine interface {
	// prepare is called once per solve: cache instance-wide state on top
	// of the frame, whose job runs the engine shares.
	prepare(f *frame, st *Stats, rec *obs.Recorder)
	// beginPhase conjectures cand as the next phase's job set. It copies
	// cand: runPhases reuses that storage for the blocks the phase's
	// rounds exclude. degenerate reports a network with no capacity at
	// all (every m_ij = 0).
	beginPhase(used, cand []int, span *obs.Span) (degenerate bool)
	// solveRound builds the network G(J, m, s) of the conjectured set,
	// solves its max flow from zero and returns the number of candidates
	// the residual graph certifies as excluded; 0 accepts the
	// conjecture. A positive count leaves those candidates selected for
	// excludedJobs and removeExcluded.
	solveRound() (excluded int)
	// excludedJobs appends the candidates selected by the last solveRound
	// to dst as instance job indices, in candidate order.
	excludedJobs(dst []int) []int
	// removeExcluded removes every candidate selected by the last
	// solveRound from the conjectured set and re-derives the phase speed
	// once; the next round builds its network afresh.
	removeExcluded() (degenerate, empty bool)
	// dropLeastWork removes the least-work candidate; the driver calls
	// it to make progress on degenerate (zero-capacity) networks.
	dropLeastWork() (degenerate, empty bool)
	// accept finalizes the phase and returns the phase speed, the m_ij
	// vector and every positive job -> interval flow as a piece, in
	// interval order (ivIdx non-decreasing). The accepted round's flow
	// is emitted as it stands, a super-interval's times cut over its
	// members (phaseSet.emit).
	// The pieces live in the engine's emitScratch until the next accept.
	accept() (speed float64, mj []int, pieces []piece)
	// acceptedCand returns the accepted candidate set (instance job
	// indices, in input order). Valid until the next beginPhase.
	acceptedCand() []int
	// scratch returns the engine's emission storage (emitScratch).
	scratch() *emitScratch
	spanName(phase int) string
	emptyErr() error
}

// testHookRound, when non-nil, runs before every solveRound call with a
// flag telling the engine kind apart. Tests use it to inject invariant
// panics and exercise the recover/fallback path; it is never set outside
// tests.
var testHookRound func(exact bool)

// testHookEmitted, when non-nil, sees the solve's segments in emission
// order, with each one's interval index, before segOrder.sort reorders
// them. Tests only.
var testHookEmitted func(segs []schedule.Segment, iv []int32)

// runPhases is the shared phase/round driver for both engines. It is
// also the solver's panic-containment boundary: invariant violations
// raised anywhere below (the flow kernels, the engines, the
// wrap-around packer) are recovered here and converted into typed
// errors — flow.InvariantViolation values with Numeric set become
// ErrNumeric (the exact fallback retries those), everything else
// becomes ErrInternal — annotated with the phase/round position the
// solver had reached, mirroring the span trace internal/obs records.
//
// Candidate sets live on a stack of job blocks, each in input order. It
// starts as one block holding every job. Each pop first splits the top
// block at its time gaps (frame.split) and pushes the pieces in its
// place; a phase then takes the top block as its candidates, and each
// rejected round pushes the jobs it excluded as a new block. A rejected
// round at speed s splits its candidates by optimal speed — the
// excluded jobs all run below s, the rest at s or above — so the blocks
// one phase pushes get faster towards the top, and the next phase's job
// set, that of the top block's piece of the instance, lies entirely in
// the top block (DESIGN.md §7, "Excluded blocks are solved next, not
// re-derived"). A phase that excludes nothing resumes the older blocks
// below. Jobs dropped on a degenerate network are not
// pushed: dropping never adds capacity, so such a phase always ends in
// the emptied-candidate error. The phases come out in pop order, fastest
// first within each piece, and mergePhases puts them in speed order once
// the loop ends (DESIGN.md §14).
//
// It is also the cancellation boundary: a non-nil ctx is polled once
// per round (each round is one max-flow solve, the natural quantum),
// and a canceled context unwinds with ErrCanceled before the next
// solve starts. Mid-round state never leaks: every later Schedule call
// rebuilds the per-phase engine state from scratch in beginPhase.
func runPhases(ctx context.Context, f *frame, eng phaseEngine, rec *obs.Recorder, parent *obs.Span) (res *Result, err error) {
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		phase, rounds := 0, 0
		if res != nil {
			phase, rounds = len(res.Phases)+1, res.Stats.Rounds
		}
		rec.Add("opt.panics_recovered", 1)
		if iv, ok := r.(*flow.InvariantViolation); ok && iv.Numeric {
			err = fmt.Errorf("opt: %s (phase %d, round %d): %w", iv.Msg, phase, rounds, mpsserr.ErrNumeric)
		} else {
			err = fmt.Errorf("opt: solver panic: %v (phase %d, round %d): %w", r, phase, rounds, mpsserr.ErrInternal)
		}
		res = nil
	}()

	in, ivs := f.in, f.ivs
	used := make([]int, len(ivs)) // processors occupied by earlier phases
	// The block stack, stored flat: block b is jobs[starts[b]:starts[b+1]],
	// the top block runs to the end. Every unaccepted job sits in exactly
	// one block or in the running phase, so jobs never outgrows n.
	jobs := make([]int, in.N())
	for i := range jobs {
		jobs[i] = i
	}
	starts := []int{0}

	// Emission writes into the arena: the segments and every phase's
	// positive m_ij go to scratch buffers and are copied out at exact
	// size once the solve ends, and so do the jobs of every accepted
	// phase (mergeScratch).
	sc := eng.scratch()
	res = &Result{Schedule: schedule.New(in.M), Intervals: ivs}
	res.Schedule.Segments = sc.segs[:0]
	sc.order.iv = sc.order.iv[:0]
	sc.claims = sc.claims[:0]
	accepted := &sc.merge
	accepted.ks, accepted.at = accepted.ks[:0], append(accepted.at[:0], 0)
	eng.prepare(f, &res.Stats, rec)
	_, isExact := eng.(*exactEngine)

	for len(starts) > 0 {
		starts = f.split(jobs, starts)
		top := starts[len(starts)-1]
		starts = starts[:len(starts)-1]
		var span *obs.Span
		if parent != nil {
			span = parent.StartSpan(eng.spanName(len(res.Phases) + 1))
		}
		span.Add("candidates", int64(len(jobs)-top))
		degenerate := eng.beginPhase(used, jobs[top:], span)
		jobs = jobs[:top]
		for {
			if cerr := canceled(ctx, len(res.Phases)+1, res.Stats.Rounds); cerr != nil {
				rec.Add("opt.canceled", 1)
				span.End()
				return nil, cerr
			}
			res.Stats.Rounds++
			rec.Add("opt.rounds", 1)
			if degenerate {
				// No capacity anywhere: drop the candidate with the least
				// work to make progress; this indicates a degenerate
				// instance and ends in the emptied-candidate error below.
				rec.Add("opt.jobs_removed", 1)
				span.Add("jobs_removed", 1)
				var empty bool
				degenerate, empty = eng.dropLeastWork()
				if empty {
					return nil, eng.emptyErr()
				}
				continue
			}
			if testHookRound != nil {
				testHookRound(isExact)
			}
			excluded := eng.solveRound()
			if excluded == 0 {
				break
			}
			rec.Add("opt.jobs_removed", int64(excluded))
			span.Add("jobs_removed", int64(excluded))
			starts = append(starts, len(jobs))
			jobs = eng.excludedJobs(jobs)
			var empty bool
			degenerate, empty = eng.removeExcluded()
			if empty {
				return nil, eng.emptyErr()
			}
		}
		speed, mj, pieces := eng.accept()
		cand := eng.acceptedCand()
		if err := emitPhase(in, ivs, used, speed, mj, pieces, sc, res); err != nil {
			// Packing can only fail when the flow the engine certified
			// does not fit its intervals: precision loss on the float
			// path (the exact fallback retries), a bug on the exact path.
			if isExact {
				return nil, fmt.Errorf("%v: %w", err, mpsserr.ErrInternal)
			}
			return nil, fmt.Errorf("%v: %w", err, mpsserr.ErrNumeric)
		}
		accepted.ks = append(accepted.ks, cand...)
		accepted.at = append(accepted.at, len(accepted.ks))
		for jx, m := range mj {
			if m > 0 {
				sc.claims = append(sc.claims, claim{int32(len(res.Phases)), int32(jx), int32(m)})
			}
		}
		res.Phases = append(res.Phases, Phase{Speed: speed})
		span.Add("jobs_saturated", int64(len(cand)))
		span.SetValue("speed", speed)
		span.End()
	}

	mergePhases(f, res, sc.claims, accepted)
	rec.Add("opt.phases", int64(len(res.Phases)))
	if testHookEmitted != nil {
		testHookEmitted(res.Schedule.Segments, sc.order.iv)
	}
	sc.order.sort(res.Schedule.Segments, len(ivs), in.M)
	res.Schedule.Normalize()
	segs := res.Schedule.Segments
	sc.segs = segs[:0]
	res.Schedule.Segments = append([]schedule.Segment(nil), segs...)
	return res, nil
}

// piece is one positive job -> interval flow of an accepted phase: job
// k (instance index) runs for time t in event interval ivIdx.
type piece struct {
	k     int
	ivIdx int
	t     float64
}

// emitScratch is an engine's reusable emission storage: accept fills
// pieces, emitPhase packs them interval by interval through group and
// procs into segs, runPhases collects every phase's positive m_ij in
// claims, order presorts the segments for Normalize, and merge is
// mergePhases' storage. It lives in the arena, never in a package
// variable, because solves run concurrently.
type emitScratch struct {
	pieces []piece
	group  []schedule.Piece
	procs  []int
	segs   []schedule.Segment
	claims []claim
	order  segOrder
	merge  mergeScratch
}

// claim records that accepted phase occupies m > 0 processors in
// interval iv. Each phase holds at least one processor wherever it
// claims, so a solve has at most m·|intervals| claims however many
// phases it has, and mergePhases expands them into the dense Phase.Procs
// vectors only once.
type claim struct{ phase, iv, m int32 }

func (s *emitScratch) scratch() *emitScratch { return s }

// emitPhase converts the accepted round's flow into schedule segments.
// The pieces arrive in interval order, so each interval's group is a
// contiguous run (one to a few pieces, one per job): it is
// insertion-sorted by job ID and packed by McNaughton's wrap-around rule
// straight into the schedule, on the m_ij processors above those earlier
// phases occupy. Each segment's interval index goes to sc.order.iv.
func emitPhase(in *job.Instance, ivs []job.Interval, used []int, speed float64, mj []int, pieces []piece, sc *emitScratch, res *Result) error {
	prev := -1
	for i := 0; i < len(pieces); {
		jx := pieces[i].ivIdx
		if jx <= prev {
			panic(fmt.Sprintf("opt: accepted pieces out of interval order (interval %d after %d)", jx, prev))
		}
		prev = jx
		group := sc.group[:0]
		for ; i < len(pieces) && pieces[i].ivIdx == jx; i++ {
			p := schedule.Piece{JobID: in.Jobs[pieces[i].k].ID, Duration: math.Min(pieces[i].t, ivs[jx].Len()), Speed: speed}
			at := len(group)
			group = append(group, p)
			for ; at > 0 && group[at-1].JobID > p.JobID; at-- {
				group[at] = group[at-1]
			}
			group[at] = p
		}
		sc.group = group
		if mj[jx] == 0 {
			continue
		}
		procs := sc.procs[:0]
		for p := used[jx]; p < used[jx]+mj[jx]; p++ {
			procs = append(procs, p)
		}
		sc.procs = procs
		var err error
		n0 := len(res.Schedule.Segments)
		res.Schedule.Segments, err = schedule.WrapAround(res.Schedule.Segments, ivs[jx].Start, ivs[jx].End, procs, group)
		if err != nil {
			return fmt.Errorf("opt: packing interval %v: %w", ivs[jx], err)
		}
		for range res.Schedule.Segments[n0:] {
			sc.order.iv = append(sc.order.iv, int32(jx))
		}
		used[jx] += mj[jx]
	}
	return nil
}

// segOrder puts a solve's segments into Normalize's (processor, start,
// end) order before Normalize runs, so its sort meets sorted input. In
// interval j each processor belongs to exactly one phase — processors
// used[j] … used[j]+m_ij−1 of the phase that packed it — and WrapAround
// lays each processor's segments out left to right. So a stable sort by
// interval and then a stable sort by processor, two counting passes,
// leaves every processor's segments in start order.
type segOrder struct {
	iv    []int32 // per emitted segment: its interval index
	byIv  []int32 // segment indices, stably sorted by interval
	perm  []int32 // then stably by processor: position -> segment index
	count []int32
}

// sort reorders segs (whose intervals are o.iv, out of nIv, on m
// processors) by (processor, interval), keeping the order only if it is
// strictly increasing under schedule.CompareSegments. Then Normalize's
// sort returns exactly what it returns on the emission order: input
// with no ties has one sorted order. If two segments tie, segs keeps
// the emission order and Normalize sees what it always saw.
func (o *segOrder) sort(segs []schedule.Segment, nIv, m int) {
	n := len(segs)
	if n < 2 {
		return
	}
	o.count = growInt32s(o.count, max(nIv, m)+1)
	o.byIv = growInt32s(o.byIv, n)
	o.perm = growInt32s(o.perm, n)
	count := o.count[:nIv+1]
	clear(count)
	for _, j := range o.iv {
		count[j+1]++
	}
	for j := 1; j <= nIv; j++ {
		count[j] += count[j-1]
	}
	for i, j := range o.iv {
		o.byIv[count[j]] = int32(i)
		count[j]++
	}
	count = o.count[:m+1]
	clear(count)
	for i := range segs {
		count[segs[i].Proc+1]++
	}
	for p := 1; p <= m; p++ {
		count[p] += count[p-1]
	}
	for _, i := range o.byIv {
		p := segs[i].Proc
		o.perm[count[p]] = i
		count[p]++
	}
	for k := 1; k < n; k++ {
		if schedule.CompareSegments(segs[o.perm[k-1]], segs[o.perm[k]]) >= 0 {
			return
		}
	}
	// Apply the permutation in place, one cycle at a time: position k
	// takes segment perm[k]; a visited position is marked -1.
	for k := range o.perm {
		if o.perm[k] < 0 {
			continue
		}
		first := segs[k]
		j := k
		for {
			next := int(o.perm[j])
			o.perm[j] = -1
			if next == k {
				segs[j] = first
				break
			}
			segs[j] = segs[next]
			j = next
		}
	}
}

// publishDinic folds one float-path max-flow solve's operation counts
// into the recorder's global counters and the enclosing phase span.
// All calls are no-ops when observability is off.
func publishDinic(rec *obs.Recorder, span *obs.Span, ops flow.DinicOps) {
	if !rec.Enabled() && span == nil {
		return
	}
	rec.Add("flow.solves", 1)
	rec.Add("flow.dinic.bfs_passes", ops.BFSPasses)
	rec.Add("flow.dinic.aug_paths", ops.AugPaths)
	rec.Add("flow.dinic.edges_scanned", ops.EdgesScanned)
	span.Add("flow_calls", 1)
	span.Add("bfs_passes", ops.BFSPasses)
	span.Add("aug_paths", ops.AugPaths)
	span.Add("edges_scanned", ops.EdgesScanned)
}

// publishExact is publishDinic for the exact rational solver.
func publishExact(rec *obs.Recorder, span *obs.Span, ops flow.DinicOps) {
	if !rec.Enabled() && span == nil {
		return
	}
	rec.Add("flow.solves", 1)
	rec.Add("flow.exact.bfs_passes", ops.BFSPasses)
	rec.Add("flow.exact.aug_paths", ops.AugPaths)
	rec.Add("flow.exact.edges_scanned", ops.EdgesScanned)
	span.Add("flow_calls", 1)
	span.Add("bfs_passes", ops.BFSPasses)
	span.Add("aug_paths", ops.AugPaths)
	span.Add("edges_scanned", ops.EdgesScanned)
}
