package opt

import (
	"context"
	"fmt"
	"math"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// This file implements streaming sessions: a Session owns a mutable job
// set and re-solves it after add-job / remove-job / retune-cap deltas,
// keeping the first phase's flow network alive between resolves so a
// delta re-solve warm-starts from the previous accepted flow instead of
// rebuilding the graph.
//
// The contract is the same bit-exactness guarantee the warm round loop
// already provides within one solve, extended across solves: a session
// resolve returns exactly what a one-shot Schedule of the current job
// set returns. The mechanism:
//
//   - The persistent network (sessNet) is reusable only while the event
//     point partition of the live jobs equals the one it was built on
//     and only jobs have been removed since. A removed job's edges are
//     drained and zero-capacity remnants stay behind — Dinic never
//     traverses a zero-residual edge, and the remnants never reorder the
//     traversal of live edges, so the canonical from-zero solve at
//     accept reproduces a cold rebuild's augmentation sequence exactly.
//   - Adding a job invalidates the network. Appending a vertex would
//     place its adjacency entries after edges a cold build inserts
//     before them, changing Dinic's deterministic traversal order and
//     with it the last-ulp flow values — a rebuild is the only layout
//     that preserves the guarantee.
//   - At attach, every capacity is re-set to the same absolute
//     expression the cold build uses (work/speed, m_j*|I_j|), never
//     rescaled multiplicatively (float64 multiplication is not
//     associative). Round decisions are flow-invariant (the max-flow
//     value is unique and CoReachable is the same for every maximum
//     flow), so the warm-reconciled rounds accept, reject and remove
//     exactly as cold rounds do. A rejected round resets the flow in
//     place, so every later round of the phase solves from zero; a warm
//     round that is accepted is canonicalized from zero before emission.
//   - Only a resolve's first phase runs on the persistent network, and
//     contraction is disabled for it so the network keeps the raw
//     interval shape. Later phases (and any mid-phase degenerate
//     rebuild) fall back to the engine-owned arena; falling off the
//     persistent network invalidates it.
//
// Exact sessions keep no persistent network: every delta re-solves the
// full instance through the exact engine on the session's warm arena,
// which is trivially identical to the one-shot exact path.

// sessNet is the persistent first-phase network of a Session. Jobs are
// identified by slot: the position in the candidate set the network was
// built from. slotOf maps the session's current live job index to its
// slot; removed slots are marked dead and their edges stay behind at
// zero capacity.
type sessNet struct {
	g     *flow.Graph
	valid bool

	nSlots int
	slotOf []int32 // live job index -> slot
	dead   []bool  // per slot: removed from the session
	zeroed []bool  // per slot: edges zeroed by a phase's rejection rounds

	jobNode   []int32       // per slot
	srcEdges  []flow.EdgeID // per slot
	ivNode    []int32       // per interval
	sinkEdges []flow.EdgeID // per interval
	midSlot   []int32
	midIv     []int32
	midID     []flow.EdgeID
	sink      int
	ivs       []job.Interval // partition the network was built on
}

// beginSessionPhase runs the solve's first phase on the persistent
// network, building it when invalid and attach-reconciling it when
// reusable. Contraction is disabled for the session phase so the
// network keeps the raw interval shape across resolves; supValid
// suppresses the per-phase partition recompute for any later build
// inside this phase.
func (e *floatEngine) beginSessionPhase() {
	e.con.on = false
	e.supValid = true
	if e.sess.valid {
		e.attachSessionNet()
	} else {
		e.buildSessionNet()
	}
}

// buildSessionNet constructs the first-phase network into the session's
// persistent graph, via the same layout and edge-order routines as
// buildRaw, and records the slot bookkeeping attach needs later.
func (e *floatEngine) buildSessionNet() {
	sn := e.sess
	node := e.rawLayout()
	if sn.g == nil {
		sn.g = flow.NewGraph(node + 1)
	} else {
		sn.g.Reset(node + 1)
	}
	e.g = sn.g
	e.rawEdges()
	n := len(e.cand0)
	sn.nSlots = n
	sn.slotOf = growInt32s(sn.slotOf, n)
	sn.dead = growBools(sn.dead, n)
	sn.zeroed = growBools(sn.zeroed, n)
	for i := 0; i < n; i++ {
		sn.slotOf[i] = int32(i)
		sn.dead[i] = false
		sn.zeroed[i] = false
	}
	sn.jobNode = append(sn.jobNode[:0], e.jobNode[:n]...)
	sn.srcEdges = append(sn.srcEdges[:0], e.srcEdges[:n]...)
	sn.ivNode = append(sn.ivNode[:0], e.ivNode...)
	sn.sinkEdges = append(sn.sinkEdges[:0], e.sinkEdges...)
	sn.midSlot = append(sn.midSlot[:0], e.midPos...)
	sn.midIv = append(sn.midIv[:0], e.midIv...)
	sn.midID = append(sn.midID[:0], e.midID...)
	sn.sink = e.sink
	sn.ivs = append(sn.ivs[:0], e.ivs...)
	sn.valid = true
	e.rec.Add("opt.graph_rebuilds", 1)
	e.rec.Add("opt.session_net_builds", 1)
	e.prevOps = flow.DinicOps{}
	e.warmFlow = false
	e.needBuild = false
	e.sessPhase = true
}

// attachSessionNet points the engine at the persistent network and
// reconciles it with the current candidate set: translate the per-slot
// arrays to live positions, restore the capacities of slots a previous
// phase's rounds zeroed, and re-set every live capacity to the absolute
// expression of the new conjectured speed. The subsequent MaxFlow
// re-augments the surviving flow (a warm round, not a cold solve).
func (e *floatEngine) attachSessionNet() {
	sn := e.sess
	n := len(e.cand0)
	e.g = sn.g
	e.sink = sn.sink
	e.posOfSlot = growInt32s(e.posOfSlot, sn.nSlots)
	for s := range e.posOfSlot[:sn.nSlots] {
		e.posOfSlot[s] = -1
	}
	e.jobNode = growInt32s(e.jobNode, n)
	e.srcEdges = growEdgeIDs(e.srcEdges, n)
	for pos := 0; pos < n; pos++ {
		slot := sn.slotOf[pos]
		e.posOfSlot[slot] = int32(pos)
		e.jobNode[pos] = sn.jobNode[slot]
		e.srcEdges[pos] = sn.srcEdges[slot]
	}
	e.ivNode = append(e.ivNode[:0], sn.ivNode...)
	e.sinkEdges = append(e.sinkEdges[:0], sn.sinkEdges...)
	// Translate the mid-edge arrays to live candidate positions. Dead
	// slots keep their zero-capacity edges under pos -1; zeroed live
	// slots (phase-removed last resolve, still in the session) get their
	// interval-edge capacities restored.
	e.midPos = e.midPos[:0]
	e.midIv = e.midIv[:0]
	e.midID = e.midID[:0]
	for i, slot := range sn.midSlot {
		pos := e.posOfSlot[slot]
		e.midPos = append(e.midPos, pos)
		e.midIv = append(e.midIv, sn.midIv[i])
		e.midID = append(e.midID, sn.midID[i])
		if pos >= 0 && sn.zeroed[slot] {
			e.g.SetCapacity(sn.midID[i], e.ivLen[sn.midIv[i]])
		}
	}
	for pos, k := range e.cand0 {
		sn.zeroed[sn.slotOf[pos]] = false
		e.g.SetCapacity(e.srcEdges[pos], e.in.Jobs[k].Work/e.speed)
	}
	for jx := range e.ivs {
		if e.ivNode[jx] >= 0 {
			e.g.SetCapacity(e.sinkEdges[jx], float64(e.mj[jx])*e.ivLen[jx])
		}
	}
	e.rec.Add("opt.session_attaches", 1)
	e.prevOps = e.g.Ops()
	e.warmFlow = true
	e.needBuild = false
	e.sessPhase = true
}

// capFeasNet is the persistent speed-cap feasibility network of a
// Session, mirroring feasibleProbe's shape (source -> job at work/cap,
// job -> interval at |I|, interval -> sink at M*|I|). A cap retune
// re-sets the source capacities absolutely and re-augments warm.
type capFeasNet struct {
	g       *flow.Graph
	valid   bool
	slotOf  []int32
	dead    []bool
	src     []flow.EdgeID
	sink    int
	ivs     []job.Interval
	prevOps flow.DinicOps
}

// Session is a mutable solving session: a job set revised by deltas,
// re-solved on demand with warm continuation across resolves. Sessions
// are created from a Solver and borrow its arenas during Resolve; like
// the Solver itself, a Session is not safe for concurrent use, and a
// Solver must not run another solve while one of its sessions is
// mid-Resolve (interleaved calls between resolves are fine — each
// resolve re-attaches its own state).
type Session struct {
	solver *Solver
	cfg    config

	m    int
	jobs []job.Job
	ids  map[int]int // job ID -> index in jobs
	cap  float64     // 0 = no cap tracking

	net    sessNet
	capNet capFeasNet
}

// SessionResult is one resolve's outcome.
type SessionResult struct {
	Res *Result
	// Incremental reports that the resolve reused the persistent
	// first-phase network (a warm delta solve, not a rebuild).
	Incremental bool
	// Cap echoes the session's speed cap; CapFeasible is the
	// feasibility verdict at that cap, valid only when Cap > 0.
	Cap         float64
	CapFeasible bool
}

// NewSession starts a session over the instance. Options become the
// session defaults for every resolve: Exact() pins the exact engine,
// WithRecorder/WithTolerance/WithContraction behave as in Schedule.
// Unlike the round loop, sessions address jobs by ID
// (RemoveJob), so duplicate IDs are rejected here.
func (s *Solver) NewSession(in *job.Instance, opts ...Option) (*Session, error) {
	cfg := config{tol: flow.SolveTolerance}
	for _, o := range opts {
		o(&cfg)
	}
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	ids := make(map[int]int, len(in.Jobs))
	for i, j := range in.Jobs {
		if prev, dup := ids[j.ID]; dup {
			return nil, fmt.Errorf("%w: duplicate job id %d (positions %d and %d)",
				mpsserr.ErrInvalidInstance, j.ID, prev, i)
		}
		ids[j.ID] = i
	}
	return &Session{
		solver: s,
		cfg:    cfg,
		m:      in.M,
		jobs:   append([]job.Job(nil), in.Jobs...),
		ids:    ids,
	}, nil
}

// N returns the current number of jobs in the session.
func (ss *Session) N() int { return len(ss.jobs) }

// M returns the processor count.
func (ss *Session) M() int { return ss.m }

// Cap returns the session's speed cap (0 = none).
func (ss *Session) Cap() float64 { return ss.cap }

// Jobs returns a copy of the current job set.
func (ss *Session) Jobs() []job.Job { return append([]job.Job(nil), ss.jobs...) }

// Has reports whether the session holds a job with the given ID.
func (ss *Session) Has(id int) bool {
	_, ok := ss.ids[id]
	return ok
}

// AddJob appends a job to the session. Structural change: a new vertex
// cannot be spliced into the persistent networks without disordering
// the adjacency relative to a cold build, so both are invalidated and
// the next resolve rebuilds.
func (ss *Session) AddJob(j job.Job) error {
	if err := j.Validate(); err != nil {
		return err
	}
	if _, dup := ss.ids[j.ID]; dup {
		return fmt.Errorf("%w: session already has job id %d", mpsserr.ErrInvalidInstance, j.ID)
	}
	ss.ids[j.ID] = len(ss.jobs)
	ss.jobs = append(ss.jobs, j)
	ss.net.valid = false
	ss.capNet.valid = false
	return nil
}

// RemoveJob removes the job with the given ID, draining its flow from
// both persistent networks in place (the incremental mutation path).
// The zero-capacity remnant edges stay behind; see the package comment
// for why they do not disturb later warm solves.
func (ss *Session) RemoveJob(id int) error {
	i, ok := ss.ids[id]
	if !ok {
		return fmt.Errorf("%w: session has no job id %d", mpsserr.ErrInvalidInstance, id)
	}
	if ss.net.valid {
		slot := ss.net.slotOf[i]
		if !ss.net.zeroed[slot] {
			// Phase-removed slots were already zeroed by the rounds.
			ss.net.g.RemoveJobEdge(ss.net.srcEdges[slot])
		}
		ss.net.dead[slot] = true
		ss.net.slotOf = append(ss.net.slotOf[:i], ss.net.slotOf[i+1:]...)
	}
	if ss.capNet.valid {
		slot := ss.capNet.slotOf[i]
		ss.capNet.g.RemoveJobEdge(ss.capNet.src[slot])
		ss.capNet.dead[slot] = true
		ss.capNet.slotOf = append(ss.capNet.slotOf[:i], ss.capNet.slotOf[i+1:]...)
	}
	ss.jobs = append(ss.jobs[:i], ss.jobs[i+1:]...)
	delete(ss.ids, id)
	for k := i; k < len(ss.jobs); k++ {
		ss.ids[ss.jobs[k].ID] = k
	}
	return nil
}

// SetCap retunes the session's speed cap; 0 clears it. The feasibility
// verdict at the cap is recomputed on the next Resolve, reusing the
// persistent cap network when only the source capacities changed.
func (ss *Session) SetCap(c float64) error {
	if c < 0 || math.IsNaN(c) || math.IsInf(c, 0) {
		return fmt.Errorf("opt: invalid speed cap %v: %w", c, mpsserr.ErrInvalidInstance)
	}
	ss.cap = c
	return nil
}

// Close releases the persistent networks. The session may keep being
// used; the next resolve rebuilds.
func (ss *Session) Close() {
	ss.net = sessNet{}
	ss.capNet = capFeasNet{}
}

// Resolve solves the session's current job set. The result is
// bit-identical to a one-shot Schedule of the same instance with the
// session's options; Incremental reports whether the warm persistent
// network carried the first phase. An error leaves the session usable —
// the persistent network is invalidated and the next resolve rebuilds.
func (ss *Session) Resolve(ctx context.Context) (*SessionResult, error) {
	if ctx == nil {
		ctx = ss.cfg.ctx
	}
	in := &job.Instance{M: ss.m, Jobs: ss.jobs}
	if err := validateForSolve(in); err != nil {
		return nil, err
	}
	rec, span := ss.cfg.rec, ss.cfg.span
	if span == nil {
		span = rec.Root()
	}
	if rec == nil {
		rec = span.Recorder()
	}
	rec.Add("opt.session_resolves", 1)
	out := &SessionResult{Cap: ss.cap}
	var res *Result
	var err error
	if ss.cfg.exact || ss.cfg.cold {
		// Exact rational resolves (and explicit cold-start sessions)
		// re-solve the full instance through the ordinary path on the
		// session's warm arena; it IS the one-shot path.
		res, err = ss.solver.Schedule(in, ss.scheduleOpts(ctx)...)
	} else {
		res, err = ss.resolveFloat(ctx, in, rec, span, out)
	}
	if err != nil {
		ss.net.valid = false
		return nil, err
	}
	out.Res = res
	if ss.cap > 0 {
		feasible, ferr := ss.capFeasible(ctx, rec)
		if ferr != nil {
			return nil, ferr
		}
		out.CapFeasible = feasible
	}
	return out, nil
}

// scheduleOpts translates the session defaults into Schedule options.
func (ss *Session) scheduleOpts(ctx context.Context) []Option {
	opts := []Option{
		WithRecorder(ss.cfg.rec), UnderSpan(ss.cfg.span), WithContext(ctx),
		WithTolerance(ss.cfg.tol), WithContraction(!ss.cfg.noContract),
	}
	if ss.cfg.exact {
		opts = append(opts, Exact())
	}
	if ss.cfg.cold {
		opts = append(opts, ColdStart())
	}
	return opts
}

// resolveFloat runs the float engine with the persistent network
// attached. On a retryable failure it falls back to the full Schedule
// ladder (plain warm, cold, exact) without session attachment.
func (ss *Session) resolveFloat(ctx context.Context, in *job.Instance, rec *obs.Recorder, span *obs.Span, out *SessionResult) (*Result, error) {
	if ss.net.valid && !sameIntervals(job.Partition(ss.jobs), ss.net.ivs) {
		// The deltas changed the event-point partition: the persistent
		// interval layout no longer matches, rebuild.
		ss.net.valid = false
	}
	warm := ss.net.valid
	fe := &ss.solver.fe
	fe.tol = ss.cfg.tol
	fe.cold = false
	fe.contract = !ss.cfg.noContract
	fe.sess = &ss.net
	res, err := runPhases(ctx, in, fe, rec, span)
	fe.sess = nil
	fe.sessPhase = false
	if err == nil {
		out.Incremental = warm && ss.net.valid
		return res, nil
	}
	ss.net.valid = false
	if !retryable(err) {
		return nil, err
	}
	rec.Add("opt.session_fallbacks", 1)
	return ss.solver.Schedule(in,
		WithRecorder(rec), UnderSpan(span), WithContext(ctx), WithTolerance(ss.cfg.tol),
		WithContraction(!ss.cfg.noContract))
}

// capFeasible answers FeasibleAtSpeed for the session's cap, with the
// same verdict semantics as feasibleProbe, reusing the persistent cap
// network when the partition is unchanged (a cap retune touches only
// the source capacities).
func (ss *Session) capFeasible(ctx context.Context, rec *obs.Recorder) (bool, error) {
	s := ss.cap
	if cerr := canceled(ctx, 0, 0); cerr != nil {
		return false, cerr
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return false, fmt.Errorf("opt: invalid speed cap %v: %w", s, mpsserr.ErrInvalidInstance)
	}
	rec.Add("opt.feasibility_probes", 1)
	// feasibleProbe's per-job fast reject, in the same job order.
	var demand float64
	for _, j := range ss.jobs {
		need := j.Work / s
		if need > j.Span()*(1+flow.DefaultTolerance) {
			return false, nil
		}
		demand += need
	}
	ivs := job.Partition(ss.jobs)
	cn := &ss.capNet
	if cn.valid && !sameIntervals(ivs, cn.ivs) {
		cn.valid = false
	}
	var value float64
	if !cn.valid {
		ss.buildCapNet(ivs)
		rec.Add("opt.session_capnet_builds", 1)
		stop := rec.Time("opt.flow_solve_seconds")
		value = cn.g.MaxFlow(0, cn.sink)
		stop()
	} else {
		for i, j := range ss.jobs {
			// Absolute re-set, not a multiplicative rescale: repeated
			// retunes through a scale factor would drift from the
			// work/cap a cold probe computes.
			cn.g.SetCapacity(cn.src[cn.slotOf[i]], j.Work/s)
		}
		rec.Add("opt.session_capnet_reuses", 1)
		rec.Add("flow.warm_hits", 1)
		stop := rec.Time("opt.flow_solve_seconds")
		cn.g.MaxFlow(0, cn.sink)
		stop()
		for i := range ss.jobs {
			value += cn.g.Flow(cn.src[cn.slotOf[i]])
		}
	}
	ops := cn.g.Ops()
	publishDinic(rec, nil, ops.Sub(cn.prevOps))
	cn.prevOps = ops
	return value >= demand-flow.SolveTolerance*math.Max(1, demand), nil
}

// buildCapNet constructs the cap feasibility network in feasibleProbe's
// exact shape and edge order.
func (ss *Session) buildCapNet(ivs []job.Interval) {
	cn := &ss.capNet
	n := len(ss.jobs)
	node := 1 + n
	ivNode := make([]int, len(ivs))
	for jx := range ivs {
		ivNode[jx] = node
		node++
	}
	cn.sink = node
	if cn.g == nil {
		cn.g = flow.NewGraph(node + 1)
	} else {
		cn.g.Reset(node + 1)
	}
	cn.src = growEdgeIDs(cn.src, n)
	cn.slotOf = growInt32s(cn.slotOf, n)
	cn.dead = growBools(cn.dead, n)
	for i, j := range ss.jobs {
		cn.slotOf[i] = int32(i)
		cn.dead[i] = false
		cn.src[i] = cn.g.AddEdge(0, 1+i, j.Work/ss.cap)
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				cn.g.AddEdge(1+i, ivNode[jx], iv.Len())
			}
		}
	}
	for jx, iv := range ivs {
		cn.g.AddEdge(ivNode[jx], cn.sink, float64(ss.m)*iv.Len())
	}
	cn.ivs = append(cn.ivs[:0], ivs...)
	cn.prevOps = flow.DinicOps{}
	cn.valid = true
}

// sameIntervals reports bitwise equality of two partitions; the
// persistent networks key their reuse condition on it.
func sameIntervals(a, b []job.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].End != b[i].End {
			return false
		}
	}
	return true
}
