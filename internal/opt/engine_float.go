package opt

import (
	"fmt"
	"math"
	"time"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// floatEngine is the float64 fast path of the round loop. All slices are
// arenas reused across phases and Schedule calls.
//
// Warm path (default): beginPhase builds G(J, m, s) once; every
// rejection drains the excluded jobs' flow and updates capacities in
// place, and the next round's MaxFlow re-augments from the surviving
// flow. When a phase accepts after at least one removal the flow is
// canonicalized (ResetFlow + one solve from zero) so the emitted
// per-interval times are bit-identical to what a cold rebuild of the
// final network would produce — removed jobs and dead intervals survive
// in the network only as zero-capacity edges, which Dinic's search never
// traverses, so the augmentation sequence matches the cold one exactly.
//
// Capacities are re-set to the same absolute expressions the cold build
// uses (work/speed, m_j*|I_j|) rather than multiplicatively rescaled:
// float64 multiplication is not associative, and (w/s1)*(s1/s2) differs
// from w/s2 in the last ulp, which would break the warm==cold guarantee.
type floatEngine struct {
	tol      float64
	cold     bool
	contract bool // merge flow-equivalent interval runs before solving
	par      int  // workers for cold solves above ParallelEdgeThreshold; <= 1 = sequential

	in        *job.Instance
	ivs       []job.Interval
	st        *Stats
	rec       *obs.Recorder
	solveHist *obs.Histogram // cached "opt.flow_solve_seconds" handle (nil = observability off)

	ivLen  []float64 // |I_j| per interval
	jobIvs [][]int32 // per instance job: indices of intervals it is active in

	// Per-phase state, all indexed by phase-initial candidate position.
	span        *obs.Span
	cand0       []int
	alive       []bool
	aliveCount  int
	free        []int // per interval: m - used, fixed for the phase
	activeCount []int // per interval: alive candidates active in it
	byIv        [][]int32
	mj          []int
	totalWork   float64
	totalTime   float64
	speed       float64

	// Super-interval partition (contract.go), computed once per phase on
	// the first graph build and reused by every later build in the phase.
	con      contraction
	supLen   []float64 // per super-interval: summed member length
	supNode  []int32   // per super-interval: vertex, -1 when m_j = 0
	supSink  []flow.EdgeID
	supValid bool

	// Flow network state (valid when needBuild is false). g aliases the
	// graph the current phase solves on: own for ordinary phases (the
	// engine-owned arena every build targets), or sess.g while a session
	// solve's first phase runs on the persistent network (session.go).
	g          *flow.Graph
	own        *flow.Graph
	sess       *sessNet // non-nil only while a Session resolve runs
	sessPhase  bool     // current phase runs on sess.g
	firstPhase bool     // next beginPhase starts the solve's first phase
	posOfSlot  []int32  // scratch: session slot -> live candidate pos
	needBuild  bool
	jobNode    []int32
	ivNode     []int32
	sink       int
	srcEdges   []flow.EdgeID
	sinkEdges  []flow.EdgeID
	midPos     []int32
	midIv      []int32
	midID      []flow.EdgeID
	prevOps    flow.DinicOps
	warmRound  bool  // true once the current network has been solved
	removals   int   // warm rejecting rounds this phase
	excluded   []int // candidate positions the last rejected round excluded
	accepted   []int
}

func (e *floatEngine) spanName(phase int) string { return fmt.Sprintf("phase %d", phase) }

func (e *floatEngine) emptyErr() error {
	return fmt.Errorf("opt: phase emptied its candidate set: %w", mpsserr.ErrNumeric)
}

func (e *floatEngine) prepare(in *job.Instance, ivs []job.Interval, st *Stats, rec *obs.Recorder) {
	e.in, e.ivs, e.st, e.rec = in, ivs, st, rec
	e.firstPhase = true
	// The histogram handle is cached once per solve: rec.Time allocates a
	// closure per call, which the per-round profile showed as real.
	e.solveHist = rec.Histogram("opt.flow_solve_seconds")
	nIv := len(ivs)
	e.ivLen = growFloats(e.ivLen, nIv)
	for jx, iv := range ivs {
		e.ivLen[jx] = iv.Len()
	}
	// The job×interval activity index, computed once per solve instead of
	// once per round: jobIvs[k] lists the intervals job k is active in.
	e.jobIvs = growLists(e.jobIvs, in.N())
	for k, j := range in.Jobs {
		e.jobIvs[k] = e.jobIvs[k][:0]
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				e.jobIvs[k] = append(e.jobIvs[k], int32(jx))
			}
		}
	}
}

func (e *floatEngine) beginPhase(used, cand []int, span *obs.Span) bool {
	e.span = span
	e.cand0 = append(e.cand0[:0], cand...)
	n := len(cand)
	e.alive = growBools(e.alive, n)
	for pos := range e.alive {
		e.alive[pos] = true
	}
	e.aliveCount = n
	nIv := len(e.ivs)
	e.free = growInts(e.free, nIv)
	e.activeCount = growInts(e.activeCount, nIv)
	e.mj = growInts(e.mj, nIv)
	e.byIv = growLists(e.byIv, nIv)
	for jx := range e.byIv[:nIv] {
		e.free[jx] = max(0, e.in.M-used[jx])
		e.activeCount[jx] = 0
		e.byIv[jx] = e.byIv[jx][:0]
	}
	for pos, k := range cand {
		for _, jx := range e.jobIvs[k] {
			e.byIv[jx] = append(e.byIv[jx], int32(pos))
			e.activeCount[jx]++
		}
	}
	e.removals = 0
	e.needBuild = true
	e.supValid = false
	e.con.on = false
	first := e.firstPhase
	e.firstPhase = false
	e.sessPhase = false
	for jx := 0; jx < nIv; jx++ {
		e.mj[jx] = min(e.activeCount[jx], e.free[jx])
	}
	e.recomputeTotals()
	if e.totalTime <= 0 {
		if first && e.sess != nil {
			// A degenerate first phase never touches the persistent
			// network, but its next build would happen with a shrunken
			// candidate set mid-phase — force a rebuild next resolve.
			e.sess.valid = false
		}
		return true
	}
	e.speed = e.totalWork / e.totalTime
	if first && e.sess != nil {
		e.beginSessionPhase()
		return false
	}
	e.buildGraph()
	return false
}

// recomputeTotals recomputes totalWork and totalTime from scratch after
// every change to the candidate set. Incremental subtraction would be
// O(1) but floats are not associative: summing fresh, in the same index
// order as a cold build, keeps the conjectured speed bit-identical to
// the cold path's. Intervals with mj = 0 are skipped rather than added
// as zero terms: a gap interval between distant job clusters can have
// an overflowed (infinite) length, and 0 * Inf would poison the sum
// with NaN (the exact engine skips them the same way).
func (e *floatEngine) recomputeTotals() {
	tw := 0.0
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			tw += e.in.Jobs[k].Work
		}
	}
	tt := 0.0
	for jx := range e.ivs {
		if e.mj[jx] > 0 {
			tt += float64(e.mj[jx]) * e.ivLen[jx]
		}
	}
	e.totalWork, e.totalTime = tw, tt
}

// buildGraph constructs G(J, m, s) for the current alive candidate set.
// The warm path calls it once per phase; the cold path once per round.
// With contraction enabled it computes the phase's super-interval
// partition on the first build and dispatches to the contracted shape
// whenever merging actually removes interval nodes (see contract.go).
func (e *floatEngine) buildGraph() {
	if e.contract && !e.supValid {
		raw := e.con.compute(e.byIv, e.mj)
		e.supLen = e.con.sumLens(e.supLen, e.ivLen)
		e.con.on = e.con.nSup < raw
		e.supValid = true
		e.rec.Add("opt.intervals_raw", int64(raw))
		e.rec.Add("opt.intervals_contracted", int64(raw-e.con.nSup))
	}
	if e.con.on {
		e.buildContracted()
		return
	}
	e.buildRaw("opt.graph_rebuilds")
}

// buildContracted is buildGraph over the super-interval partition: one
// node and one sink edge per run of merged intervals, job edges carrying
// the summed run length. Capacities follow the same expressions as the
// raw build with supLen in place of ivLen.
func (e *floatEngine) buildContracted() {
	e.jobNode = growInt32s(e.jobNode, len(e.cand0))
	node := 1
	for pos := range e.cand0 {
		if e.alive[pos] {
			e.jobNode[pos] = int32(node)
			node++
		} else {
			e.jobNode[pos] = -1
		}
	}
	e.supNode = growInt32s(e.supNode, e.con.nSup)
	for s := 0; s < e.con.nSup; s++ {
		if e.mj[e.con.supHead[s]] > 0 {
			e.supNode[s] = int32(node)
			node++
		} else {
			e.supNode[s] = -1
		}
	}
	e.sink = node
	if e.own == nil {
		e.own = flow.NewGraph(node + 1)
	} else {
		e.own.Reset(node + 1)
	}
	e.g = e.own
	if node+1 > e.st.FlowVertices {
		e.st.FlowVertices = node + 1
	}
	e.srcEdges = growEdgeIDs(e.srcEdges, len(e.cand0))
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			e.srcEdges[pos] = e.g.AddEdge(0, int(e.jobNode[pos]), e.in.Jobs[k].Work/e.speed)
		}
	}
	e.midPos = e.midPos[:0]
	e.midIv = e.midIv[:0]
	e.midID = e.midID[:0]
	e.supSink = growEdgeIDs(e.supSink, e.con.nSup)
	for s := 0; s < e.con.nSup; s++ {
		if e.supNode[s] < 0 {
			continue
		}
		head := e.con.supHead[s]
		for _, pos := range e.byIv[head] {
			if !e.alive[pos] {
				continue
			}
			id := e.g.AddEdge(int(e.jobNode[pos]), int(e.supNode[s]), e.supLen[s])
			e.midPos = append(e.midPos, pos)
			e.midIv = append(e.midIv, int32(s))
			e.midID = append(e.midID, id)
		}
		e.supSink[s] = e.g.AddEdge(int(e.supNode[s]), e.sink, float64(e.mj[head])*e.supLen[s])
	}
	e.rec.Add("opt.graph_rebuilds", 1)
	e.prevOps = flow.DinicOps{}
	e.warmRound = false
	e.needBuild = false
}

// buildRaw constructs the uncontracted network; counter names the
// rebuild class recorded ("opt.graph_rebuilds" for round builds,
// "opt.emit_rebuilds" for the emission rebuild after contracted rounds).
func (e *floatEngine) buildRaw(counter string) {
	if e.sessPhase {
		// The phase is falling off the persistent session network onto a
		// fresh engine-owned build (degenerate candidate drop mid-phase,
		// or the emission rebuild): the persistent flow is stale relative
		// to the decisions this phase keeps making, so the next session
		// resolve must rebuild it from scratch.
		e.sess.valid = false
		e.sessPhase = false
	}
	node := e.rawLayout()
	if e.own == nil {
		e.own = flow.NewGraph(node + 1)
	} else {
		e.own.Reset(node + 1)
	}
	e.g = e.own
	e.rawEdges()
	e.rec.Add(counter, 1)
	e.prevOps = flow.DinicOps{}
	e.warmRound = false
	e.needBuild = false
}

// rawLayout assigns the uncontracted vertex layout — 0 = source, then
// alive jobs, then intervals with mj > 0, last = sink — and returns the
// sink vertex. Shared by buildRaw and the session network build, which
// must lay vertices out identically for the warm==cold guarantee.
func (e *floatEngine) rawLayout() int {
	nIv := len(e.ivs)
	e.jobNode = growInt32s(e.jobNode, len(e.cand0))
	node := 1
	for pos := range e.cand0 {
		if e.alive[pos] {
			e.jobNode[pos] = int32(node)
			node++
		} else {
			e.jobNode[pos] = -1
		}
	}
	e.ivNode = growInt32s(e.ivNode, nIv)
	for jx := 0; jx < nIv; jx++ {
		if e.mj[jx] > 0 {
			e.ivNode[jx] = int32(node)
			node++
		} else {
			e.ivNode[jx] = -1
		}
	}
	e.sink = node
	if node+1 > e.st.FlowVertices {
		e.st.FlowVertices = node + 1
	}
	return node
}

// rawEdges inserts the uncontracted edge set into e.g in the canonical
// order: all source edges in candidate order, then per interval its job
// edges (byIv order) followed by its sink edge. Every network the
// engine compares bit-for-bit is built through this routine, so the
// adjacency order — which fixes Dinic's augmentation sequence — is the
// same everywhere.
func (e *floatEngine) rawEdges() {
	e.srcEdges = growEdgeIDs(e.srcEdges, len(e.cand0))
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			e.srcEdges[pos] = e.g.AddEdge(0, int(e.jobNode[pos]), e.in.Jobs[k].Work/e.speed)
		}
	}
	e.midPos = e.midPos[:0]
	e.midIv = e.midIv[:0]
	e.midID = e.midID[:0]
	nIv := len(e.ivs)
	e.sinkEdges = growEdgeIDs(e.sinkEdges, nIv)
	for jx := 0; jx < nIv; jx++ {
		if e.mj[jx] == 0 {
			continue
		}
		for _, pos := range e.byIv[jx] {
			if !e.alive[pos] {
				continue
			}
			id := e.g.AddEdge(int(e.jobNode[pos]), int(e.ivNode[jx]), e.ivLen[jx])
			e.midPos = append(e.midPos, pos)
			e.midIv = append(e.midIv, int32(jx))
			e.midID = append(e.midID, id)
		}
		e.sinkEdges[jx] = e.g.AddEdge(int(e.ivNode[jx]), e.sink, float64(e.mj[jx])*e.ivLen[jx])
	}
}

// publish flushes the ops delta of the last MaxFlow call.
func (e *floatEngine) publish() {
	ops := e.g.Ops()
	publishDinic(e.rec, e.span, ops.Sub(e.prevOps))
	e.prevOps = ops
}

// solveFlow runs one max-flow computation with the dispatch policy:
// cold solves (freshly built network, zero flow) above the size
// threshold go to the concurrent push-relabel engine when parallelism
// was requested; everything else — small networks and every warm
// re-augmentation — stays on sequential Dinic, whose incremental restart
// is the fast path parallelism must not regress.
func (e *floatEngine) solveFlow() {
	var t0 time.Time
	if e.solveHist != nil {
		t0 = time.Now()
	}
	if e.par > 1 && !e.warmRound && e.g.EdgeCount() >= ParallelEdgeThreshold {
		prev := e.g.ParOps()
		e.g.MaxFlowParallel(0, e.sink, e.par)
		if e.solveHist != nil {
			e.solveHist.Observe(time.Since(t0).Seconds())
		}
		publishParallel(e.rec, e.span, e.g.ParOps().Sub(prev))
		return
	}
	e.g.MaxFlow(0, e.sink)
	if e.solveHist != nil {
		e.solveHist.Observe(time.Since(t0).Seconds())
	}
	if e.warmRound {
		e.rec.Add("flow.warm_hits", 1)
	}
	e.publish()
}

func (e *floatEngine) solveRound() int {
	if e.needBuild {
		e.buildGraph()
	}
	e.solveFlow()
	e.warmRound = true

	var value float64
	for pos := range e.cand0 {
		if e.alive[pos] {
			value += e.g.Flow(e.srcEdges[pos])
		}
	}
	slack := e.tol * math.Max(1, e.totalTime)
	if value >= e.totalTime-slack {
		return 0
	}
	// Rejected: select the excluded jobs by the flow-invariant rule. A
	// candidate can reach the sink in the residual graph exactly when
	// some maximum flow leaves both one of its interval edges and that
	// interval's sink edge unsaturated — the exclusion condition of the
	// paper's Lemma 4 — and the co-reachable set is the same for every
	// maximum flow, so warm and cold solves exclude the same jobs. Each
	// one is outside J_i on its own, so all of them go in one round.
	mark := e.g.CoReachable(e.sink)
	e.excluded = e.excluded[:0]
	for pos := range e.cand0 {
		if e.alive[pos] && mark[e.jobNode[pos]] {
			e.excluded = append(e.excluded, pos)
		}
	}
	// No excludable candidate despite the value shortfall: only possible
	// through accumulated rounding. Accept, as the cold path always has.
	return len(e.excluded)
}

func (e *floatEngine) excludedJobs(dst []int) []int {
	for _, pos := range e.excluded {
		dst = append(dst, e.cand0[pos])
	}
	return dst
}

func (e *floatEngine) removeExcluded() (degenerate, empty bool) {
	e.aliveCount -= len(e.excluded)
	if e.aliveCount == 0 {
		return false, true
	}
	var drained float64
	for _, pos := range e.excluded {
		e.alive[pos] = false
		for _, jx := range e.jobIvs[e.cand0[pos]] {
			e.activeCount[jx]--
		}
		if !e.cold {
			drained += e.g.RemoveJobEdge(e.srcEdges[pos])
			if e.sessPhase {
				// The rounds zeroed this slot's source and job edges on the
				// persistent network; if the job is still in the session,
				// the next attach must restore those capacities before reuse.
				e.sess.zeroed[e.sess.slotOf[pos]] = true
			}
		}
	}
	// Lower the sink capacities once, after every count has dropped: an
	// interval shared by several excluded jobs is re-set a single time.
	// With contraction on, every member of a run changes identically (a
	// job is active in all of a run or none of it, and equal m_j stay
	// equal), so the run's sink edge is updated once — lastSup dedupes
	// the consecutive members, skipping over m_j = 0 gaps.
	for _, pos := range e.excluded {
		lastSup := int32(-1)
		for _, jx := range e.jobIvs[e.cand0[pos]] {
			nm := min(e.activeCount[jx], e.free[jx])
			if nm >= e.mj[jx] {
				continue
			}
			e.mj[jx] = nm
			if e.cold {
				continue
			}
			if e.con.on {
				if s := e.con.supOf[jx]; s >= 0 && s != lastSup {
					drained += e.g.SetCapacity(e.supSink[s], float64(nm)*e.supLen[s])
					lastSup = s
				}
			} else if e.ivNode[jx] >= 0 {
				drained += e.g.SetCapacity(e.sinkEdges[jx], float64(nm)*e.ivLen[jx])
			}
		}
	}
	e.recomputeTotals()
	if e.totalTime <= 0 {
		e.needBuild = true
		return true, false
	}
	e.speed = e.totalWork / e.totalTime
	if e.cold {
		e.needBuild = true
		return false, false
	}
	e.removals++
	for pos2, k2 := range e.cand0 {
		if e.alive[pos2] {
			drained += e.g.SetCapacity(e.srcEdges[pos2], e.in.Jobs[k2].Work/e.speed)
		}
	}
	e.rec.Add("flow.drained_units", int64(drained+0.5))
	return false, false
}

func (e *floatEngine) dropLeastWork() (degenerate, empty bool) {
	best := -1
	for pos, k := range e.cand0 {
		if e.alive[pos] && (best < 0 || e.in.Jobs[k].Work < e.in.Jobs[e.cand0[best]].Work) {
			best = pos
		}
	}
	k := e.cand0[best]
	e.alive[best] = false
	e.aliveCount--
	if e.aliveCount == 0 {
		return false, true
	}
	for _, jx := range e.jobIvs[k] {
		e.activeCount[jx]--
		e.mj[jx] = min(e.activeCount[jx], e.free[jx])
	}
	e.recomputeTotals()
	if e.totalTime <= 0 {
		return true, false
	}
	e.speed = e.totalWork / e.totalTime
	e.needBuild = true
	return false, false
}

func (e *floatEngine) accept() (float64, []int, map[int][]pieceTime) {
	if e.con.on {
		// Rounds ran on the contracted network, whose flows have no
		// per-raw-interval meaning. Rebuild the raw-shaped network for
		// the surviving candidate set — the exact graph the uncontracted
		// cold path solves for its accepted round — and solve from zero,
		// so the emitted times are bit-identical to the raw path's.
		e.con.on = false
		e.buildRaw("opt.emit_rebuilds")
		e.solveEmit()
	} else if (!e.cold && e.removals > 0) || e.sessPhase {
		// Canonicalize: one solve from zero on the updated network. The
		// zero-capacity remnants of removed jobs never enter Dinic's
		// search, so this reproduces the cold path's flow bit-exactly
		// while still skipping the per-round rebuild-and-resolve work.
		// Session phases always canonicalize, even with zero removals
		// this phase: the persistent network's accepted flow must be the
		// canonical from-zero flow for the next delta's warm reconcile
		// to stay on the cold augmentation sequence.
		e.g.ResetFlow()
		e.solveEmit()
	}
	tkj := make(map[int][]pieceTime, e.aliveCount)
	for i, pos := range e.midPos {
		if pos < 0 || !e.alive[pos] {
			continue
		}
		// Collect every positive flow: dropping pieces at the slack
		// threshold would lose work proportional to the edge count on
		// large instances.
		if f := e.g.Flow(e.midID[i]); f > 1e-15 {
			k := e.cand0[pos]
			tkj[k] = append(tkj[k], pieceTime{ivIdx: int(e.midIv[i]), t: f})
		}
	}
	return e.speed, e.mj, tkj
}

// solveEmit runs the emission-time from-zero solve (histogram-timed,
// ops published) shared by the canonicalization and contracted-accept
// paths.
func (e *floatEngine) solveEmit() {
	var t0 time.Time
	if e.solveHist != nil {
		t0 = time.Now()
	}
	e.g.MaxFlow(0, e.sink)
	if e.solveHist != nil {
		e.solveHist.Observe(time.Since(t0).Seconds())
	}
	e.publish()
}

func (e *floatEngine) acceptedCand() []int {
	e.accepted = e.accepted[:0]
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			e.accepted = append(e.accepted, k)
		}
	}
	return e.accepted
}

// Arena slice helpers: resize preserving backing arrays.

func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func growInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growEdgeIDs(s []flow.EdgeID, n int) []flow.EdgeID {
	if cap(s) < n {
		return make([]flow.EdgeID, n)
	}
	return s[:n]
}

func growLists(s [][]int32, n int) [][]int32 {
	for len(s) < n {
		s = append(s, nil)
	}
	return s[:n]
}
