package opt

import (
	"fmt"
	"math/big"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// exactEngine mirrors floatEngine with exact rational arithmetic for
// every phase decision. float64 inputs are converted losslessly (every
// finite float64 is a rational), so saturation tests and job removals
// are exact; only the final segment emission rounds back to float64.
//
// Every round builds its flow.RatGraph for the round's candidate set and
// solves it from zero flow, as the paper's pseudo-code does: a rejected
// round drains nothing, it only marks the excluded jobs and lowers m_j.
// The accepted round's flow is therefore the from-zero flow of the
// accepted network, the one emission needs; only a contracted phase
// rebuilds the raw network for emission (accept).
type exactEngine struct {
	contract bool // merge flow-equivalent interval runs before solving

	in  *job.Instance
	ivs []job.Interval
	st  *Stats
	rec *obs.Recorder

	ivLen    []*big.Rat
	rawHeads []int32 // identity: raw interval jx is its own node's head
	work     []*big.Rat
	jobIvs   [][]int32

	span        *obs.Span
	cand0       []int
	alive       []bool
	aliveCount  int
	free        []int
	activeCount []int
	byIv        [][]int32
	mj          []int
	totalWork   *big.Rat
	totalTime   *big.Rat
	speed       *big.Rat

	// Super-interval partition (contract.go). In exact arithmetic the
	// contracted and raw networks have identical max-flow values and
	// residual co-reachability, so every phase decision provably matches
	// the raw path's.
	con      contraction
	supLen   []*big.Rat
	supValid bool

	g         *flow.RatGraph
	needBuild bool
	jobNode   []int32
	ivNode    []int32
	sink      int
	srcEdges  []flow.EdgeID
	midPos    []int32
	midIv     []int32
	midID     []flow.EdgeID
	prevOps   flow.DinicOps
	excluded  []int // candidate positions the last rejected round excluded
	accepted  []int
	emitScratch
}

func (e *exactEngine) spanName(phase int) string { return fmt.Sprintf("phase %d (exact)", phase) }

func (e *exactEngine) emptyErr() error {
	// Exact arithmetic cannot misclassify a feasible conjecture, so an
	// emptied candidate set here is a solver bug, not a precision issue.
	return fmt.Errorf("opt: exact phase emptied its candidate set: %w", mpsserr.ErrInternal)
}

func (e *exactEngine) prepare(in *job.Instance, ivs []job.Interval, st *Stats, rec *obs.Recorder) {
	e.in, e.ivs, e.st, e.rec = in, ivs, st, rec
	e.ivLen = e.ivLen[:0]
	for _, iv := range ivs {
		e.ivLen = append(e.ivLen, new(big.Rat).SetFloat64(iv.Len()))
	}
	e.rawHeads = identity(e.rawHeads, len(ivs))
	e.work = e.work[:0]
	for _, j := range in.Jobs {
		e.work = append(e.work, new(big.Rat).SetFloat64(j.Work))
	}
	e.jobIvs = growLists(e.jobIvs, in.N())
	for k, j := range in.Jobs {
		e.jobIvs[k] = e.jobIvs[k][:0]
		lo, hi := activeRun(ivs, j)
		for jx := lo; jx < hi; jx++ {
			e.jobIvs[k] = append(e.jobIvs[k], int32(jx))
		}
	}
}

func (e *exactEngine) beginPhase(used, cand []int, span *obs.Span) bool {
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
	for jx := range e.byIv {
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
	e.needBuild = true
	e.supValid = false
	e.con.on = false
	for jx := 0; jx < nIv; jx++ {
		e.mj[jx] = min(e.activeCount[jx], e.free[jx])
	}
	e.recomputeTotals()
	if e.totalTime.Sign() <= 0 {
		return true
	}
	e.speed = new(big.Rat).Quo(e.totalWork, e.totalTime)
	e.buildGraph()
	return false
}

func (e *exactEngine) recomputeTotals() {
	tw := new(big.Rat)
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			tw.Add(tw, e.work[k])
		}
	}
	tt := new(big.Rat)
	term := new(big.Rat)
	for jx := range e.ivs {
		if e.mj[jx] > 0 {
			term.SetInt64(int64(e.mj[jx]))
			term.Mul(term, e.ivLen[jx])
			tt.Add(tt, term)
		}
	}
	e.totalWork, e.totalTime = tw, tt
}

func (e *exactEngine) buildGraph() {
	if e.contract && !e.supValid {
		raw := e.con.compute(e.byIv, e.mj)
		e.supLen = e.con.sumLensRat(e.supLen, e.ivLen)
		e.con.on = e.con.nSup < raw
		e.supValid = true
		e.rec.Add("opt.intervals_raw", int64(raw))
		e.rec.Add("opt.intervals_contracted", int64(raw-e.con.nSup))
	}
	e.buildNet("opt.graph_rebuilds")
}

// buildNet builds the round's flow.RatGraph over the interval nodes of
// the current mode: the raw intervals, or the super-intervals while the
// phase runs contracted. Node i stands for raw interval heads[i], whose
// candidate list and m_j it takes, with length lens[i]; intervals with
// m_j = 0 get no vertex and no edges. counter names the rebuild class
// recorded ("opt.graph_rebuilds" for round builds, "opt.emit_rebuilds"
// for the emission rebuild after contracted rounds).
func (e *exactEngine) buildNet(counter string) {
	heads, lens := e.rawHeads, e.ivLen
	if e.con.on {
		heads, lens = e.con.supHead, e.supLen
	}
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
	e.ivNode = growInt32s(e.ivNode, len(heads))
	for i, head := range heads {
		if e.mj[head] > 0 {
			e.ivNode[i] = int32(node)
			node++
		} else {
			e.ivNode[i] = -1
		}
	}
	e.sink = node
	if e.g == nil {
		e.g = flow.NewRatGraph(node + 1)
	} else {
		e.g.Reset(node + 1)
	}
	if node+1 > e.st.FlowVertices {
		e.st.FlowVertices = node + 1
	}
	c := new(big.Rat)
	e.srcEdges = growEdgeIDs(e.srcEdges, len(e.cand0))
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			c.Quo(e.work[k], e.speed)
			e.srcEdges[pos] = e.g.AddEdge(0, int(e.jobNode[pos]), c)
		}
	}
	e.midPos = e.midPos[:0]
	e.midIv = e.midIv[:0]
	e.midID = e.midID[:0]
	for i, head := range heads {
		if e.ivNode[i] < 0 {
			continue
		}
		for _, pos := range e.byIv[head] {
			if !e.alive[pos] {
				continue
			}
			id := e.g.AddEdge(int(e.jobNode[pos]), int(e.ivNode[i]), lens[i])
			e.midPos = append(e.midPos, pos)
			e.midIv = append(e.midIv, int32(i))
			e.midID = append(e.midID, id)
		}
		c.SetInt64(int64(e.mj[head]))
		c.Mul(c, lens[i])
		e.g.AddEdge(int(e.ivNode[i]), e.sink, c)
	}
	e.rec.Add(counter, 1)
	e.prevOps = flow.DinicOps{}
	e.needBuild = false
}

func (e *exactEngine) publish() {
	ops := e.g.Ops()
	publishExact(e.rec, e.span, ops.Sub(e.prevOps))
	e.prevOps = ops
}

func (e *exactEngine) solveRound() int {
	if e.needBuild {
		e.buildGraph()
	}
	stop := e.rec.Time("opt.flow_solve_seconds")
	e.g.MaxFlow(0, e.sink)
	stop()
	e.publish()

	value := new(big.Rat)
	for pos := range e.cand0 {
		if e.alive[pos] {
			value.Add(value, e.g.Flow(e.srcEdges[pos]))
		}
	}
	if value.Cmp(e.totalTime) >= 0 {
		return 0
	}
	// Every co-reachable candidate is outside J_i (see floatEngine's
	// solveRound), so the round excludes all of them at once.
	mark := e.g.CoReachable(e.sink)
	e.excluded = e.excluded[:0]
	for pos := range e.cand0 {
		if e.alive[pos] && mark[e.jobNode[pos]] {
			e.excluded = append(e.excluded, pos)
		}
	}
	// Unreachable by Lemma 4's counting argument; accept defensively.
	return len(e.excluded)
}

func (e *exactEngine) excludedJobs(dst []int) []int {
	for _, pos := range e.excluded {
		dst = append(dst, e.cand0[pos])
	}
	return dst
}

func (e *exactEngine) removeExcluded() (degenerate, empty bool) {
	e.aliveCount -= len(e.excluded)
	if e.aliveCount == 0 {
		return false, true
	}
	for _, pos := range e.excluded {
		e.drop(pos)
	}
	return e.reconjecture(), false
}

func (e *exactEngine) dropLeastWork() (degenerate, empty bool) {
	best := -1
	for pos, k := range e.cand0 {
		if e.alive[pos] && (best < 0 || e.in.Jobs[k].Work < e.in.Jobs[e.cand0[best]].Work) {
			best = pos
		}
	}
	e.aliveCount--
	if e.aliveCount == 0 {
		return false, true
	}
	e.drop(best)
	return e.reconjecture(), false
}

// drop takes candidate pos out of the conjectured set and lowers the
// m_j of its intervals.
func (e *exactEngine) drop(pos int) {
	e.alive[pos] = false
	for _, jx := range e.jobIvs[e.cand0[pos]] {
		e.activeCount[jx]--
		e.mj[jx] = min(e.activeCount[jx], e.free[jx])
	}
}

// reconjecture recomputes the totals and the speed after drops; the next
// round builds its network afresh. It reports a network with no
// capacity left.
func (e *exactEngine) reconjecture() (degenerate bool) {
	e.needBuild = true
	e.recomputeTotals()
	if e.totalTime.Sign() <= 0 {
		return true
	}
	e.speed = new(big.Rat).Quo(e.totalWork, e.totalTime)
	return false
}

func (e *exactEngine) accept() (float64, []int, []piece) {
	if e.con.on {
		// See floatEngine.accept: emission needs raw per-interval flows,
		// so rebuild the raw-shaped network and solve from zero.
		e.con.on = false
		e.buildNet("opt.emit_rebuilds")
		stop := e.rec.Time("opt.flow_solve_seconds")
		e.g.MaxFlow(0, e.sink)
		stop()
		e.publish()
	}
	// Interval order, as in the float engine: buildNet adds the mid
	// edges interval by interval.
	e.pieces = e.pieces[:0]
	for i, pos := range e.midPos {
		if !e.alive[pos] {
			continue
		}
		if f := e.g.Flow(e.midID[i]); f.Sign() > 0 {
			fv, _ := f.Float64()
			e.pieces = append(e.pieces, piece{k: e.cand0[pos], ivIdx: int(e.midIv[i]), t: fv})
		}
	}
	sp, _ := e.speed.Float64()
	return sp, e.mj, e.pieces
}

func (e *exactEngine) acceptedCand() []int {
	e.accepted = e.accepted[:0]
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			e.accepted = append(e.accepted, k)
		}
	}
	return e.accepted
}
