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
// The warm path reuses the float engine's structure — build once per
// phase, drain the excluded jobs, rescale, re-augment — but because the
// arithmetic is exact it can rescale the source capacities
// multiplicatively with flow.RatGraph.ScaleSourceCaps: w/s_old *
// (s_old/s_new) equals w/s_new as a rational, so no absolute re-set is
// needed for warm and cold to agree exactly.
type exactEngine struct {
	cold     bool
	contract bool // merge flow-equivalent interval runs before solving

	in  *job.Instance
	ivs []job.Interval
	st  *Stats
	rec *obs.Recorder

	ivLen  []*big.Rat
	work   []*big.Rat
	jobIvs [][]int32

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
	supNode  []int32
	supSink  []flow.EdgeID
	supValid bool

	g         *flow.RatGraph
	needBuild bool
	jobNode   []int32
	ivNode    []int32
	sink      int
	srcEdges  []flow.EdgeID
	sinkEdges []flow.EdgeID
	midPos    []int32
	midIv     []int32
	midID     []flow.EdgeID
	prevOps   flow.DinicOps
	removals  int   // warm rejecting rounds this phase
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
	e.removals = 0
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
	if e.con.on {
		e.buildContracted()
		return
	}
	e.buildRaw("opt.graph_rebuilds")
}

// buildContracted is the exact mirror of the float engine's contracted
// build: one node per super-interval, rational run lengths.
func (e *exactEngine) buildContracted() {
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
		c.SetInt64(int64(e.mj[head]))
		c.Mul(c, e.supLen[s])
		e.supSink[s] = e.g.AddEdge(int(e.supNode[s]), e.sink, c)
	}
	e.rec.Add("opt.graph_rebuilds", 1)
	e.prevOps = flow.DinicOps{}
	e.needBuild = false
}

func (e *exactEngine) buildRaw(counter string) {
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
		c.SetInt64(int64(e.mj[jx]))
		c.Mul(c, e.ivLen[jx])
		e.sinkEdges[jx] = e.g.AddEdge(int(e.ivNode[jx]), e.sink, c)
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
	if e.removals > 0 && !e.cold {
		e.rec.Add("flow.warm_hits", 1)
	}
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
	drained := new(big.Rat)
	for _, pos := range e.excluded {
		e.alive[pos] = false
		for _, jx := range e.jobIvs[e.cand0[pos]] {
			e.activeCount[jx]--
		}
		if !e.cold {
			drained.Add(drained, e.g.RemoveJobEdge(e.srcEdges[pos]))
		}
	}
	// Sink capacities are lowered once per interval after every count
	// has dropped; lastSup dedupes run members, as in the float engine.
	c := new(big.Rat)
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
					c.SetInt64(int64(nm))
					c.Mul(c, e.supLen[s])
					drained.Add(drained, e.g.SetCapacity(e.supSink[s], c))
					lastSup = s
				}
			} else if e.ivNode[jx] >= 0 {
				c.SetInt64(int64(nm))
				c.Mul(c, e.ivLen[jx])
				drained.Add(drained, e.g.SetCapacity(e.sinkEdges[jx], c))
			}
		}
	}
	oldSpeed := e.speed
	e.recomputeTotals()
	if e.totalTime.Sign() <= 0 {
		e.needBuild = true
		return true, false
	}
	e.speed = new(big.Rat).Quo(e.totalWork, e.totalTime)
	if e.cold {
		e.needBuild = true
		return false, false
	}
	e.removals++
	// Exact arithmetic: rescaling by s_old/s_new lands every source
	// capacity exactly on w/s_new, so one ScaleSourceCaps call replaces
	// the per-edge absolute updates of the float engine.
	ratio := new(big.Rat).Quo(oldSpeed, e.speed)
	drained.Add(drained, e.g.ScaleSourceCaps(ratio))
	df, _ := drained.Float64()
	e.rec.Add("flow.drained_units", int64(df+0.5))
	return false, false
}

func (e *exactEngine) dropLeastWork() (degenerate, empty bool) {
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
	if e.totalTime.Sign() <= 0 {
		return true, false
	}
	e.speed = new(big.Rat).Quo(e.totalWork, e.totalTime)
	e.needBuild = true
	return false, false
}

func (e *exactEngine) accept() (float64, []int, []piece) {
	if e.con.on {
		// See floatEngine.accept: emission needs raw per-interval flows,
		// so rebuild the raw-shaped network and solve from zero.
		e.con.on = false
		e.buildRaw("opt.emit_rebuilds")
		stop := e.rec.Time("opt.flow_solve_seconds")
		e.g.MaxFlow(0, e.sink)
		stop()
		e.publish()
	} else if !e.cold && e.removals > 0 {
		e.g.ResetFlow()
		stop := e.rec.Time("opt.flow_solve_seconds")
		e.g.MaxFlow(0, e.sink)
		stop()
		e.publish()
	}
	// Interval order, as in the float engine: buildRaw adds the mid
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
