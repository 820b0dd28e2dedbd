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
// Every round builds its flow.RatGraph for the round's alive candidates
// over the phase's span, contracted as the float engine's is, and solves
// it from zero flow, as the paper's pseudo-code does: a rejected round
// drains nothing, it only marks the excluded jobs and lowers m_j. accept
// emits the accepted round's flow as the float engine does.
type exactEngine struct {
	contract bool // merge flow-equivalent interval runs before solving

	st  *Stats
	rec *obs.Recorder

	ivLen  []*big.Rat
	ivLenF []float64 // the same lengths in float64, for emission
	work   []*big.Rat

	span *obs.Span
	phaseSet
	totalWork *big.Rat
	totalTime *big.Rat
	speed     *big.Rat
	// In exact arithmetic the contracted and raw networks have identical
	// max-flow values and residual co-reachability, so every phase
	// decision provably matches the raw path's.
	supLen  []*big.Rat
	supLenF []float64

	g        *flow.RatGraph
	jobNode  []int32
	sink     int
	srcEdges []flow.EdgeID
	// The job -> interval edges, node by node and in list order within a
	// node: node i's are midID[midStart[i]:midStart[i+1]].
	midStart []int32
	midID    []flow.EdgeID
	emitScratch
}

func (e *exactEngine) spanName(phase int) string { return fmt.Sprintf("phase %d (exact)", phase) }

func (e *exactEngine) emptyErr() error {
	// Exact arithmetic cannot misclassify a feasible conjecture, so an
	// emptied candidate set here is a solver bug, not a precision issue.
	return fmt.Errorf("opt: exact phase emptied its candidate set: %w", mpsserr.ErrInternal)
}

func (e *exactEngine) prepare(in *job.Instance, ivs []job.Interval, st *Stats, rec *obs.Recorder) {
	e.st, e.rec = st, rec
	e.ivLen = e.ivLen[:0]
	e.ivLenF = growFloats(e.ivLenF, len(ivs))
	for jx, iv := range ivs {
		e.ivLenF[jx] = iv.Len()
		e.ivLen = append(e.ivLen, new(big.Rat).SetFloat64(e.ivLenF[jx]))
	}
	e.work = e.work[:0]
	for _, j := range in.Jobs {
		e.work = append(e.work, new(big.Rat).SetFloat64(j.Work))
	}
	e.phaseSet.prepare(in, ivs)
}

func (e *exactEngine) beginPhase(used, cand []int, span *obs.Span) bool {
	e.span = span
	e.begin(used, cand)
	return e.reconjecture()
}

// reconjecture recomputes the totals and the speed after the candidate
// set changed; the next round builds its network afresh. It reports a
// network with no capacity left.
func (e *exactEngine) reconjecture() (degenerate bool) {
	e.prune()
	tw := new(big.Rat)
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			tw.Add(tw, e.work[k])
		}
	}
	tt := new(big.Rat)
	term := new(big.Rat)
	for jx := e.lo; jx < e.hi; jx++ {
		if e.mj[jx] > 0 {
			term.SetInt64(int64(e.mj[jx]))
			term.Mul(term, e.ivLen[jx])
			tt.Add(tt, term)
		}
	}
	e.totalWork, e.totalTime = tw, tt
	if tt.Sign() <= 0 {
		return true
	}
	e.speed = new(big.Rat).Quo(tw, tt)
	return false
}

// buildNet builds the round's flow.RatGraph for the alive candidates
// over the round's interval nodes (phaseSet.heads); intervals with
// m_j = 0 get no vertex and no edges.
func (e *exactEngine) buildNet() {
	e.partition(e.contract, e.rec)
	lens := e.ivLen[e.lo:e.hi]
	if e.con.on {
		e.supLen = e.con.sumLensRat(e.supLen, lens)
		lens = e.supLen
	}
	heads := e.heads()
	e.jobNode = growInt32s(e.jobNode, len(e.cand0))
	node := 1
	for pos := range e.cand0 {
		if e.alive[pos] {
			e.jobNode[pos] = int32(node)
			node++
		}
	}
	ivNode := node
	for _, head := range heads {
		if e.mj[e.lo+int(head)] > 0 {
			node++
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
	e.midStart = e.midStart[:0]
	e.midID = e.midID[:0]
	for i, head := range heads {
		e.midStart = append(e.midStart, int32(len(e.midID)))
		jx := e.lo + int(head)
		if e.mj[jx] == 0 {
			continue
		}
		for _, pos := range e.byIv[jx] {
			e.midID = append(e.midID, e.g.AddEdge(int(e.jobNode[pos]), ivNode, lens[i]))
		}
		c.SetInt64(int64(e.mj[jx]))
		c.Mul(c, lens[i])
		e.g.AddEdge(ivNode, e.sink, c)
		ivNode++
	}
	e.midStart = append(e.midStart, int32(len(e.midID)))
	e.rec.Add("opt.graph_rebuilds", 1)
}

func (e *exactEngine) solveRound() int {
	e.buildNet()
	stop := e.rec.Time("opt.flow_solve_seconds")
	e.g.MaxFlow(0, e.sink)
	stop()
	publishExact(e.rec, e.span, e.g.Ops())

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

func (e *exactEngine) removeExcluded() (degenerate, empty bool) {
	if e.aliveCount == len(e.excluded) {
		return false, true
	}
	for _, pos := range e.excluded {
		e.drop(pos)
	}
	return e.reconjecture(), false
}

func (e *exactEngine) dropLeastWork() (degenerate, empty bool) {
	if e.aliveCount == 1 {
		return false, true
	}
	e.drop(e.leastWork())
	return e.reconjecture(), false
}

// accept emits the accepted round's flow as the float engine does
// (phaseSet.emit), each exact time rounded to float64 once.
func (e *exactEngine) accept() (float64, []int, []piece) {
	if e.con.on {
		e.supLenF = e.con.sumLens(e.supLenF, e.ivLenF[e.lo:e.hi])
	}
	e.pieces = e.emit(e.pieces[:0], e.ivLenF, e.supLenF, func(node, i int, _ int32) float64 {
		f, _ := e.g.Flow(e.midID[int(e.midStart[node])+i]).Float64()
		return f
	})
	sp, _ := e.speed.Float64()
	return sp, e.mj, e.pieces
}
