package opt

import (
	"fmt"
	"math"
	"time"

	"mpss/internal/flow"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// floatEngine is the float64 fast path of the round loop. All slices are
// arenas reused across phases and Schedule calls.
//
// Every round solves on pn, a flow.PhaseNet: the max-flow kernel for
// exactly this network shape, fed the engine's own job windows and
// per-interval candidate lists (byIv), with no edge list, CSR build or
// edge ids. Each round builds its network afresh from that round's alive
// candidates over the phase's interval span (phaseSet), with the
// contraction recomputed from the survivors (contract.go), and solves it
// from zero. A round's network, and so its flow, depends only on its
// candidate set and the processors earlier phases left free. The
// kernel's last BFS of each solve is the co-reachable set the exclusion
// rule needs (flow.PhaseNet.CoReachable), and accept emits the accepted
// round's flow as it stands: on a contracted network each super-interval
// time is cut over the member intervals (phaseSet.emit, DESIGN.md §12). No flow carries over from one solve to the next.
type floatEngine struct {
	contract bool // merge flow-equivalent interval runs before solving

	st        *Stats
	rec       *obs.Recorder
	solveHist *obs.Histogram // cached "opt.flow_solve_seconds" handle (nil = observability off)

	ivLen []float64 // |I_j| per interval

	span *obs.Span
	phaseSet
	totalWork float64
	totalTime float64
	speed     float64
	supLen    []float64 // per super-interval: summed member length

	pn flow.PhaseNet // the network of the current round
	emitScratch
}

func (e *floatEngine) spanName(phase int) string { return fmt.Sprintf("phase %d", phase) }

func (e *floatEngine) emptyErr() error {
	return fmt.Errorf("opt: phase emptied its candidate set: %w", mpsserr.ErrNumeric)
}

func (e *floatEngine) prepare(f *frame, st *Stats, rec *obs.Recorder) {
	e.st, e.rec = st, rec
	// The histogram handle is cached once per solve: rec.Time allocates a
	// closure per call, which the per-round profile showed as real.
	e.solveHist = rec.Histogram("opt.flow_solve_seconds")
	e.ivLen = growFloats(e.ivLen, len(f.ivs))
	for jx, iv := range f.ivs {
		e.ivLen[jx] = iv.Len()
	}
	e.phaseSet.prepare(f)
}

func (e *floatEngine) beginPhase(used, cand []int, span *obs.Span) bool {
	e.span = span
	e.begin(used, cand)
	return e.reconjecture()
}

// reconjecture re-derives the totals and the speed after the candidate
// set changed; the next round builds its network afresh. It reports a
// network with no capacity left.
//
// The totals are summed fresh, in index order: incremental subtraction
// would be O(1) but floats are not associative, and summing fresh keeps
// the conjectured speed bit-identical to a from-scratch solve's.
// Intervals with mj = 0 are skipped rather than added as zero terms: a
// gap interval between distant job clusters can have an overflowed
// (infinite) length, and 0 * Inf would poison the sum with NaN (the
// exact engine skips them the same way).
func (e *floatEngine) reconjecture() (degenerate bool) {
	e.prune()
	tw := 0.0
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			tw += e.in.Jobs[k].Work
		}
	}
	tt := 0.0
	for jx := e.lo; jx < e.hi; jx++ {
		if e.mj[jx] > 0 {
			tt += float64(e.mj[jx]) * e.ivLen[jx]
		}
	}
	e.totalWork, e.totalTime = tw, tt
	if tt <= 0 {
		return true
	}
	e.speed = tw / tt
	return false
}

// buildNet builds the round's PhaseNet G(J, m, s) for the alive
// candidates over the round's interval nodes (phaseSet.heads).
// Intervals with m_j = 0 stay off: no vertex, no edges.
func (e *floatEngine) buildNet() {
	e.partition(e.contract, e.rec)
	lens := e.ivLen[e.lo:e.hi]
	if e.con.on {
		e.supLen = e.con.sumLens(e.supLen, lens)
		lens = e.supLen
	}
	heads := e.heads()
	e.pn.Reset(len(e.cand0), len(heads))
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			a, b := e.window(k)
			e.pn.SetJob(pos, a, b, e.in.Jobs[k].Work/e.speed)
		}
	}
	ivs := 0
	for i, head := range heads {
		jx := e.lo + int(head)
		if e.mj[jx] > 0 {
			e.pn.SetInterval(i, lens[i], float64(e.mj[jx])*lens[i], e.byIv[jx])
			ivs++
		}
	}
	// The vertices: the source, the alive jobs, the intervals and the sink.
	if v := 2 + e.aliveCount + ivs; v > e.st.FlowVertices {
		e.st.FlowVertices = v
	}
	e.rec.Add("opt.graph_rebuilds", 1)
}

func (e *floatEngine) solveRound() int {
	e.buildNet()
	var t0 time.Time
	if e.solveHist != nil {
		t0 = time.Now()
	}
	e.pn.MaxFlow()
	if e.solveHist != nil {
		e.solveHist.Observe(time.Since(t0).Seconds())
	}
	publishDinic(e.rec, e.span, e.pn.Ops())

	var value float64
	for pos := range e.cand0 {
		if e.alive[pos] {
			value += e.pn.SourceFlow(pos)
		}
	}
	slack := flow.SolveTolerance * math.Max(1, e.totalTime)
	if value >= e.totalTime-slack {
		return 0
	}
	// Rejected: select the excluded jobs by the flow-invariant rule. A
	// candidate can reach the sink in the residual graph exactly when
	// some maximum flow leaves both one of its interval edges and that
	// interval's sink edge unsaturated — the exclusion condition of the
	// paper's Lemma 4 — and the co-reachable set is the same for every
	// maximum flow, on the raw and on the contracted network alike. Each
	// one is outside J_i on its own, so all of them go in one round. The
	// set is the labels of the solve's last BFS.
	e.excluded = e.excluded[:0]
	for pos, reach := range e.pn.CoReachable() {
		if reach {
			e.excluded = append(e.excluded, pos)
		}
	}
	// No excludable candidate despite the value shortfall: only possible
	// through accumulated rounding. Accept the conjecture.
	return len(e.excluded)
}

func (e *floatEngine) removeExcluded() (degenerate, empty bool) {
	if e.aliveCount == len(e.excluded) {
		return false, true
	}
	for _, pos := range e.excluded {
		e.drop(pos)
	}
	return e.reconjecture(), false
}

func (e *floatEngine) dropLeastWork() (degenerate, empty bool) {
	if e.aliveCount == 1 {
		return false, true
	}
	e.drop(e.leastWork())
	return e.reconjecture(), false
}

// accept emits the accepted round's flow as it stands (phaseSet.emit).
func (e *floatEngine) accept() (float64, []int, []piece) {
	e.pieces = e.emit(e.pieces[:0], e.ivLen, e.supLen, func(node, _ int, pos int32) float64 {
		return e.pn.EdgeFlow(int(pos), node)
	})
	return e.speed, e.mj, e.pieces
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

// identity returns s resized to n with s[i] = i.
func identity(s []int32, n int) []int32 {
	s = growInt32s(s, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

func growLists(s [][]int32, n int) [][]int32 {
	for len(s) < n {
		s = append(s, nil)
	}
	return s[:n]
}
