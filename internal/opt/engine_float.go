package opt

import (
	"fmt"
	"math"
	"sort"
	"time"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
)

// floatEngine is the float64 fast path of the round loop. All slices are
// arenas reused across phases and Schedule calls.
//
// Every phase solves on pn, a flow.PhaseNet: the max-flow kernel for
// exactly this network shape, fed the engine's own job windows and
// per-interval candidate lists (byIv), with no edge list, CSR build or
// edge ids. beginPhase builds G(J, m, s) once; every rejection resets
// the flow to zero, removes the excluded jobs and re-sets the
// capacities in place, and the next round solves from zero on the same
// network. A removed job is gone from the kernel exactly as it is absent
// from a network rebuilt for the round, so every round's flow — the
// accepted one included — is bit-identical to the flow a rebuild of the
// round's network would produce, and accept emits it as it stands. The
// kernel's last BFS of each solve is the co-reachable set the exclusion
// rule needs (flow.PhaseNet.CoReachable).
//
// Capacities are re-set to the same absolute expressions a build uses
// (work/speed, m_j*|I_j|) rather than multiplicatively rescaled: float64
// multiplication is not associative, and (w/s1)*(s1/s2) differs from
// w/s2 in the last ulp, which would break the in-place == rebuilt
// guarantee. No flow carries over from one solve to the next; a session
// resolve is an ordinary solve (session.go).
type floatEngine struct {
	contract bool // merge flow-equivalent interval runs before solving

	in        *job.Instance
	ivs       []job.Interval
	st        *Stats
	rec       *obs.Recorder
	solveHist *obs.Histogram // cached "opt.flow_solve_seconds" handle (nil = observability off)

	ivLen    []float64 // |I_j| per interval
	rawHeads []int32   // identity: raw interval jx is its own node's head
	// Per instance job: the run [jobLo, jobHi) of intervals it is active in.
	jobLo, jobHi []int32

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
	supValid bool

	pn        flow.PhaseNet // the network of every round and emission solve
	needBuild bool
	prevOps   flow.DinicOps
	excluded  []int // candidate positions the last rejected round excluded
	accepted  []int
	emitScratch
}

func (e *floatEngine) spanName(phase int) string { return fmt.Sprintf("phase %d", phase) }

func (e *floatEngine) emptyErr() error {
	return fmt.Errorf("opt: phase emptied its candidate set: %w", mpsserr.ErrNumeric)
}

func (e *floatEngine) prepare(in *job.Instance, ivs []job.Interval, st *Stats, rec *obs.Recorder) {
	e.in, e.ivs, e.st, e.rec = in, ivs, st, rec
	// The histogram handle is cached once per solve: rec.Time allocates a
	// closure per call, which the per-round profile showed as real.
	e.solveHist = rec.Histogram("opt.flow_solve_seconds")
	nIv := len(ivs)
	e.ivLen = growFloats(e.ivLen, nIv)
	for jx, iv := range ivs {
		e.ivLen[jx] = iv.Len()
	}
	e.rawHeads = identity(e.rawHeads, nIv)
	// The job×interval activity index, computed once per solve instead of
	// once per round: job k is active in intervals jobLo[k] .. jobHi[k]-1.
	e.jobLo = growInt32s(e.jobLo, in.N())
	e.jobHi = growInt32s(e.jobHi, in.N())
	for k, j := range in.Jobs {
		lo, hi := activeRun(ivs, j)
		e.jobLo[k], e.jobHi[k] = int32(lo), int32(hi)
	}
}

// activeRun returns the run [lo, hi) of the intervals job j is active
// in. The partition is sorted with increasing starts and ends, so the
// intervals starting at or after the release form a suffix, those ending
// by the deadline a prefix, and j.ActiveIn holds exactly on their
// intersection.
func activeRun(ivs []job.Interval, j job.Job) (lo, hi int) {
	lo = sort.Search(len(ivs), func(x int) bool { return ivs[x].Start >= j.Release })
	hi = sort.Search(len(ivs), func(x int) bool { return ivs[x].End > j.Deadline })
	return lo, max(lo, hi)
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
		for jx := e.jobLo[k]; jx < e.jobHi[k]; jx++ {
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
	if e.totalTime <= 0 {
		return true
	}
	e.speed = e.totalWork / e.totalTime
	e.buildGraph()
	return false
}

// recomputeTotals recomputes totalWork and totalTime from scratch after
// every change to the candidate set. Incremental subtraction would be
// O(1) but floats are not associative: summing fresh, in index order,
// keeps the conjectured speed bit-identical to a from-scratch solve's.
// Intervals with mj = 0 are skipped rather than added as zero terms: a
// gap interval between distant job clusters can have an overflowed
// (infinite) length, and 0 * Inf would poison the sum with NaN (the
// exact engine skips them the same way).
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
// It runs once per phase, and again only after dropLeastWork.
// With contraction enabled it computes the phase's super-interval
// partition on the first build and builds the contracted shape
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
	e.buildNet("opt.graph_rebuilds")
}

// buildNet builds the phase's PhaseNet over the interval nodes of the
// current mode: the raw intervals, or the super-intervals while the
// phase runs contracted. Node i stands for raw interval heads[i], whose
// candidate list and m_j it takes, with length lens[i]; a job's window
// is its raw run, or its run over the super-intervals (supRun).
// Intervals with m_j = 0 stay off: no vertex, no edges. counter names
// the rebuild class recorded ("opt.graph_rebuilds" for round builds,
// "opt.emit_rebuilds" for the emission rebuild after contracted rounds).
func (e *floatEngine) buildNet(counter string) {
	heads, lens := e.rawHeads, e.ivLen
	if e.con.on {
		heads, lens = e.con.supHead, e.supLen
	}
	e.pn.Reset(len(e.cand0), len(heads))
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			lo, hi := int(e.jobLo[k]), int(e.jobHi[k])-1
			if e.con.on {
				lo, hi = e.supRun(k)
			}
			e.pn.SetJob(pos, lo, hi, e.in.Jobs[k].Work/e.speed)
		}
	}
	ivs := 0
	for i, head := range heads {
		if e.mj[head] > 0 {
			e.pn.SetInterval(i, lens[i], float64(e.mj[head])*lens[i], e.byIv[head])
			ivs++
		}
	}
	e.netBuilt(counter, ivs)
}

// supRun is job k's window over the super-intervals: those of the
// members in its raw run, which are consecutive because a job is active
// in every member of a super-interval or in none (hi < lo when the run
// holds only m_j = 0 intervals).
func (e *floatEngine) supRun(k int) (lo, hi int) {
	lo, hi = 0, -1
	for jx := e.jobLo[k]; jx < e.jobHi[k]; jx++ {
		if s := e.con.supOf[jx]; s >= 0 {
			lo = int(s)
			break
		}
	}
	for jx := e.jobHi[k] - 1; jx >= e.jobLo[k]; jx-- {
		if s := e.con.supOf[jx]; s >= 0 {
			hi = int(s)
			break
		}
	}
	return lo, hi
}

// netBuilt records a PhaseNet build with ivs interval vertices. Its
// vertex count is the source, the alive jobs, the intervals and the
// sink.
func (e *floatEngine) netBuilt(counter string, ivs int) {
	if v := 2 + e.aliveCount + ivs; v > e.st.FlowVertices {
		e.st.FlowVertices = v
	}
	e.rec.Add(counter, 1)
	e.prevOps = flow.DinicOps{}
	e.needBuild = false
}

// solveFlow runs one sequential Dinic max-flow computation from zero
// and publishes its ops.
func (e *floatEngine) solveFlow() {
	var t0 time.Time
	if e.solveHist != nil {
		t0 = time.Now()
	}
	e.pn.MaxFlow()
	ops := e.pn.Ops()
	if e.solveHist != nil {
		e.solveHist.Observe(time.Since(t0).Seconds())
	}
	publishDinic(e.rec, e.span, ops.Sub(e.prevOps))
	e.prevOps = ops
}

func (e *floatEngine) solveRound() int {
	if e.needBuild {
		e.buildGraph()
	}
	e.solveFlow()

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
	// maximum flow, so in-place and rebuilt solves exclude the same jobs.
	// Each one is outside J_i on its own, so all of them go in one round.
	// The set is the labels of the solve's last BFS.
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
	// The next round solves from zero on this network, so reset the flow
	// first: on a zero flow none of the capacity updates below drains
	// anything.
	e.pn.ResetFlow()
	for _, pos := range e.excluded {
		e.alive[pos] = false
		k := e.cand0[pos]
		for jx := e.jobLo[k]; jx < e.jobHi[k]; jx++ {
			e.activeCount[jx]--
		}
		e.pn.RemoveJob(pos)
	}
	// Lower the sink capacities once, after every count has dropped: an
	// interval shared by several excluded jobs is re-set a single time.
	// Only intervals with m_j > 0 at the build have a vertex, and m_j only
	// falls within a phase, so every interval re-set here has one. With
	// contraction on, every member of a run changes identically (a job is
	// active in all of a run or none of it, and equal m_j stay equal), so
	// the run's sink edge is updated once — lastSup dedupes the
	// consecutive members, skipping over m_j = 0 gaps.
	for _, pos := range e.excluded {
		lastSup := int32(-1)
		k := e.cand0[pos]
		for jx := e.jobLo[k]; jx < e.jobHi[k]; jx++ {
			nm := min(e.activeCount[jx], e.free[jx])
			if nm >= e.mj[jx] {
				continue
			}
			e.mj[jx] = nm
			if !e.con.on {
				e.pn.SetSinkCap(int(jx), float64(nm)*e.ivLen[jx])
			} else if s := e.con.supOf[jx]; s != lastSup {
				e.pn.SetSinkCap(int(s), float64(nm)*e.supLen[s])
				lastSup = s
			}
		}
	}
	e.recomputeTotals()
	if e.totalTime <= 0 {
		e.needBuild = true
		return true, false
	}
	e.speed = e.totalWork / e.totalTime
	for pos, k := range e.cand0 {
		if e.alive[pos] {
			e.pn.SetSourceCap(pos, e.in.Jobs[k].Work/e.speed)
		}
	}
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
	for jx := e.jobLo[k]; jx < e.jobHi[k]; jx++ {
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

func (e *floatEngine) accept() (float64, []int, []piece) {
	if e.con.on {
		// Rounds ran on the contracted network, whose flows have no
		// per-raw-interval meaning. Rebuild the raw-shaped network for
		// the surviving candidate set — the network the uncontracted path
		// solves for its accepted round — and solve from zero, so the
		// emitted times are bit-identical to the raw path's.
		e.con.on = false
		e.buildNet("opt.emit_rebuilds")
		e.solveFlow()
	}
	// Pieces come out interval by interval, as emitPhase requires: in
	// interval, then list order.
	e.pieces = e.pieces[:0]
	for jx := range e.ivs {
		if e.mj[jx] == 0 {
			continue // no vertex, or no alive candidate
		}
		for _, pos := range e.byIv[jx] {
			if e.alive[pos] {
				e.addPiece(pos, int32(jx), e.pn.EdgeFlow(int(pos), jx))
			}
		}
	}
	return e.speed, e.mj, e.pieces
}

// addPiece records candidate pos's time f in interval jx. Every positive
// flow counts: dropping pieces at the slack threshold would lose work
// proportional to the edge count on large instances.
func (e *floatEngine) addPiece(pos, jx int32, f float64) {
	if f > 1e-15 {
		e.pieces = append(e.pieces, piece{k: e.cand0[pos], ivIdx: int(jx), t: f})
	}
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
