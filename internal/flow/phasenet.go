package flow

import (
	"fmt"
	"math"
)

// PhaseNet is a max-flow kernel for exactly one network shape, the
// scheduler's G(J, m, s): source -> job -> interval -> sink, where every
// job reaches a contiguous window of intervals. It is stored in the
// scheduler's own terms rather than as a generic edge list:
//
//   - job i has a source edge and a window [lo, hi] of interval
//     indices, with a block of edge slots, one per window entry: its
//     edge to interval r is the block's slot r - lo, holding a forward
//     and a reverse residual;
//   - interval r has one capacity shared by all its job edges, a sink
//     edge, and a job list that fixes the order of its reverse arcs.
//
// There is no AddEdge, no CSR build and no max-capacity rescan. The solver is Graph's Dinic, made to push the
// same paths in the same order with the same float operations, so the
// per-edge flows, the flow value, AugPaths and BFSPasses are bit-for-bit
// those of a Graph built by adding, in this order, the source edges of
// the set jobs in index order and then, interval by interval, the job
// edges in list order followed by the sink edge. That fixes the
// adjacency order the kernel follows:
//
//   - s: jobs ascending;
//   - a job: its reverse source arc, then its set intervals ascending;
//   - an interval: reverse job arcs in list order, then the sink arc;
//   - t: intervals ascending.
//
// From a zero flow, MaxFlow first runs Dinic's first level phase as one
// direct pass (firstPhase). The later level phases
// take their levels from the sink: a BFS out of t over reversed residual
// arcs labels each vertex with its residual distance to t, and stops once
// it has labelled s and every vertex closer to t. The DFS from s follows
// only arcs into the next-lower level, with current-arc pointers, so it
// never enters a vertex that cannot reach t. Levels from s and levels from t admit the same s-t
// paths (every shortest one, and nothing else), and a current-arc DFS
// augments the first live one in adjacency order, so both push the same
// sequence of paths (DESIGN.md §7). The last BFS, the one that fails to
// reach s, has labelled exactly the vertices that can reach t: the
// co-reachable set CoReachable returns, without another pass.
//
// EdgesScanned counts the arcs whose residual the pass, the BFS and the
// DFS read. Arcs into s or out of t, which no shortest s-t path uses,
// are not read during a solve, and neither are the arcs of jobs and
// intervals that are not set.
//
// The zero value is an empty arena; Reset shapes it. Interval job lists
// passed to SetInterval are read, not copied, and must stay unchanged
// until the next Reset.
type PhaseNet struct {
	nJobs, nIvs int

	// Jobs: window [lo, hi], and base, which puts the edge to interval r
	// in slot base + r.
	lo, hi, base   []int32
	srcCap         []float64
	srcRes, srcRev []float64

	// Intervals.
	edgeCap, sinkCap []float64
	sinkRes, sinkRev []float64
	list             [][]int32

	// Job-edge slots.
	nSlots   int
	res, rev []float64

	tol float64
	ops DinicOps

	// stale: the residuals are to be re-set from the capacities (the
	// flow is zero). zero: the flow is zero, so MaxFlow starts with the
	// first-phase pass. cut: the labels are those of a BFS that explored
	// everything reaching t under the current flow.
	stale, zero, cut bool

	// Per job and interval, the level every BFS starts from: -1
	// (unlabelled) once set, gone before. A BFS thus treats a job or an
	// interval that is not set like one it has labelled already, and the
	// DFS, which looks for one particular level, never enters it.
	jobLv0, ivLv0 []int32

	// Levels (residual distance to t, -1 = unlabelled), the DFS's
	// current arcs, the BFS queue (job i as i, interval r as ^r, s as
	// nJobs) and CoReachable's output.
	lvJ, lvI []int32
	lvS      int32
	jcur     []int32
	icur     []int32
	scur     int
	queue    []int32
	mark     []bool
}

// Reset re-shapes the kernel to nJobs jobs and nIvs intervals, none of
// them set, reusing every backing array. Operation counts restart at 0.
func (p *PhaseNet) Reset(nJobs, nIvs int) {
	p.nJobs, p.nIvs = nJobs, nIvs
	p.jobLv0 = growInt32(p.jobLv0, nJobs)
	fillInt32(p.jobLv0, gone)
	p.lo = growInt32(p.lo, nJobs)
	p.hi = growInt32(p.hi, nJobs)
	p.base = growInt32(p.base, nJobs)
	p.srcCap = growFloat64(p.srcCap, nJobs)
	p.srcRes = growFloat64(p.srcRes, nJobs)
	p.srcRev = growFloat64(p.srcRev, nJobs)
	p.lvJ = growInt32(p.lvJ, nJobs)
	p.jcur = growInt32(p.jcur, nJobs)
	p.mark = growBools(p.mark, nJobs)

	p.ivLv0 = growInt32(p.ivLv0, nIvs)
	fillInt32(p.ivLv0, gone)
	p.edgeCap = growFloat64(p.edgeCap, nIvs)
	p.sinkCap = growFloat64(p.sinkCap, nIvs)
	p.sinkRes = growFloat64(p.sinkRes, nIvs)
	p.sinkRev = growFloat64(p.sinkRev, nIvs)
	for len(p.list) < nIvs {
		p.list = append(p.list, nil)
	}
	p.list = p.list[:nIvs]
	clear(p.list)
	p.lvI = growInt32(p.lvI, nIvs)
	p.icur = growInt32(p.icur, nIvs)

	p.nSlots = 0
	p.res = p.res[:0]
	p.rev = p.rev[:0]
	p.ops = DinicOps{}
	p.flowReset()
}

// SetInterval sets interval r: each of its job edges has capacity
// edgeCap and its sink edge sinkCap. jobs lists, in the order of r's
// reverse arcs, the jobs whose windows contain r: every such job that is
// set, and no set job whose window misses r; jobs never set are skipped.
// An interval that is never set has no vertex and no edges.
func (p *PhaseNet) SetInterval(r int, edgeCap, sinkCap float64, jobs []int32) {
	checkCap(edgeCap)
	checkCap(sinkCap)
	p.ivLv0[r] = -1
	p.edgeCap[r] = edgeCap
	p.sinkCap[r] = sinkCap
	p.list[r] = jobs
	p.flowReset()
}

// SetJob sets job i with source capacity srcCap and the window [lo, hi]
// of interval indices (empty when hi < lo). Its edges go to the set
// intervals of the window, each at that interval's edge capacity.
func (p *PhaseNet) SetJob(i, lo, hi int, srcCap float64) {
	checkCap(srcCap)
	if lo < 0 || hi >= p.nIvs || p.live(i) {
		panic(fmt.Sprintf("flow: job %d window [%d,%d] outside [0,%d) or set twice", i, lo, hi, p.nIvs))
	}
	p.jobLv0[i] = -1
	p.lo[i], p.hi[i], p.base[i] = int32(lo), int32(hi), int32(p.nSlots-lo)
	p.srcCap[i] = srcCap
	if n := hi - lo + 1; n > 0 {
		p.nSlots += n
		if cap(p.res) < p.nSlots {
			p.res = append(p.res[:cap(p.res)], make([]float64, p.nSlots-cap(p.res))...)
			p.rev = append(p.rev[:cap(p.rev)], make([]float64, p.nSlots-cap(p.rev))...)
		}
		p.res, p.rev = p.res[:p.nSlots], p.rev[:p.nSlots]
	}
	p.flowReset()
}

// ResetFlow removes all flow. The next MaxFlow solves from zero, as on a
// freshly set network.
func (p *PhaseNet) ResetFlow() { p.flowReset() }

func (p *PhaseNet) flowReset() {
	p.stale, p.zero, p.cut = true, true, false
}

// SetSourceCap re-sets job i's source capacity. It re-sets capacities
// without draining anything, so the flow must be zero.
func (p *PhaseNet) SetSourceCap(i int, c float64) {
	checkCap(c)
	if !p.zero {
		panic("flow: PhaseNet capacity change on a nonzero flow (call ResetFlow first)")
	}
	p.flowReset()
	p.srcCap[i] = c
}

// gone is the level of a job or interval that is not set: never -1, and
// never a level a DFS looks for.
const gone = math.MaxInt32

func (p *PhaseNet) live(i int) bool { return p.jobLv0[i] < 0 }

func (p *PhaseNet) on(r int) bool { return p.ivLv0[r] < 0 }

// checkCap rejects a capacity AddEdge would reject, with the same
// numeric classification: non-finite or negative values reach the
// kernel only through float64 overflow or underflow upstream.
func checkCap(c float64) {
	if math.IsNaN(c) || math.IsInf(c, 0) || c < 0 {
		violate(true, fmt.Sprintf("invalid capacity %v", c))
	}
}

// Ops returns the operation counts accumulated by MaxFlow since the last
// Reset.
func (p *PhaseNet) Ops() DinicOps { return p.ops }

// SourceFlow returns the flow on job i's source edge.
func (p *PhaseNet) SourceFlow(i int) float64 {
	if p.stale || !p.live(i) {
		return 0
	}
	return p.srcCap[i] - p.srcRes[i]
}

// EdgeFlow returns the flow on job i's edge to interval r, which must
// lie in i's window. It is 0 when either end is not set.
func (p *PhaseNet) EdgeFlow(i, r int) float64 {
	if r < int(p.lo[i]) || r > int(p.hi[i]) {
		panic(fmt.Sprintf("flow: interval %d outside job %d's window [%d,%d]", r, i, p.lo[i], p.hi[i]))
	}
	if p.stale || !p.live(i) || !p.on(r) {
		return 0
	}
	return p.edgeCap[r] - p.res[int(p.base[i])+r]
}

// initResiduals re-sets every residual from the capacities (a zero
// flow) and derives the tolerance, DefaultTolerance times the largest
// live capacity (at least 1): that of the set jobs' source edges, of the
// job edges into set intervals, and of the sink edges. It is exactly
// Graph's tolerance on the equivalent network, which has no edges for
// the jobs and intervals that are not set.
func (p *PhaseNet) initResiduals() {
	mx := 0.0
	for r := 0; r < p.nIvs; r++ {
		if p.on(r) {
			c := p.sinkCap[r]
			p.sinkRes[r], p.sinkRev[r] = c, 0
			if c > mx {
				mx = c
			}
		}
	}
	for i := 0; i < p.nJobs; i++ {
		if !p.live(i) {
			continue
		}
		c := p.srcCap[i]
		p.srcRes[i], p.srcRev[i] = c, 0
		if c > mx {
			mx = c
		}
		base := int(p.base[i])
		for r := int(p.lo[i]); r <= int(p.hi[i]); r++ {
			c := 0.0
			if p.on(r) {
				c = p.edgeCap[r]
				if c > mx {
					mx = c
				}
			}
			p.res[base+r], p.rev[base+r] = c, 0
		}
	}
	p.tol = DefaultTolerance * math.Max(1, mx)
	p.stale = false
}

// MaxFlow augments the current flow to a maximum one and returns the
// amount added: the max-flow value on a network solved from zero.
func (p *PhaseNet) MaxFlow() float64 {
	if p.stale {
		p.initResiduals()
	}
	var total float64
	if p.zero {
		pushes := p.firstPhase(&total)
		p.ops.BFSPasses++
		p.ops.AugPaths += pushes
		if pushes == 0 {
			// No s-job-interval-t path is live: BFS 1 would not reach t.
			p.cut = false
			return total
		}
		p.zero = false
	}
	for p.bfs(true) {
		p.ops.BFSPasses++
		p.scur = 0
		copy(p.jcur, p.lo[:p.nJobs])
		clear(p.icur)
		for {
			f := p.augment()
			if f <= 0 {
				break
			}
			p.ops.AugPaths++
			total += f
		}
	}
	p.ops.BFSPasses++
	p.cut = true
	return total
}

// CoReachable reports, per job, whether the sink is reachable from it
// in the residual graph of the current flow: the job side of the
// maximal minimum cut once the flow is maximum. After a MaxFlow whose
// last BFS found no path, these are that BFS's labels; otherwise one
// reverse BFS computes them (not counted in Ops). The slice is scratch
// owned by the kernel, valid until the next call into it.
func (p *PhaseNet) CoReachable() []bool {
	if !p.cut {
		if p.stale {
			p.initResiduals()
		}
		ops := p.ops
		p.bfs(false)
		p.ops = ops
		p.cut = true
	}
	for i, l := range p.lvJ[:p.nJobs] {
		p.mark[i] = l >= 0 && l != gone
	}
	return p.mark[:p.nJobs]
}

// firstPhase is Dinic's first level phase from zero flow in one pass,
// pushing along s -> job -> interval -> t in adjacency order. It returns
// the number of pushes, adding each pushed amount to *total in push
// order.
//
// Why it is exact. On a zero flow every reverse arc has residual 0, so
// BFS 1 of Graph's Dinic would label the live jobs with level 1, the
// intervals they reach through live arcs with level 2, and t with level
// 3: the level graph is exactly s -> job -> interval -> t. The recursive
// DFS walks s's arcs in job order and, from each job, its arcs from the
// current one; from an interval the only arc into a higher level is its
// sink arc, and once that is at or below the tolerance the interval is
// dead for the rest of the phase. A path found pushes the bottleneck
// min(min(source, job edge), sink), and the current arcs stay on the
// arcs that carried it. That is the loop below, without BFS 1, the
// recursion, or the scans of the reverse arcs. It counts as one BFS
// pass and one augmenting path per push; if it pushes nothing, t is
// unreachable and the solve ends, as after an unsuccessful BFS 1.
func (p *PhaseNet) firstPhase(total *float64) (pushes int64) {
	tol := p.tol
	sum := *total
	var scanned int64
	srcRes, srcRev := p.srcRes, p.srcRev
	sinkRes, sinkRev := p.sinkRes, p.sinkRev
	res, rev := p.res, p.rev
nextJob:
	for i := 0; i < p.nJobs; i++ {
		if !p.live(i) {
			continue
		}
		scanned++
		if srcRes[i] <= tol {
			continue
		}
		base := int(p.base[i])
		for r := int(p.lo[i]); r <= int(p.hi[i]); r++ {
			if !p.on(r) {
				continue
			}
			e := base + r
			scanned++
			if res[e] <= tol {
				continue
			}
			scanned++
			// Push along s-i-r-t while the path lasts; a dead sink arc
			// leaves r dead for the rest of the phase.
			for res[e] > tol && sinkRes[r] > tol {
				d := min(min(srcRes[i], res[e]), sinkRes[r])
				sinkRes[r] -= d
				sinkRev[r] += d
				res[e] -= d
				rev[e] += d
				srcRes[i] -= d
				srcRev[i] += d
				pushes++
				sum += d
				if srcRes[i] <= tol {
					continue nextJob
				}
			}
		}
	}
	*total = sum
	p.ops.EdgesScanned += scanned
	return pushes
}

// bfs labels vertices with their residual distance to t, searching
// backward from t. With stopAtS it stops once every vertex closer to t
// than s is labelled, and reports whether s is reachable; without, it
// labels every vertex that reaches t (s included, which then labels the
// jobs that reach s: their levels need not be distances).
func (p *PhaseNet) bfs(stopAtS bool) bool {
	tol := p.tol
	lvJ, lvI := p.lvJ[:p.nJobs], p.lvI[:p.nIvs]
	copy(lvJ, p.jobLv0)
	copy(lvI, p.ivLv0)
	p.lvS = -1
	var scanned int64
	q := p.queue[:0]
	for r := range lvI {
		if lvI[r] < 0 {
			scanned++
			if p.sinkRes[r] > tol {
				lvI[r] = 1
				q = append(q, ^int32(r))
			}
		}
	}
	sVertex := int32(p.nJobs)
	for head := 0; head < len(q); head++ {
		v := q[head]
		switch {
		case v < 0: // interval r: jobs with a live edge into it
			r := ^v
			l := lvI[r] + 1
			for _, i := range p.list[r] {
				if lvJ[i] >= 0 {
					continue
				}
				scanned++
				if p.res[p.base[i]+r] <= tol {
					continue
				}
				lvJ[i] = l
				q = append(q, i)
				if p.lvS < 0 {
					// s is one level above the first job labelled with a
					// live source arc; the jobs at that job's level are
					// all labelled once the intervals below them are done.
					scanned++
					if p.srcRes[i] > tol {
						p.lvS = l + 1
						if !stopAtS {
							q = append(q, sVertex)
						}
					}
				}
			}
		case v < sVertex: // job i: intervals holding flow from it
			if stopAtS && p.lvS >= 0 {
				// Every job from here on sits at s's level minus one.
				p.queue = q[:0]
				p.ops.EdgesScanned += scanned
				return true
			}
			i := v
			l := lvJ[i] + 1
			base := p.base[i]
			for r := p.lo[i]; r <= p.hi[i]; r++ {
				if lvI[r] >= 0 {
					continue
				}
				scanned++
				if p.rev[base+r] > tol {
					lvI[r] = l
					q = append(q, ^r)
				}
			}
		default: // s: jobs holding flow from it
			l := p.lvS + 1
			for i := range lvJ {
				if lvJ[i] >= 0 {
					continue
				}
				scanned++
				if p.srcRev[i] > tol {
					lvJ[i] = l
					q = append(q, int32(i))
				}
			}
		}
	}
	p.queue = q[:0]
	p.ops.EdgesScanned += scanned
	return p.lvS >= 0
}

// augment pushes one path of the current level graph: the first live
// one in adjacency order, found by a DFS from s over arcs into the
// next-lower level. It returns the amount pushed, 0 once the level
// graph holds no path.
func (p *PhaseNet) augment() float64 {
	want := p.lvS - 1
	for ; p.scur < p.nJobs; p.scur++ {
		i := int32(p.scur)
		if p.lvJ[i] != want {
			continue
		}
		p.ops.EdgesScanned++
		c := p.srcRes[i]
		if c <= p.tol {
			continue
		}
		if d := p.dfsJob(i, c); d > 0 {
			p.srcRes[i] -= d
			p.srcRev[i] += d
			return d
		}
	}
	return 0
}

// dfsJob continues the DFS at job i with bottleneck f so far: its
// forward arcs to intervals one level down, from its current arc.
func (p *PhaseNet) dfsJob(i int32, f float64) float64 {
	want := p.lvJ[i] - 1
	base := p.base[i]
	for ; p.jcur[i] <= p.hi[i]; p.jcur[i]++ {
		r := p.jcur[i]
		if p.lvI[r] != want {
			continue
		}
		e := base + r
		p.ops.EdgesScanned++
		c := p.res[e]
		if c <= p.tol {
			continue
		}
		if d := p.dfsIv(r, min(f, c)); d > 0 {
			p.res[e] -= d
			p.rev[e] += d
			return d
		}
	}
	return 0
}

// dfsIv continues the DFS at interval r with bottleneck f so far. At
// level 1 only the sink arc leads down, and r's cursor marks it spent
// once it is saturated; above level 1 only reverse job arcs do, tried in
// list order from the cursor.
func (p *PhaseNet) dfsIv(r int32, f float64) float64 {
	if p.lvI[r] == 1 {
		if p.icur[r] != 0 {
			return 0
		}
		p.ops.EdgesScanned++
		c := p.sinkRes[r]
		if c <= p.tol {
			p.icur[r] = 1
			return 0
		}
		d := min(f, c)
		p.sinkRes[r] -= d
		p.sinkRev[r] += d
		return d
	}
	want := p.lvI[r] - 1
	list := p.list[r]
	for ; int(p.icur[r]) < len(list); p.icur[r]++ {
		i := list[p.icur[r]]
		if p.lvJ[i] != want {
			continue
		}
		e := p.base[i] + r
		p.ops.EdgesScanned++
		c := p.rev[e]
		if c <= p.tol {
			continue
		}
		if d := p.dfsJob(i, min(f, c)); d > 0 {
			p.rev[e] -= d
			p.res[e] += d
			return d
		}
	}
	return 0
}

func fillInt32(s []int32, v int32) {
	for i := range s {
		s[i] = v
	}
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
