// Package flow provides the maximum-flow substrate used by the
// combinatorial offline speed-scaling algorithm (Section 2 of the paper).
//
// There is one production Dinic per arithmetic, plus a plain reference
// and an ablation partner:
//
//   - PhaseNet (phasenet.go): float64 Dinic over exactly the scheduler's
//     network G(J, m, s), source -> job -> interval -> sink with each job
//     reaching a contiguous window of intervals, stored as per-job
//     windows and per-interval job lists instead of an edge list.
//     internal/opt solves every round and emission of a float phase on
//     it, and every feasibility probe, cap-search wave and ScheduleAtCap
//     flow. It pushes the same paths with the same float operations as a
//     Graph built from the same edges, takes its levels from the sink,
//     and hands back the co-reachable set its last BFS already labelled.
//   - RatGraph (rational.go): the same Dinic over exact math/big.Rat
//     arithmetic, on any network. The exact engine builds one for every
//     round and solves it from zero flow.
//   - Graph: textbook Dinic over float64 capacities with a configurable
//     tolerance for residual-capacity comparisons, on any network. No
//     production code uses it: it is the plain reference the PhaseNet,
//     cap-search and scheduler tests compare against. A Graph is built,
//     solved and read; a changed network is a new build.
//   - PRGraph (pushrelabel.go): push-relabel, the partner of experiment
//     E11's Dinic-versus-push-relabel ablation.
//
// EdgesScanned counts differently in Graph and PhaseNet: Graph counts
// every adjacency entry its BFS and DFS visit, PhaseNet only the arcs
// whose residual it reads, never the arcs into s, out of t or of jobs
// that are not set, and no dead end, since its DFS never enters one. AugPaths and
// BFSPasses are the same in both.
//
// Graph, RatGraph and PRGraph store the residual network as a single
// flat edge array with a CSR-style adjacency index built lazily on first solve: the forward edge
// created by AddEdge sits at an even index i, its reverse at i^1, and a
// vertex's incident edges occupy one contiguous adjOff[v]..adjOff[v+1]
// window of the index. The flat layout keeps the Dinic inner loops on two
// contiguous allocations (cache locality) and makes graphs resettable
// arenas: Reset reuses every backing array.
//
// The Dinic BFS of Graph and RatGraph stops as soon as it labels the
// sink: every vertex it would label afterwards sits at or beyond the
// sink's level, and since levels rise by one along every DFS step, no
// augmenting path passes through such a vertex. The augmenting paths,
// the per-edge flows and the AugPaths and BFSPasses counts are those of
// a BFS that expands every reachable vertex; EdgesScanned counts fewer
// edges (~25% fewer on the scheduler's phase networks), since neither
// the BFS nor the DFS visits those vertices' edges any more.
package flow

import (
	"fmt"
	"math"
)

// The package's tolerance ladder. Every float comparison in the solver
// stack derives from DefaultTolerance so the layers cannot silently
// disagree on what "equal" means: each rung is three decades looser than
// the one below, matching how error accumulates moving up the stack
// (per-edge residual arithmetic -> whole-solve acceptance tests ->
// cross-engine differential comparisons).
const (
	// DefaultTolerance is the residual-capacity threshold below which an
	// edge is considered saturated by the float64 solver, relative to the
	// largest capacity in the graph.
	DefaultTolerance = 1e-12

	// SolveTolerance is the relative slack of whole-solve decisions built
	// on top of the edge arithmetic: phase-acceptance tests in
	// internal/opt, feasibility probes, volume-depletion thresholds.
	SolveTolerance = DefaultTolerance * 1e3

	// DiffTolerance is the comparison slack for cross-engine checks
	// (float vs exact, PhaseNet vs Graph, Dinic vs push-relabel): loose enough
	// to absorb legitimately different rounding paths, tight enough to
	// catch real disagreement.
	DiffTolerance = SolveTolerance * 1e3
)

// Close reports whether a and b agree to the given tolerance, relative
// to their magnitude: |a-b| <= tol * (1 + max(|a|, |b|)). It is the
// scale-aware comparison the differential tests and the solver's
// borderline-feasibility checks share, so the two cannot drift apart.
func Close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// InvariantViolation is the panic payload of the solver's internal
// invariant checks (derived capacities staying finite). Panicking —
// instead of returning an error through a dozen internal frames that
// have no way to continue — keeps the hot paths clean; the solver driver (internal/opt.runPhases)
// recovers the payload at its boundary and converts it into a typed
// error. Numeric distinguishes invariants that can fail through float64
// precision loss alone (retrying in exact arithmetic may succeed) from
// true programmer-bug invariants.
type InvariantViolation struct {
	Numeric bool   // float precision failure, not necessarily a bug
	Msg     string // what was violated
}

func (v *InvariantViolation) Error() string { return "flow: " + v.Msg }

// violate panics with an InvariantViolation.
func violate(numeric bool, msg string) {
	panic(&InvariantViolation{Numeric: numeric, Msg: msg})
}

// edge is one directed arc of the flat residual-edge array. Edges live in
// pairs: the forward edge added by AddEdge at an even index i, its
// reverse at i^1, so the partner is one XOR away and needs no pointer.
type edge struct {
	from, to int32
	cap      float64 // remaining (residual) capacity
	orig     float64 // original capacity (0 for reverse edges)
}

// DinicOps counts the elementary operations of a Dinic max-flow run,
// for the observability layer (internal/obs) and the E11 ablation. The
// counts accumulate across MaxFlow calls on the same graph and reset
// with Reset.
type DinicOps struct {
	BFSPasses    int64 // level-graph constructions
	AugPaths     int64 // augmenting paths pushed
	EdgesScanned int64 // residual edges examined in BFS and DFS
}

// Add accumulates o into d (for aggregating over many solves).
func (d *DinicOps) Add(o DinicOps) {
	d.BFSPasses += o.BFSPasses
	d.AugPaths += o.AugPaths
	d.EdgesScanned += o.EdgesScanned
}

// Sub returns d minus o, for per-solve deltas on a reused graph.
func (d DinicOps) Sub(o DinicOps) DinicOps {
	return DinicOps{
		BFSPasses:    d.BFSPasses - o.BFSPasses,
		AugPaths:     d.AugPaths - o.AugPaths,
		EdgesScanned: d.EdgesScanned - o.EdgesScanned,
	}
}

// Graph is a flow network over float64 capacities. The zero value is an
// unusable arena; construct with NewGraph, or call Reset to (re)shape an
// existing graph without allocating.
type Graph struct {
	edges []edge
	nv    int

	// CSR adjacency over the flat edge array, rebuilt lazily after
	// structural changes (AddEdge/Reset): adjOff[v]..adjOff[v+1] indexes
	// adjLst, which lists the edges leaving v in insertion order.
	adjOff []int32
	adjLst []int32
	csrOK  bool

	maxCap float64 // largest capacity added since the last Reset
	tol    float64 // absolute tolerance override; 0 derives it from maxCap
	ops    DinicOps

	// Reusable scratch for MaxFlow and CoReachable.
	level, iter, queue []int32
	mark               []bool
}

// Ops returns the operation counts accumulated by MaxFlow since the last
// Reset.
func (g *Graph) Ops() DinicOps { return g.ops }

// NewGraph returns an empty flow network with n vertices numbered 0..n-1.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset re-initializes the graph to n empty vertices, reusing all backing
// arrays. It is the arena entry point: a Reset graph is indistinguishable
// from a NewGraph one (a SetTolerance override is cleared too), but
// steady-state reuse allocates nothing.
func (g *Graph) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("flow: graph needs >= 2 vertices, got %d", n))
	}
	g.nv = n
	g.edges = g.edges[:0]
	g.csrOK = false
	g.maxCap = 0
	g.tol = 0
	g.ops = DinicOps{}
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.nv }

// SetTolerance overrides the absolute saturation tolerance. A zero value
// restores the default (DefaultTolerance times the largest capacity).
func (g *Graph) SetTolerance(tol float64) { g.tol = tol }

func (g *Graph) tolerance() float64 {
	if g.tol > 0 {
		return g.tol
	}
	return DefaultTolerance * math.Max(1, g.maxCap)
}

// EdgeID identifies an edge added by AddEdge: the (even) index of its
// forward edge in the flat edge array.
type EdgeID int32

// AddEdge adds a directed edge from -> to with the given capacity and
// returns its identifier. Capacities must be finite and non-negative.
func (g *Graph) AddEdge(from, to int, capacity float64) EdgeID {
	if from < 0 || from >= g.nv || to < 0 || to >= g.nv {
		panic(fmt.Sprintf("flow: edge %d->%d out of range [0,%d)", from, to, g.nv))
	}
	if from == to {
		panic("flow: self-loop")
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		// Non-finite capacities reach here only through float64 overflow
		// or underflow in the caller's derived values (w/s with an
		// underflowed speed, overflowed m_j|I_j|); classify as numeric so
		// the solver's fallback ladder retries in exact arithmetic.
		violate(true, fmt.Sprintf("invalid capacity %v", capacity))
	}
	g.maxCap = max(g.maxCap, capacity)
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges,
		edge{from: int32(from), to: int32(to), cap: capacity, orig: capacity},
		edge{from: int32(to), to: int32(from), cap: 0, orig: 0},
	)
	g.csrOK = false
	return id
}

// fwd returns the forward edge for id, validating it.
func (g *Graph) fwd(id EdgeID) *edge {
	if id < 0 || int(id) >= len(g.edges) || id&1 != 0 {
		panic(fmt.Sprintf("flow: invalid edge id %d", id))
	}
	return &g.edges[id]
}

// Flow returns the amount of flow currently routed along the edge.
func (g *Graph) Flow(id EdgeID) float64 {
	e := g.fwd(id)
	return e.orig - e.cap
}

// Capacity returns the original capacity of the edge.
func (g *Graph) Capacity(id EdgeID) float64 {
	return g.fwd(id).orig
}

// Saturated reports whether the edge carries (numerically) its full
// capacity.
func (g *Graph) Saturated(id EdgeID) bool {
	return g.fwd(id).cap <= g.tolerance()
}

// build (re)constructs the CSR adjacency index after structural changes.
func (g *Graph) build() {
	if g.csrOK {
		return
	}
	n := g.nv
	g.adjOff = growInt32(g.adjOff, n+1)
	g.adjLst = growInt32(g.adjLst, len(g.edges))
	g.ensureScratch(n)
	// iter is free to clobber as cursor scratch: MaxFlow re-fills it.
	buildCSR(n, len(g.edges), func(i int) int32 { return g.edges[i].from }, g.adjOff, g.adjLst, g.iter)
	g.csrOK = true
}

func (g *Graph) ensureScratch(n int) {
	g.level = growInt32(g.level, n)
	g.iter = growInt32(g.iter, n)
	if cap(g.queue) < n {
		g.queue = make([]int32, 0, n)
	}
	if cap(g.mark) < n {
		g.mark = make([]bool, n)
	}
	g.mark = g.mark[:n]
}

func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// MaxFlow augments the current flow to a maximum s-t flow with Dinic's
// algorithm and returns the amount of flow added by this call: on a
// freshly built graph, the max-flow value.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		panic("flow: source equals sink")
	}
	g.build()
	g.ensureScratch(g.nv)
	tol := g.tolerance()
	n := g.nv
	level, iter := g.level, g.iter

	// Local op tallies, flushed to g.ops once at the end so the inner
	// loops touch only registers.
	var bfsPasses, augPaths, edgesScanned int64

	bfs := func() bool {
		bfsPasses++
		for i := 0; i < n; i++ {
			level[i] = -1
		}
		level[s] = 0
		queue := append(g.queue[:0], int32(s))
		// Stop once t is labelled: the rest of the queue sits at t's level
		// minus one or deeper, so it could only label vertices at or
		// beyond t's level. Levels rise by one along every DFS step, so
		// no augmenting path passes through those; labelling them would
		// only send the DFS into dead ends.
		for head := 0; head < len(queue) && level[t] < 0; head++ {
			v := queue[head]
			edgesScanned += int64(g.adjOff[v+1] - g.adjOff[v])
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				e := &g.edges[g.adjLst[i]]
				if e.cap > tol && level[e.to] < 0 {
					level[e.to] = level[v] + 1
					queue = append(queue, e.to)
				}
			}
		}
		g.queue = queue[:0]
		return level[t] >= 0
	}

	var dfs func(v int32, f float64) float64
	dfs = func(v int32, f float64) float64 {
		if int(v) == t {
			return f
		}
		for ; iter[v] < g.adjOff[v+1]; iter[v]++ {
			edgesScanned++
			eid := g.adjLst[iter[v]]
			e := &g.edges[eid]
			if e.cap > tol && level[v] < level[e.to] {
				d := dfs(e.to, min(f, e.cap))
				if d > 0 {
					e.cap -= d
					g.edges[eid^1].cap += d
					return d
				}
			}
		}
		return 0
	}

	var total float64
	for bfs() {
		copy(iter[:n], g.adjOff[:n])
		for {
			f := dfs(int32(s), math.Inf(1))
			if f <= 0 {
				break
			}
			augPaths++
			total += f
		}
	}
	g.ops.Add(DinicOps{BFSPasses: bfsPasses, AugPaths: augPaths, EdgesScanned: edgesScanned})
	return total
}

// OutFlow returns the total flow leaving vertex v on forward edges.
func (g *Graph) OutFlow(v int) float64 {
	g.build()
	var f float64
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		e := &g.edges[g.adjLst[i]]
		if e.orig > 0 {
			f += e.orig - e.cap
		}
	}
	return f
}

// CheckConservation verifies flow conservation at every vertex except s
// and t, within the graph tolerance scaled by the vertex degree. It
// returns the first violation found.
func (g *Graph) CheckConservation(s, t int) error {
	g.build()
	tol := g.tolerance()
	for v := 0; v < g.nv; v++ {
		if v == s || v == t {
			continue
		}
		var net float64
		deg := 0
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			e := &g.edges[g.adjLst[i]]
			if e.orig > 0 { // forward edge leaving v
				net -= e.orig - e.cap
				deg++
			} else { // reverse edge: its flow equals inflow into v
				net += e.cap
				deg++
			}
		}
		if math.Abs(net) > tol*float64(deg+1)*10 {
			return fmt.Errorf("flow: conservation violated at vertex %d by %v", v, net)
		}
	}
	return nil
}

// CoReachable reports, for every vertex, whether the sink t is reachable
// from it in the residual graph of the current flow. For a maximum flow
// this set is the sink side of the maximal minimum cut, which is the
// same for every maximum flow of the network, which is what makes the
// job-removal decisions of internal/opt flow-invariant. PhaseNet hands
// the same set back from its last BFS; this walk is its reference in
// the tests.
// The returned slice is scratch owned by the graph, valid until the next
// call into it.
func (g *Graph) CoReachable(t int) []bool {
	g.build()
	g.ensureScratch(g.nv)
	mark := g.mark
	for i := range mark {
		mark[i] = false
	}
	tol := g.tolerance()
	mark[t] = true
	queue := append(g.queue[:0], int32(t))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			id := g.adjLst[i]
			// The partner edge runs e.to -> v; it is a residual edge of
			// the reversed direction when its capacity remains positive.
			if g.edges[id^1].cap > tol {
				u := g.edges[id].to
				if !mark[u] {
					mark[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	g.queue = queue[:0]
	return mark
}
