// Package flowref holds the reference max-flow solvers that no
// production solve runs: Graph, a float64 flow network on a generic edge
// list, solved either by textbook Dinic (MaxFlow) or by FIFO
// push-relabel with the gap heuristic (PushRelabel). Tests hold the
// production engines of package flow to it: flow.PhaseNet must push
// bit-for-bit the flows of MaxFlow on the same network, and the
// scheduler's cap search and phase loop are checked against probes on a
// Graph. Experiment E11 (internal/bench) times PushRelabel against
// flow.PhaseNet. Only tests and internal/bench import this package.
//
// A Graph stores the residual network as a single flat edge array with
// the CSR adjacency index of flow.BuildCSR, built lazily on first solve:
// the forward edge created by AddEdge sits at an even index i, its
// reverse at i^1. Reset reuses every backing array. A Graph is built,
// solved and read; a changed network is a new build.
//
// MaxFlow's BFS stops as soon as it labels the sink, as flow.RatGraph's
// does. EdgesScanned counts differently in Graph and flow.PhaseNet:
// Graph counts every adjacency entry its BFS and DFS visit, PhaseNet
// only the arcs whose residual it reads, never the arcs into s, out of t
// or of jobs that are not set, and no dead end, since its DFS never
// enters one. AugPaths and BFSPasses are the same in both.
package flowref

import (
	"fmt"
	"math"
	"slices"

	"mpss/internal/flow"
)

// Close reports whether a and b agree to the given tolerance, relative
// to their magnitude: |a-b| <= tol * (1 + max(|a|, |b|)).
func Close(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// edge is one directed arc of the flat residual-edge array. Edges live in
// pairs: the forward edge added by AddEdge at an even index i, its
// reverse at i^1, so the partner is one XOR away and needs no pointer.
type edge struct {
	from, to int32
	cap      float64 // remaining (residual) capacity
	orig     float64 // original capacity (0 for reverse edges)
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
	ops    flow.DinicOps

	// Reusable scratch for MaxFlow and CoReachable.
	level, iter, queue []int32
	mark               []bool
}

// Ops returns the operation counts accumulated by MaxFlow since the last
// Reset.
func (g *Graph) Ops() flow.DinicOps { return g.ops }

// NewGraph returns an empty flow network with n vertices numbered 0..n-1.
func NewGraph(n int) *Graph {
	g := &Graph{}
	g.Reset(n)
	return g
}

// Reset re-initializes the graph to n empty vertices, reusing all backing
// arrays: a Reset graph is indistinguishable from a NewGraph one.
func (g *Graph) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("flowref: graph needs >= 2 vertices, got %d", n))
	}
	g.nv = n
	g.edges = g.edges[:0]
	g.csrOK = false
	g.maxCap = 0
	g.ops = flow.DinicOps{}
}

// Tolerance returns the absolute saturation tolerance: DefaultTolerance
// times the largest capacity (at least 1).
func (g *Graph) Tolerance() float64 {
	return flow.DefaultTolerance * math.Max(1, g.maxCap)
}

// AddEdge adds a directed edge from -> to with the given capacity and
// returns its identifier. Capacities must be finite and non-negative.
func (g *Graph) AddEdge(from, to int, capacity float64) flow.EdgeID {
	if from < 0 || from >= g.nv || to < 0 || to >= g.nv {
		panic(fmt.Sprintf("flowref: edge %d->%d out of range [0,%d)", from, to, g.nv))
	}
	if from == to {
		panic("flowref: self-loop")
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		// Classified as numeric, as flow.PhaseNet classifies it.
		panic(&flow.InvariantViolation{Numeric: true, Msg: fmt.Sprintf("invalid capacity %v", capacity)})
	}
	g.maxCap = max(g.maxCap, capacity)
	id := flow.EdgeID(len(g.edges))
	g.edges = append(g.edges,
		edge{from: int32(from), to: int32(to), cap: capacity, orig: capacity},
		edge{from: int32(to), to: int32(from), cap: 0, orig: 0},
	)
	g.csrOK = false
	return id
}

// fwd returns the forward edge for id, validating it.
func (g *Graph) fwd(id flow.EdgeID) *edge {
	if id < 0 || int(id) >= len(g.edges) || id&1 != 0 {
		panic(fmt.Sprintf("flowref: invalid edge id %d", id))
	}
	return &g.edges[id]
}

// Flow returns the amount of flow currently routed along the edge.
func (g *Graph) Flow(id flow.EdgeID) float64 {
	e := g.fwd(id)
	return e.orig - e.cap
}

// Capacity returns the original capacity of the edge.
func (g *Graph) Capacity(id flow.EdgeID) float64 {
	return g.fwd(id).orig
}

// Saturated reports whether the edge carries (numerically) its full
// capacity.
func (g *Graph) Saturated(id flow.EdgeID) bool {
	return g.fwd(id).cap <= g.Tolerance()
}

// build (re)constructs the CSR adjacency index after structural changes
// and sizes the scratch.
func (g *Graph) build() {
	n := g.nv
	g.level = slices.Grow(g.level[:0], n)[:n]
	g.iter = slices.Grow(g.iter[:0], n)[:n]
	g.queue = slices.Grow(g.queue[:0], n)
	g.mark = slices.Grow(g.mark[:0], n)[:n]
	if g.csrOK {
		return
	}
	g.adjOff = slices.Grow(g.adjOff[:0], n+1)[:n+1]
	g.adjLst = slices.Grow(g.adjLst[:0], len(g.edges))[:len(g.edges)]
	// iter is free to clobber as cursor scratch: MaxFlow re-fills it.
	flow.BuildCSR(n, len(g.edges), func(i int) int32 { return g.edges[i].from }, g.adjOff, g.adjLst, g.iter)
	g.csrOK = true
}

// MaxFlow augments the current flow to a maximum s-t flow with Dinic's
// algorithm and returns the amount of flow added by this call: on a
// freshly built graph, the max-flow value.
func (g *Graph) MaxFlow(s, t int) float64 {
	if s == t {
		panic("flowref: source equals sink")
	}
	g.build()
	tol := g.Tolerance()
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
	g.ops.Add(flow.DinicOps{BFSPasses: bfsPasses, AugPaths: augPaths, EdgesScanned: edgesScanned})
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
	tol := g.Tolerance()
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
			return fmt.Errorf("flowref: conservation violated at vertex %d by %v", v, net)
		}
	}
	return nil
}

// CoReachable reports, for every vertex, whether the sink t is reachable
// from it in the residual graph of the current flow. For a maximum flow
// this set is the sink side of the maximal minimum cut, the same for
// every maximum flow of the network; flow.PhaseNet.CoReachable is held
// to it in the tests. The returned slice is scratch owned by the graph,
// valid until the next call into it.
func (g *Graph) CoReachable(t int) []bool {
	g.build()
	mark := g.mark
	clear(mark)
	tol := g.Tolerance()
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
