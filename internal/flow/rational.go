package flow

import (
	"fmt"
	"math/big"
)

// ratEdge is one arc of the flat exact residual-edge array: the forward
// edge at even index i, its reverse at i^1.
type ratEdge struct {
	from, to int32
	cap      *big.Rat // residual capacity
	orig     *big.Rat // original capacity (zero for reverse edges)
}

// RatGraph is a flow network over exact rational capacities. It mirrors
// flowref.Graph — same flat edge layout, same EdgeID scheme, same Dinic —
// but performs all arithmetic in math/big.Rat, so saturation tests are
// exact. It is used to cross-check the float64 solver and to run the
// offline optimum in exact mode on rational inputs: the exact round loop
// builds one per round and solves it from zero (DESIGN.md §7).
type RatGraph struct {
	edges []ratEdge
	nv    int

	adjOff []int32
	adjLst []int32
	csrOK  bool

	ops DinicOps

	level, iter, queue []int32
	mark               []bool
}

// Ops returns the Dinic operation counts accumulated by MaxFlow since
// the last Reset.
func (g *RatGraph) Ops() DinicOps { return g.ops }

// NewRatGraph returns an empty exact flow network with n vertices.
func NewRatGraph(n int) *RatGraph {
	g := &RatGraph{}
	g.Reset(n)
	return g
}

// Reset re-initializes the graph to n empty vertices, reusing backing
// arrays (the big.Rat values themselves are reallocated by AddEdge).
func (g *RatGraph) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("flow: graph needs >= 2 vertices, got %d", n))
	}
	g.nv = n
	g.edges = g.edges[:0]
	g.csrOK = false
	g.ops = DinicOps{}
}

// AddEdge adds a directed edge with the given non-negative capacity. The
// capacity is copied.
func (g *RatGraph) AddEdge(from, to int, capacity *big.Rat) EdgeID {
	if from < 0 || from >= g.nv || to < 0 || to >= g.nv {
		panic(fmt.Sprintf("flow: edge %d->%d out of range", from, to))
	}
	if from == to {
		panic("flow: self-loop")
	}
	if capacity.Sign() < 0 {
		panic(fmt.Sprintf("flow: negative capacity %v", capacity))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges,
		ratEdge{from: int32(from), to: int32(to), cap: new(big.Rat).Set(capacity), orig: new(big.Rat).Set(capacity)},
		ratEdge{from: int32(to), to: int32(from), cap: new(big.Rat), orig: new(big.Rat)},
	)
	g.csrOK = false
	return id
}

func (g *RatGraph) fwd(id EdgeID) *ratEdge {
	if id < 0 || int(id) >= len(g.edges) || id&1 != 0 {
		panic(fmt.Sprintf("flow: invalid edge id %d", id))
	}
	return &g.edges[id]
}

// Flow returns the exact flow on the edge.
func (g *RatGraph) Flow(id EdgeID) *big.Rat {
	e := g.fwd(id)
	return new(big.Rat).Sub(e.orig, e.cap)
}

func (g *RatGraph) build() {
	if g.csrOK {
		return
	}
	n := g.nv
	g.adjOff = growInt32(g.adjOff, n+1)
	g.adjLst = growInt32(g.adjLst, len(g.edges))
	g.ensureScratch(n)
	BuildCSR(n, len(g.edges), func(i int) int32 { return g.edges[i].from }, g.adjOff, g.adjLst, g.iter)
	g.csrOK = true
}

func (g *RatGraph) ensureScratch(n int) {
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

// MaxFlow augments the current flow to an exact maximum s-t flow with
// Dinic's algorithm and returns the flow added by this call.
func (g *RatGraph) MaxFlow(s, t int) *big.Rat {
	if s == t {
		panic("flow: source equals sink")
	}
	g.build()
	g.ensureScratch(g.nv)
	n := g.nv
	level, iter := g.level, g.iter

	var bfsPasses, augPaths, edgesScanned int64

	bfs := func() bool {
		bfsPasses++
		for i := 0; i < n; i++ {
			level[i] = -1
		}
		level[s] = 0
		queue := append(g.queue[:0], int32(s))
		// Stop once t is labelled (see the package doc).
		for head := 0; head < len(queue) && level[t] < 0; head++ {
			v := queue[head]
			edgesScanned += int64(g.adjOff[v+1] - g.adjOff[v])
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				e := &g.edges[g.adjLst[i]]
				if e.cap.Sign() > 0 && level[e.to] < 0 {
					level[e.to] = level[v] + 1
					queue = append(queue, e.to)
				}
			}
		}
		g.queue = queue[:0]
		return level[t] >= 0
	}

	// f == nil means "unbounded" (at the source).
	var dfs func(v int32, f *big.Rat) *big.Rat
	dfs = func(v int32, f *big.Rat) *big.Rat {
		if int(v) == t {
			return new(big.Rat).Set(f)
		}
		for ; iter[v] < g.adjOff[v+1]; iter[v]++ {
			edgesScanned++
			eid := g.adjLst[iter[v]]
			e := &g.edges[eid]
			if e.cap.Sign() > 0 && level[v] < level[e.to] {
				push := e.cap
				if f != nil && f.Cmp(e.cap) < 0 {
					push = f
				}
				d := dfs(e.to, push)
				if d != nil && d.Sign() > 0 {
					e.cap.Sub(e.cap, d)
					p := &g.edges[eid^1]
					p.cap.Add(p.cap, d)
					return d
				}
			}
		}
		return nil
	}

	total := new(big.Rat)
	for bfs() {
		copy(iter[:n], g.adjOff[:n])
		// Stop the phase once every arc out of s is saturated. Capacities
		// are non-negative, so a sign scan decides it: the DFS from s
		// bounds each path by its first arc anyway (nil is unbounded).
		for g.sourceLive(s) {
			d := dfs(int32(s), nil)
			if d == nil || d.Sign() == 0 {
				break
			}
			augPaths++
			total.Add(total, d)
		}
	}
	g.ops.Add(DinicOps{BFSPasses: bfsPasses, AugPaths: augPaths, EdgesScanned: edgesScanned})
	return total
}

// sourceLive reports whether some arc out of s has residual capacity.
func (g *RatGraph) sourceLive(s int) bool {
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		if g.edges[g.adjLst[i]].cap.Sign() > 0 {
			return true
		}
	}
	return false
}

// CoReachable reports, for every vertex, whether the sink t is reachable
// from it in the exact residual graph. The slice is graph-owned scratch.
func (g *RatGraph) CoReachable(t int) []bool {
	g.build()
	g.ensureScratch(g.nv)
	mark := g.mark
	for i := range mark {
		mark[i] = false
	}
	mark[t] = true
	queue := append(g.queue[:0], int32(t))
	for head := 0; head < len(queue); head++ {
		v := queue[head]
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			id := g.adjLst[i]
			if g.edges[id^1].cap.Sign() > 0 {
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
