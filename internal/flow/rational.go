package flow

import (
	"fmt"
	"math/big"
)

// ratEdge is one arc of the flat exact residual-edge array, paired like
// edge: forward at even index i, reverse at i^1.
type ratEdge struct {
	from, to int32
	cap      *big.Rat // residual capacity
	orig     *big.Rat // original capacity (zero for reverse edges)
}

// RatGraph is a flow network over exact rational capacities. It mirrors
// Graph — same flat edge layout, same EdgeID scheme, same incremental
// warm-start API — but performs all arithmetic in math/big.Rat, so
// saturation tests are exact. It is used to cross-check the float64
// solver and to run the offline optimum in exact mode on rational
// inputs. Because the arithmetic is exact, ScaleSourceCaps can rescale
// multiplicatively without the floating-point drift the float engine
// has to sidestep (see DESIGN.md).
type RatGraph struct {
	edges []ratEdge
	nv    int

	adjOff []int32
	adjLst []int32
	csrOK  bool

	ops DinicOps

	lastS, lastT int
	haveST       bool

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
	g.haveST = false
}

// N returns the number of vertices.
func (g *RatGraph) N() int { return g.nv }

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

// Capacity returns the exact original capacity of the edge.
func (g *RatGraph) Capacity(id EdgeID) *big.Rat {
	return new(big.Rat).Set(g.fwd(id).orig)
}

// Saturated reports whether the edge carries exactly its capacity.
func (g *RatGraph) Saturated(id EdgeID) bool {
	return g.fwd(id).cap.Sign() == 0
}

func (g *RatGraph) build() {
	if g.csrOK {
		return
	}
	n := g.nv
	g.adjOff = growInt32(g.adjOff, n+1)
	g.adjLst = growInt32(g.adjLst, len(g.edges))
	g.ensureScratch(n)
	buildCSR(n, len(g.edges), func(i int) int32 { return g.edges[i].from }, g.adjOff, g.adjLst, g.iter)
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
	g.lastS, g.lastT, g.haveST = s, t, true
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
		// Stop once t is labelled, as Graph's BFS does.
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
		for {
			// Start with the total outgoing capacity of s as the bound.
			bound := new(big.Rat)
			for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
				bound.Add(bound, g.edges[g.adjLst[i]].cap)
			}
			if bound.Sign() == 0 {
				break
			}
			d := dfs(int32(s), bound)
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

// ---------------------------------------------------------------------------
// Incremental warm-start API — exact mirror of Graph's. See flow.go for
// the drain/re-augment invariant; the rational versions are simpler
// because saturation tests are exact (Sign comparisons, no tolerance).
// ---------------------------------------------------------------------------

// ResetFlow removes all flow, restoring residual capacities.
func (g *RatGraph) ResetFlow() {
	for i := range g.edges {
		g.edges[i].cap.Set(g.edges[i].orig)
	}
}

func (g *RatGraph) stEndpoints() (int, int) {
	if !g.haveST {
		panic("flow: incremental mutation before any MaxFlow call")
	}
	return g.lastS, g.lastT
}

func (g *RatGraph) edgeFlow(id int32) *big.Rat {
	e := &g.edges[id]
	return new(big.Rat).Sub(e.orig, e.cap)
}

// SetCapacity replaces the capacity of edge id, draining flow that no
// longer fits. The amount drained is returned.
func (g *RatGraph) SetCapacity(id EdgeID, c *big.Rat) *big.Rat {
	if c.Sign() < 0 {
		panic(fmt.Sprintf("flow: negative capacity %v", c))
	}
	e := g.fwd(id)
	drained := new(big.Rat)
	if g.edgeFlow(int32(id)).Cmp(c) > 0 {
		drained = g.reduceEdgeFlowTo(int32(id), c)
	}
	flow := g.edgeFlow(int32(id))
	e.orig.Set(c)
	e.cap.Sub(c, flow)
	if e.cap.Sign() < 0 {
		e.cap.SetInt64(0)
	}
	return drained
}

// ScaleSourceCaps multiplies every forward edge leaving the source of
// the last MaxFlow call by factor (exactly), draining flow that no
// longer fits, and returns the total drained.
func (g *RatGraph) ScaleSourceCaps(factor *big.Rat) *big.Rat {
	if factor.Sign() < 0 {
		panic(fmt.Sprintf("flow: negative scale factor %v", factor))
	}
	s, _ := g.stEndpoints()
	g.build()
	drained := new(big.Rat)
	scaled := new(big.Rat)
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		id := g.adjLst[i]
		if id&1 != 0 {
			continue
		}
		scaled.Mul(g.edges[id].orig, factor)
		drained.Add(drained, g.SetCapacity(EdgeID(id), scaled))
	}
	return drained
}

// RemoveJobEdge takes the head vertex of source edge id out of the
// network: drains all flow through it and zeroes id and the vertex's
// out-edge capacities. Returns the total flow drained.
func (g *RatGraph) RemoveJobEdge(id EdgeID) *big.Rat {
	g.stEndpoints()
	g.build()
	e := g.fwd(id)
	v := e.to
	drained := new(big.Rat)
	for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
		out := g.adjLst[i]
		if out&1 != 0 {
			continue
		}
		if g.edgeFlow(out).Sign() > 0 {
			drained.Add(drained, g.reduceEdgeFlowTo(out, new(big.Rat)))
		}
		g.edges[out].orig.SetInt64(0)
		g.edges[out].cap.SetInt64(0)
		g.edges[out^1].cap.SetInt64(0)
	}
	e.orig.SetInt64(0)
	e.cap.SetInt64(0)
	g.edges[id^1].cap.SetInt64(0)
	return drained
}

// reduceEdgeFlowTo cancels flow on forward edge eid until it is at most
// target, removing each canceled unit along one flow-carrying
// source-to-sink path. Returns the amount canceled.
func (g *RatGraph) reduceEdgeFlowTo(eid int32, target *big.Rat) *big.Rat {
	s, t := g.stEndpoints()
	g.build()
	removed := new(big.Rat)
	for iter := 0; g.edgeFlow(eid).Cmp(target) > 0; iter++ {
		if iter > len(g.edges)+2 {
			violate(false, "drain failed to converge on exact graph (cyclic flow?)")
		}
		d := new(big.Rat).Sub(g.edgeFlow(eid), target)
		down, ok := g.flowPathDown(int(g.edges[eid].to), t)
		if !ok {
			violate(false, "no flow-carrying path to sink while draining exact graph")
		}
		up, ok := g.flowPathUp(int(g.edges[eid].from), s)
		if !ok {
			violate(false, "no flow-carrying path to source while draining exact graph")
		}
		for _, pid := range down {
			if f := g.edgeFlow(pid); f.Cmp(d) < 0 {
				d.Set(f)
			}
		}
		for _, pid := range up {
			if f := g.edgeFlow(pid); f.Cmp(d) < 0 {
				d.Set(f)
			}
		}
		if d.Sign() <= 0 {
			violate(false, "zero drain bottleneck on exact graph")
		}
		g.cancel(eid, d)
		for _, pid := range down {
			g.cancel(pid, d)
		}
		for _, pid := range up {
			g.cancel(pid, d)
		}
		removed.Add(removed, d)
	}
	return removed
}

func (g *RatGraph) cancel(id int32, d *big.Rat) {
	e := &g.edges[id]
	e.cap.Add(e.cap, d)
	p := &g.edges[id^1]
	p.cap.Sub(p.cap, d)
	if p.cap.Sign() < 0 {
		violate(false, "over-cancel on exact graph")
	}
}

func (g *RatGraph) flowPathDown(v, t int) ([]int32, bool) {
	path := g.queue[:0]
	for steps := 0; v != t; steps++ {
		if steps > g.nv {
			return nil, false
		}
		found := false
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			id := g.adjLst[i]
			if id&1 != 0 {
				continue
			}
			if g.edgeFlow(id).Sign() > 0 {
				path = append(path, id)
				v = int(g.edges[id].to)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	g.queue = path[:0]
	return path, true
}

func (g *RatGraph) flowPathUp(v, s int) ([]int32, bool) {
	path := make([]int32, 0, 8)
	for steps := 0; v != s; steps++ {
		if steps > g.nv {
			return nil, false
		}
		found := false
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			id := g.adjLst[i]
			if id&1 == 0 {
				continue
			}
			if g.edgeFlow(id^1).Sign() > 0 {
				path = append(path, id^1)
				v = int(g.edges[id^1].from)
				found = true
				break
			}
		}
		if !found {
			return nil, false
		}
	}
	return path, true
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
