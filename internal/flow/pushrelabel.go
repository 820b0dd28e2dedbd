package flow

import (
	"fmt"
	"math"
)

// PRGraph is a maximum-flow network solved with the push-relabel
// (Goldberg–Tarjan) algorithm with the FIFO vertex selection rule and the
// gap heuristic. It exists as an ablation partner for the Dinic solver in
// this package: the scheduler's networks are shallow and wide, and the
// E11 ablation experiment measures which solver wins on them. The two
// implementations also cross-check each other in the property tests.
// It shares the flat edge layout and EdgeID scheme of Graph, but not the
// incremental warm-start API (push-relabel maintains a preflow, not a
// feasible flow, so mid-run capacity edits have no clean invariant).
type PRGraph struct {
	edges []edge
	nv    int

	adjOff []int32
	adjLst []int32
	csrOK  bool

	maxCap float64
	tol    float64
	ops    PROps
}

// PROps counts the elementary operations of a push-relabel run, for the
// observability layer and the E11 ablation. Counts accumulate across
// MaxFlow calls on the same graph.
type PROps struct {
	Pushes         int64 // saturating and non-saturating pushes
	Relabels       int64 // height increases
	GapFirings     int64 // gap-heuristic activations
	Discharges     int64 // vertices discharged off the FIFO queue
	GlobalRelabels int64 // exact-relabeling BFS passes
}

// Add accumulates o into p (for aggregating over many solves).
func (p *PROps) Add(o PROps) {
	p.Pushes += o.Pushes
	p.Relabels += o.Relabels
	p.GapFirings += o.GapFirings
	p.Discharges += o.Discharges
	p.GlobalRelabels += o.GlobalRelabels
}

// Ops returns the operation counts accumulated by MaxFlow so far.
func (g *PRGraph) Ops() PROps { return g.ops }

// NewPRGraph returns an empty push-relabel network with n vertices.
func NewPRGraph(n int) *PRGraph {
	g := &PRGraph{}
	g.Reset(n)
	return g
}

// Reset re-initializes the graph to n empty vertices, reusing backing
// arrays.
func (g *PRGraph) Reset(n int) {
	if n < 2 {
		panic(fmt.Sprintf("flow: graph needs >= 2 vertices, got %d", n))
	}
	g.nv = n
	g.edges = g.edges[:0]
	g.csrOK = false
	g.maxCap = 0
	g.ops = PROps{}
}

// N returns the number of vertices.
func (g *PRGraph) N() int { return g.nv }

func (g *PRGraph) tolerance() float64 {
	if g.tol > 0 {
		return g.tol
	}
	return DefaultTolerance * math.Max(1, g.maxCap)
}

// SetTolerance overrides the saturation tolerance (0 restores default).
func (g *PRGraph) SetTolerance(tol float64) { g.tol = tol }

// AddEdge adds a directed edge and returns its identifier.
func (g *PRGraph) AddEdge(from, to int, capacity float64) EdgeID {
	if from < 0 || from >= g.nv || to < 0 || to >= g.nv {
		panic(fmt.Sprintf("flow: edge %d->%d out of range [0,%d)", from, to, g.nv))
	}
	if from == to {
		panic("flow: self-loop")
	}
	if math.IsNaN(capacity) || math.IsInf(capacity, 0) || capacity < 0 {
		panic(fmt.Sprintf("flow: invalid capacity %v", capacity))
	}
	g.maxCap = math.Max(g.maxCap, capacity)
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges,
		edge{from: int32(from), to: int32(to), cap: capacity, orig: capacity},
		edge{from: int32(to), to: int32(from), cap: 0, orig: 0},
	)
	g.csrOK = false
	return id
}

func (g *PRGraph) fwd(id EdgeID) *edge {
	if id < 0 || int(id) >= len(g.edges) || id&1 != 0 {
		panic(fmt.Sprintf("flow: invalid edge id %d", id))
	}
	return &g.edges[id]
}

// Flow returns the flow currently on the edge.
func (g *PRGraph) Flow(id EdgeID) float64 {
	e := g.fwd(id)
	return e.orig - e.cap
}

// Capacity returns the original capacity of the edge.
func (g *PRGraph) Capacity(id EdgeID) float64 { return g.fwd(id).orig }

// Saturated reports whether the edge is (numerically) at capacity.
func (g *PRGraph) Saturated(id EdgeID) bool {
	return g.fwd(id).cap <= g.tolerance()
}

func (g *PRGraph) build() {
	if g.csrOK {
		return
	}
	n := g.nv
	g.adjOff = growInt32(g.adjOff, n+1)
	g.adjLst = growInt32(g.adjLst, len(g.edges))
	cursor := make([]int32, n)
	buildCSR(n, len(g.edges), func(i int) int32 { return g.edges[i].from }, g.adjOff, g.adjLst, cursor)
	g.csrOK = true
}

// MaxFlow computes a maximum s-t flow and returns its value.
func (g *PRGraph) MaxFlow(s, t int) float64 {
	if s == t {
		panic("flow: source equals sink")
	}
	g.build()
	n := g.nv
	tol := g.tolerance()
	height := make([]int, n)
	excess := make([]float64, n)
	count := make([]int, 2*n+1) // count[h] = number of vertices at height h
	inQueue := make([]bool, n)
	queue := make([]int, 0, n)

	var pushes, relabels, gapFirings, discharges, globalRelabels int64

	push := func(v int, eid int32) {
		pushes++
		e := &g.edges[eid]
		d := math.Min(excess[v], e.cap)
		e.cap -= d
		g.edges[eid^1].cap += d
		excess[v] -= d
		to := int(e.to)
		excess[to] += d
		if to != s && to != t && !inQueue[to] && excess[to] > tol {
			inQueue[to] = true
			queue = append(queue, to)
		}
	}

	// globalRelabel replaces every height with an exact residual
	// distance: dist-to-sink where the sink is still reachable, n +
	// dist-to-source for vertices that can only return excess, 2n for
	// vertices reaching neither. Each height only moves up (the max of
	// two valid labelings is valid), which preserves the termination
	// argument; the exact labels make subsequent pushes head straight
	// for the sink instead of wandering.
	dist := make([]int, n)
	bfsQueue := make([]int, 0, n)
	reverseBFS := func(root int) {
		for v := range dist {
			dist[v] = -1
		}
		dist[root] = 0
		bfsQueue = append(bfsQueue[:0], root)
		for head := 0; head < len(bfsQueue); head++ {
			cur := bfsQueue[head]
			for i := g.adjOff[cur]; i < g.adjOff[cur+1]; i++ {
				id := g.adjLst[i]
				if g.edges[id^1].cap > tol {
					u := int(g.edges[id].to)
					if dist[u] < 0 {
						dist[u] = dist[cur] + 1
						bfsQueue = append(bfsQueue, u)
					}
				}
			}
		}
	}
	globalRelabel := func() {
		globalRelabels++
		reverseBFS(t)
		for v := 0; v < n; v++ {
			switch {
			case v == s:
				height[v] = n
			case dist[v] >= 0:
				if dist[v] > height[v] {
					height[v] = dist[v]
				}
			default:
				height[v] = -1 // resolved by the source pass below
			}
		}
		reverseBFS(s)
		for v := 0; v < n; v++ {
			if height[v] >= 0 {
				continue
			}
			if dist[v] >= 0 {
				height[v] = n + dist[v]
			} else {
				height[v] = 2 * n
			}
		}
		for h := range count {
			count[h] = 0
		}
		for v := 0; v < n; v++ {
			if height[v] < len(count) {
				count[height[v]]++
			}
		}
	}

	// Initialize preflow.
	height[s] = n
	count[0] = n - 1
	count[n] = 1
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		eid := g.adjLst[i]
		if g.edges[eid].orig > 0 {
			excess[s] += g.edges[eid].cap
			push(s, eid)
		}
	}
	globalRelabel()
	grEvery := int64(n)
	if grEvery < 32 {
		grEvery = 32
	}
	sinceGlobal := int64(0)

	relabel := func(v int) {
		minH := 2 * n
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			e := &g.edges[g.adjLst[i]]
			if e.cap > tol && height[e.to] < minH {
				minH = height[e.to]
			}
		}
		if minH < 2*n {
			relabels++
			sinceGlobal++
			count[height[v]]--
			// Gap heuristic: if v was the last vertex at its height and
			// that height is below n, every vertex above the gap (and
			// below n) can be lifted past n immediately.
			if count[height[v]] == 0 && height[v] < n {
				gapFirings++
				gap := height[v]
				for u := range height {
					if u != s && gap < height[u] && height[u] < n {
						count[height[u]]--
						height[u] = n + 1
						count[height[u]]++
					}
				}
			}
			height[v] = minH + 1
			count[height[v]]++
		}
	}

	discharge := func(v int) {
		for excess[v] > tol {
			// Push along every admissible edge. Heights of neighbours do
			// not change during the scan, so one full pass either drains
			// the excess or leaves no admissible edge.
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				eid := g.adjLst[i]
				e := &g.edges[eid]
				if e.cap > tol && height[v] == height[e.to]+1 {
					push(v, eid)
					if excess[v] <= tol {
						break
					}
				}
			}
			if excess[v] <= tol {
				break
			}
			old := height[v]
			relabel(v)
			if height[v] == old || height[v] >= 2*n {
				break
			}
		}
	}

	for len(queue) > 0 {
		// Periodic exact relabeling, between discharges so a scan never
		// sees heights move under it.
		if sinceGlobal >= grEvery {
			sinceGlobal = 0
			globalRelabel()
		}
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		discharges++
		discharge(v)
	}
	g.ops.Add(PROps{Pushes: pushes, Relabels: relabels, GapFirings: gapFirings, Discharges: discharges, GlobalRelabels: globalRelabels})
	return excess[t]
}
