package flowref

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mpss/internal/flow"
)

// MaxFlow's BFS stops as soon as it labels the sink. parentMaxFlow keeps
// the earlier BFS, which expanded every reachable vertex, as a
// test-local reference: on every network below the two must route
// bit-equal per-edge flows through the same augmenting paths and level
// graphs, and the stopping BFS may only scan fewer edges. The networks
// are those on which package flow's TestBFSStopMatchesParentBFS holds
// flow.RatGraph to the same reference.

func parentMaxFlow(g *Graph, s, t int) float64 {
	g.build()
	tol := g.Tolerance()
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
		for head := 0; head < len(queue); head++ {
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
				d := dfs(e.to, math.Min(f, e.cap))
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

// bfsStopTally sums the edges scanned by the stopping BFS and by the
// parent BFS over a suite of networks.
type bfsStopTally struct{ got, parent int64 }

// checkTwins solves g with MaxFlow and its twin p (built by the same
// calls) with parentMaxFlow, then compares the two bit for bit.
func (tl *bfsStopTally) checkTwins(t *testing.T, label string, g, p *Graph, s, sink int) {
	t.Helper()
	before, pbefore := g.Ops(), p.Ops()
	v, pv := g.MaxFlow(s, sink), parentMaxFlow(p, s, sink)
	if math.Float64bits(v) != math.Float64bits(pv) {
		t.Fatalf("%s: flow value %v, parent BFS %v", label, v, pv)
	}
	for i := range g.edges {
		if math.Float64bits(g.edges[i].cap) != math.Float64bits(p.edges[i].cap) {
			t.Fatalf("%s: edge %d residual %v, parent BFS %v", label, i, g.edges[i].cap, p.edges[i].cap)
		}
	}
	got, parent := g.Ops().Sub(before), p.Ops().Sub(pbefore)
	if got.AugPaths != parent.AugPaths || got.BFSPasses != parent.BFSPasses {
		t.Fatalf("%s: aug paths/BFS passes %d/%d, parent BFS %d/%d",
			label, got.AugPaths, got.BFSPasses, parent.AugPaths, parent.BFSPasses)
	}
	if got.EdgesScanned > parent.EdgesScanned {
		t.Fatalf("%s: %d edges scanned, parent BFS %d", label, got.EdgesScanned, parent.EdgesScanned)
	}
	tl.got += got.EdgesScanned
	tl.parent += parent.EdgesScanned
}

// layeredNet is a random instance of the scheduling network shape used by
// the optimal solver: source -> jobs -> intervals -> sink, with
// capacities k/denom. Package flow's differential tests draw the same
// networks.
type layeredNet struct {
	nJobs, nIvs int
	srcCap      []int64 // per job, in units of 1/denom
	sinkCap     []int64 // per interval
	midCap      []int64 // per (job, interval) pair, 0 = inactive
	denom       int64
}

func (net *layeredNet) vertices() int { return 2 + net.nJobs + net.nIvs }

func (net *layeredNet) sink() int { return 1 + net.nJobs + net.nIvs }

func randomNet(rng *rand.Rand) *layeredNet {
	net := &layeredNet{
		nJobs: 1 + rng.Intn(8),
		nIvs:  1 + rng.Intn(6),
		denom: int64(1 + rng.Intn(7)),
	}
	for k := 0; k < net.nJobs; k++ {
		net.srcCap = append(net.srcCap, int64(rng.Intn(40)))
	}
	for j := 0; j < net.nIvs; j++ {
		net.sinkCap = append(net.sinkCap, int64(rng.Intn(60)))
	}
	for k := 0; k < net.nJobs; k++ {
		active := false
		for j := 0; j < net.nIvs; j++ {
			if rng.Intn(3) > 0 {
				net.midCap = append(net.midCap, int64(1+rng.Intn(30)))
				active = true
			} else {
				net.midCap = append(net.midCap, 0)
			}
		}
		if !active { // keep every job connected
			net.midCap[k*net.nIvs+rng.Intn(net.nIvs)] = int64(1 + rng.Intn(30))
		}
	}
	return net
}

func (net *layeredNet) buildFloat(g *Graph) {
	d := float64(net.denom)
	for k := 0; k < net.nJobs; k++ {
		g.AddEdge(0, 1+k, float64(net.srcCap[k])/d)
	}
	for k := 0; k < net.nJobs; k++ {
		for j := 0; j < net.nIvs; j++ {
			if c := net.midCap[k*net.nIvs+j]; c > 0 {
				g.AddEdge(1+k, 1+net.nJobs+j, float64(c)/d)
			}
		}
	}
	for j := 0; j < net.nIvs; j++ {
		g.AddEdge(1+net.nJobs+j, net.sink(), float64(net.sinkCap[j])/d)
	}
}

// mutated returns the net of the round after one rejection, as the
// round loop rebuilds it: job kill's source capacity zeroed, sink
// shrink halved (rounded down in units of 1/denom), and every source
// scaled by den/num. The result keeps integer capacities over the
// denominator denom*num.
func (net *layeredNet) mutated(kill, shrink int, num, den int64) *layeredNet {
	final := &layeredNet{
		nJobs:   net.nJobs,
		nIvs:    net.nIvs,
		srcCap:  append([]int64(nil), net.srcCap...),
		sinkCap: append([]int64(nil), net.sinkCap...),
		midCap:  append([]int64(nil), net.midCap...),
		denom:   net.denom * num,
	}
	for k := range final.srcCap {
		final.srcCap[k] *= den
	}
	final.srcCap[kill] = 0
	// mid and sink caps keep the old denominator: scale numerators.
	for j := range final.sinkCap {
		final.sinkCap[j] *= num
	}
	final.sinkCap[shrink] = net.sinkCap[shrink] / 2 * num
	for i := range final.midCap {
		final.midCap[i] *= num
	}
	return final
}

// randomBipartite draws the random 4-layer network of package flow's
// buildRandomBipartite into add, with integer capacities.
func randomBipartite(rng *rand.Rand, nj, ni int, add func(u, v int, c float64)) (src, sink int) {
	src, sink = 0, 1+nj+ni
	for j := 0; j < nj; j++ {
		add(src, 1+j, float64(1+rng.Intn(20)))
		for i := 0; i < ni; i++ {
			if rng.Intn(2) == 0 {
				add(1+j, 1+nj+i, float64(1+rng.Intn(10)))
			}
		}
	}
	for i := 0; i < ni; i++ {
		add(1+nj+i, sink, float64(1+rng.Intn(30)))
	}
	return src, sink
}

// randomDigraph builds an arbitrary directed network (not layered: back
// edges, skips and parallel arcs) with integer capacities.
func randomDigraph(rng *rand.Rand) (g *Graph, n int) {
	n = 3 + rng.Intn(10)
	g = NewGraph(n)
	for i := 3 * n; i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		g.AddEdge(u, v, float64(rng.Intn(12)))
	}
	return g, n
}

func TestBFSStopMatchesParentBFS(t *testing.T) {
	var tl bfsStopTally
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := randomNet(rng)
		s, sink := 0, net.sink()
		kill := rng.Intn(net.nJobs)
		shrink := rng.Intn(net.nIvs)
		den, num := int64(1+rng.Intn(3)), int64(1+rng.Intn(3))
		label := func(step string) string { return "net seed " + strconv.FormatInt(seed, 10) + " " + step }

		// A solve, then a solve of the net rebuilt after the mutation
		// sequence of one rejected round, on twin graphs.
		g, p := NewGraph(net.vertices()), NewGraph(net.vertices())
		net.buildFloat(g)
		net.buildFloat(p)
		tl.checkTwins(t, label("first"), g, p, s, sink)
		final := net.mutated(kill, shrink, num, den)
		g, p = NewGraph(final.vertices()), NewGraph(final.vertices())
		final.buildFloat(g)
		final.buildFloat(p)
		tl.checkTwins(t, label("rebuilt"), g, p, s, sink)

		// Bipartite networks.
		nj, ni := 1+rng.Intn(8), 1+rng.Intn(8)
		bseed := rng.Int63()
		g, p = NewGraph(2+nj+ni), NewGraph(2+nj+ni)
		bs, bt := randomBipartite(rand.New(rand.NewSource(bseed)), nj, ni, func(u, v int, c float64) {
			g.AddEdge(u, v, c)
			p.AddEdge(u, v, c)
		})
		tl.checkTwins(t, label("bipartite"), g, p, bs, bt)

		// Arbitrary digraphs, where t's level is shared with other vertices.
		dseed := rng.Int63()
		dg, dn := randomDigraph(rand.New(rand.NewSource(dseed)))
		pdg, _ := randomDigraph(rand.New(rand.NewSource(dseed)))
		tl.checkTwins(t, label("digraph"), dg, pdg, 0, dn-1)
	}
	if tl.got >= tl.parent {
		t.Errorf("stopping BFS scanned %d edges over the suite, parent BFS %d: want fewer", tl.got, tl.parent)
	}
	t.Logf("edges scanned: %d, parent BFS %d (%.1f%%)", tl.got, tl.parent, 100*float64(tl.got)/float64(tl.parent))
}
