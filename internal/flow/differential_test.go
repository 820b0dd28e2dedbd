package flow

import (
	"encoding/binary"
	"math"
	"math/big"
	"math/rand"
	"strconv"
	"testing"
)

// layeredNet is a random instance of the scheduling network shape used by
// the optimal solver: source -> jobs -> intervals -> sink. Capacities are
// rationals (k/denom) so the float and exact graphs are built from the
// same numbers.
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

func (net *layeredNet) buildFloat(g *Graph) (src, sink []EdgeID) {
	d := float64(net.denom)
	for k := 0; k < net.nJobs; k++ {
		src = append(src, g.AddEdge(0, 1+k, float64(net.srcCap[k])/d))
	}
	for k := 0; k < net.nJobs; k++ {
		for j := 0; j < net.nIvs; j++ {
			if c := net.midCap[k*net.nIvs+j]; c > 0 {
				g.AddEdge(1+k, 1+net.nJobs+j, float64(c)/d)
			}
		}
	}
	for j := 0; j < net.nIvs; j++ {
		sink = append(sink, g.AddEdge(1+net.nJobs+j, net.sink(), float64(net.sinkCap[j])/d))
	}
	return src, sink
}

func (net *layeredNet) buildRat(g *RatGraph) (src, sink []EdgeID) {
	c := new(big.Rat)
	for k := 0; k < net.nJobs; k++ {
		c.SetFrac64(net.srcCap[k], net.denom)
		src = append(src, g.AddEdge(0, 1+k, c))
	}
	for k := 0; k < net.nJobs; k++ {
		for j := 0; j < net.nIvs; j++ {
			if mc := net.midCap[k*net.nIvs+j]; mc > 0 {
				c.SetFrac64(mc, net.denom)
				g.AddEdge(1+k, 1+net.nJobs+j, c)
			}
		}
	}
	for j := 0; j < net.nIvs; j++ {
		c.SetFrac64(net.sinkCap[j], net.denom)
		sink = append(sink, g.AddEdge(1+net.nJobs+j, net.sink(), c))
	}
	return src, sink
}

func (net *layeredNet) buildPR(g *PRGraph) {
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

// checkDifferential asserts that Dinic, push-relabel and the exact
// rational solver agree on a random net, and that Dinic and the exact
// solver agree again on the net rebuilt after the mutation sequence of
// one rejected round (remove a job, shrink a sink, rescale sources).
func checkDifferential(t *testing.T, rng *rand.Rand) {
	t.Helper()
	net := randomNet(rng)
	s, sink := 0, net.sink()

	dg := NewGraph(net.vertices())
	net.buildFloat(dg)
	pg := NewPRGraph(net.vertices())
	net.buildPR(pg)
	rg := NewRatGraph(net.vertices())
	net.buildRat(rg)

	fv := dg.MaxFlow(s, sink)
	pv := pg.MaxFlow(s, sink)
	rv, _ := rg.MaxFlow(s, sink).Float64()

	if !Close(fv, rv, SolveTolerance) {
		t.Fatalf("dinic %v vs exact %v (net %+v)", fv, rv, net)
	}
	if !Close(pv, rv, SolveTolerance) {
		t.Fatalf("push-relabel %v vs exact %v (net %+v)", pv, rv, net)
	}
	if err := dg.CheckConservation(s, sink); err != nil {
		t.Fatalf("dinic conservation: %v", err)
	}

	// The mutation sequence the optimal solver applies per rejection:
	// remove one job, shrink one sink capacity, rescale the sources.
	kill := rng.Intn(net.nJobs)
	shrink := rng.Intn(net.nIvs)
	factorNum := int64(1 + rng.Intn(3)) // sources scale by factorDen/factorNum
	factorDen := int64(1 + rng.Intn(3))

	// Graphs built directly at the final capacities.
	final := net.mutated(kill, shrink, factorNum, factorDen)
	cr := NewRatGraph(final.vertices())
	csrc, _ := final.buildRat(cr)
	cr.MaxFlow(s, sink)
	exactVal := new(big.Rat)
	for k, id := range csrc {
		if k != kill {
			exactVal.Add(exactVal, cr.Flow(id))
		}
	}
	fg := NewGraph(final.vertices())
	fsrc, _ := final.buildFloat(fg)
	fg.MaxFlow(s, sink)
	floatVal := 0.0
	for k, id := range fsrc {
		if k != kill {
			floatVal += fg.Flow(id)
		}
	}
	if err := fg.CheckConservation(s, sink); err != nil {
		t.Fatalf("rebuilt conservation: %v", err)
	}
	ev, _ := exactVal.Float64()
	if !Close(floatVal, ev, SolveTolerance) {
		t.Fatalf("float rebuilt %v vs exact rebuilt %v (net %+v)", floatVal, ev, net)
	}
}

func TestDifferentialSolvers(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkDifferential(t, rng)
	}
}

func FuzzDifferentialSolvers(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed*2654435761)
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [8]byte
		copy(b[:], data)
		rng := rand.New(rand.NewSource(int64(binary.LittleEndian.Uint64(b[:]))))
		checkDifferential(t, rng)
	})
}

// The Dinic BFS stops as soon as it labels the sink. parentMaxFlow and
// parentRatMaxFlow keep the earlier BFS, which expanded every reachable
// vertex, as a test-local reference: on every network below the two must
// route bit-equal per-edge flows through the same augmenting paths and
// level graphs, and the stopping BFS may only scan fewer edges.

func parentMaxFlow(g *Graph, s, t int) float64 {
	g.build()
	g.ensureScratch(g.nv)
	tol := g.tolerance()
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
	g.ops.Add(DinicOps{BFSPasses: bfsPasses, AugPaths: augPaths, EdgesScanned: edgesScanned})
	return total
}

func parentRatMaxFlow(g *RatGraph, s, t int) *big.Rat {
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
		for head := 0; head < len(queue); head++ {
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

// bfsStopTally sums the edges scanned by the stopping BFS and by the
// parent BFS over a suite of networks.
type bfsStopTally struct{ got, parent int64 }

// checkFloatTwins solves g with MaxFlow and its twin p (built by the same
// calls) with parentMaxFlow, then compares the two bit for bit.
func (tl *bfsStopTally) checkFloatTwins(t *testing.T, label string, g, p *Graph, s, sink int) {
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
	tl.compareOps(t, label, g.Ops().Sub(before), p.Ops().Sub(pbefore))
}

// checkRatTwins is checkFloatTwins for the exact solver.
func (tl *bfsStopTally) checkRatTwins(t *testing.T, label string, g, p *RatGraph, s, sink int) {
	t.Helper()
	before, pbefore := g.Ops(), p.Ops()
	v, pv := g.MaxFlow(s, sink), parentRatMaxFlow(p, s, sink)
	if v.Cmp(pv) != 0 {
		t.Fatalf("%s: exact flow value %v, parent BFS %v", label, v, pv)
	}
	for i := range g.edges {
		if g.edges[i].cap.Cmp(p.edges[i].cap) != 0 {
			t.Fatalf("%s: exact edge %d residual %v, parent BFS %v", label, i, g.edges[i].cap, p.edges[i].cap)
		}
	}
	tl.compareOps(t, label, g.Ops().Sub(before), p.Ops().Sub(pbefore))
}

func (tl *bfsStopTally) compareOps(t *testing.T, label string, got, parent DinicOps) {
	t.Helper()
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

// randomDigraph builds the same arbitrary directed network (not layered:
// back edges, skips and parallel arcs) into a float and an exact graph,
// with integer capacities.
func randomDigraph(rng *rand.Rand) (g *Graph, rg *RatGraph, n int) {
	n = 3 + rng.Intn(10)
	g, rg = NewGraph(n), NewRatGraph(n)
	for i := 3 * n; i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		c := int64(rng.Intn(12))
		g.AddEdge(u, v, float64(c))
		rg.AddEdge(u, v, new(big.Rat).SetInt64(c))
	}
	return g, rg, n
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

		// A solve, then a solve of the net rebuilt after the mutation
		// sequence of checkDifferential, on twin graphs.
		g, p := NewGraph(net.vertices()), NewGraph(net.vertices())
		net.buildFloat(g)
		net.buildFloat(p)
		label := func(step string) string { return "net seed " + strconv.FormatInt(seed, 10) + " " + step }
		tl.checkFloatTwins(t, label("first"), g, p, s, sink)
		final := net.mutated(kill, shrink, num, den)
		g, p = NewGraph(final.vertices()), NewGraph(final.vertices())
		final.buildFloat(g)
		final.buildFloat(p)
		tl.checkFloatTwins(t, label("rebuilt"), g, p, s, sink)

		r, rp := NewRatGraph(net.vertices()), NewRatGraph(net.vertices())
		net.buildRat(r)
		net.buildRat(rp)
		tl.checkRatTwins(t, label("exact first"), r, rp, s, sink)
		r, rp = NewRatGraph(final.vertices()), NewRatGraph(final.vertices())
		final.buildRat(r)
		final.buildRat(rp)
		tl.checkRatTwins(t, label("exact rebuilt"), r, rp, s, sink)

		// The bipartite networks of flow_test.go.
		nj, ni := 1+rng.Intn(8), 1+rng.Intn(8)
		bseed := rng.Int63()
		fg, rg, _, bs, bt := buildRandomBipartite(rand.New(rand.NewSource(bseed)), nj, ni)
		pfg, prg, _, _, _ := buildRandomBipartite(rand.New(rand.NewSource(bseed)), nj, ni)
		tl.checkFloatTwins(t, label("bipartite"), fg, pfg, bs, bt)
		tl.checkRatTwins(t, label("exact bipartite"), rg, prg, bs, bt)

		// Arbitrary digraphs, where t's level is shared with other vertices.
		dseed := rng.Int63()
		dg, drg, dn := randomDigraph(rand.New(rand.NewSource(dseed)))
		pdg, pdrg, _ := randomDigraph(rand.New(rand.NewSource(dseed)))
		tl.checkFloatTwins(t, label("digraph"), dg, pdg, 0, dn-1)
		tl.checkRatTwins(t, label("exact digraph"), drg, pdrg, 0, dn-1)
	}
	if tl.got >= tl.parent {
		t.Errorf("stopping BFS scanned %d edges over the suite, parent BFS %d: want fewer", tl.got, tl.parent)
	}
	t.Logf("edges scanned: %d, parent BFS %d (%.1f%%)", tl.got, tl.parent, 100*float64(tl.got)/float64(tl.parent))
}
