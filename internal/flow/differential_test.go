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
		if !active { // keep every job connected so drains always terminate
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

// checkDifferential asserts that Dinic, push-relabel and the exact
// rational solver agree on a random net, and that the incremental
// warm-start path (remove a job, shrink a sink, rescale sources,
// re-augment) matches a cold solve built at the final capacities.
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

	// Warm float graph: solve, mutate incrementally, re-augment.
	wg := NewGraph(net.vertices())
	fsrc, fsink := net.buildFloat(wg)
	wg.MaxFlow(s, sink)
	wg.RemoveJobEdge(fsrc[kill])
	wg.SetCapacity(fsink[shrink], float64(net.sinkCap[shrink]/2)/float64(net.denom))
	wg.ScaleSourceCaps(float64(factorDen) / float64(factorNum))
	wg.MaxFlow(s, sink)
	warmVal := 0.0
	for k, id := range fsrc {
		if k != kill {
			warmVal += wg.Flow(id)
		}
	}
	if err := wg.CheckConservation(s, sink); err != nil {
		t.Fatalf("warm conservation: %v", err)
	}

	// Warm exact graph with the same mutation sequence.
	wr := NewRatGraph(net.vertices())
	rsrc, rsink := net.buildRat(wr)
	wr.MaxFlow(s, sink)
	wr.RemoveJobEdge(rsrc[kill])
	c := new(big.Rat).SetFrac64(net.sinkCap[shrink]/2, net.denom)
	wr.SetCapacity(rsink[shrink], c)
	wr.ScaleSourceCaps(new(big.Rat).SetFrac64(factorDen, factorNum))
	wr.MaxFlow(s, sink)
	warmRat := new(big.Rat)
	for k, id := range rsrc {
		if k != kill {
			warmRat.Add(warmRat, wr.Flow(id))
		}
	}

	// Cold graphs built directly at the final capacities.
	final := &layeredNet{
		nJobs:   net.nJobs,
		nIvs:    net.nIvs,
		srcCap:  append([]int64(nil), net.srcCap...),
		sinkCap: append([]int64(nil), net.sinkCap...),
		midCap:  net.midCap,
		denom:   net.denom * factorNum,
	}
	for k := range final.srcCap {
		final.srcCap[k] *= factorDen
	}
	final.srcCap[kill] = 0
	final.sinkCap[shrink] = net.sinkCap[shrink] / 2 * factorNum
	// mid and sink caps keep the old denominator: scale numerators.
	for j := range final.sinkCap {
		if j != shrink {
			final.sinkCap[j] = net.sinkCap[j] * factorNum
		}
	}
	final.midCap = append([]int64(nil), net.midCap...)
	for i := range final.midCap {
		final.midCap[i] *= factorNum
	}

	cr := NewRatGraph(final.vertices())
	csrc, _ := final.buildRat(cr)
	cr.MaxFlow(s, sink)
	coldRat := new(big.Rat)
	for k, id := range csrc {
		if k != kill {
			coldRat.Add(coldRat, cr.Flow(id))
		}
	}
	if warmRat.Cmp(coldRat) != 0 {
		t.Fatalf("exact warm %v != cold %v (net %+v kill=%d shrink=%d)",
			warmRat, coldRat, net, kill, shrink)
	}
	cv, _ := coldRat.Float64()
	if !Close(warmVal, cv, SolveTolerance) {
		t.Fatalf("float warm %v vs exact cold %v (net %+v)", warmVal, cv, net)
	}

	// Canonical re-solve: clearing the warm flow and re-augmenting from
	// zero must reproduce the cold per-edge flows exactly — the removed
	// job's zero-capacity edges are invisible to the search, so the two
	// graphs explore identical residual networks.
	wr.ResetFlow()
	wr.MaxFlow(s, sink)
	for k, id := range rsrc {
		if k == kill {
			continue
		}
		if wr.Flow(id).Cmp(cr.Flow(csrc[k])) != 0 {
			t.Fatalf("canonical re-solve: source edge %d flow %v != cold %v",
				k, wr.Flow(id), cr.Flow(csrc[k]))
		}
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
	g.lastS, g.lastT, g.haveST = s, t, true
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
		factor := float64(1+rng.Intn(3)) / float64(1+rng.Intn(3))

		// The cold solve, then the warm mutation sequence of
		// checkDifferential and a from-zero re-solve, on twin graphs.
		g, p := NewGraph(net.vertices()), NewGraph(net.vertices())
		src, snk := net.buildFloat(g)
		net.buildFloat(p)
		label := func(step string) string { return "net seed " + strconv.FormatInt(seed, 10) + " " + step }
		tl.checkFloatTwins(t, label("cold"), g, p, s, sink)
		for _, h := range []*Graph{g, p} {
			h.RemoveJobEdge(src[kill])
			h.SetCapacity(snk[shrink], float64(net.sinkCap[shrink]/2)/float64(net.denom))
			h.ScaleSourceCaps(factor)
		}
		tl.checkFloatTwins(t, label("warm"), g, p, s, sink)
		g.ResetFlow()
		p.ResetFlow()
		tl.checkFloatTwins(t, label("re-solve"), g, p, s, sink)

		r, rp := NewRatGraph(net.vertices()), NewRatGraph(net.vertices())
		rsrc, rsnk := net.buildRat(r)
		net.buildRat(rp)
		tl.checkRatTwins(t, label("exact cold"), r, rp, s, sink)
		half := new(big.Rat).SetFrac64(net.sinkCap[shrink]/2, net.denom)
		ratio := new(big.Rat).SetFloat64(factor)
		for _, h := range []*RatGraph{r, rp} {
			h.RemoveJobEdge(rsrc[kill])
			h.SetCapacity(rsnk[shrink], half)
			h.ScaleSourceCaps(ratio)
		}
		tl.checkRatTwins(t, label("exact warm"), r, rp, s, sink)

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

// Dinic's first level phase runs as one direct pass on three-layer
// networks from zero flow (layered.go). dinicMaxFlow keeps the plain
// Dinic loop that maxFlow runs on every other graph, as a test-local
// reference: on a three-layer network the pass must leave bit-equal
// per-edge residuals and return value, equal AugPaths and BFSPasses,
// and at most as many scanned edges; on any other shape, or from a
// nonzero flow, maxFlow must be plain Dinic, EdgesScanned included.
func dinicMaxFlow(g *Graph, s, t int, target float64) float64 {
	g.build()
	g.ensureScratch(g.nv)
	g.lastS, g.lastT, g.haveST = s, t, true
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
	for total < target && bfs() {
		copy(iter[:n], g.adjOff[:n])
		for total < target {
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

// netEdge is one AddEdge call of a generated network.
type netEdge struct {
	from, to int
	cap      float64
}

// layerShape is a generated network: its edges in insertion order, the
// source and sink, and whether it is three-layered for them.
type layerShape struct {
	n       int
	s, t    int
	edges   []netEdge
	layered bool
	label   string
}

// layerCap draws a capacity from a pool rich in zeros, values below the
// default tolerance and ties, so saturation tests, dead vertices and
// equal bottlenecks all occur.
func layerCap(rng *rand.Rand) float64 {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return float64(1+rng.Intn(9)) * 1e-13 // at or below the tolerance
	case 2, 3:
		return float64(1 + rng.Intn(3)) // ties
	case 4:
		return float64(1+rng.Intn(7)) / float64(1+rng.Intn(7))
	default:
		return rng.Float64() * 10
	}
}

// randomLayered generates a three-layer network on shuffled vertex
// numbers: s -> L1 -> L2 -> t, parallel L1 -> L2 edges, bystander
// vertices with edges into every layer and into s, and the edges
// inserted in a shuffled order so adjacency lists interleave forward
// and reverse entries.
func randomLayered(rng *rand.Rand) *layerShape {
	n1, n2, nx := rng.Intn(8), 1+rng.Intn(6), rng.Intn(3)
	n := 2 + n1 + n2 + nx
	perm := rng.Perm(n)
	s, t := perm[0], perm[1]
	l1, l2, other := perm[2:2+n1], perm[2+n1:2+n1+n2], perm[2+n1+n2:]
	var es []netEdge
	for _, v := range l1 {
		es = append(es, netEdge{s, v, layerCap(rng)})
		for _, u := range l2 {
			for k := rng.Intn(3); k > 0; k-- { // 0, 1 or 2 parallel edges
				es = append(es, netEdge{v, u, layerCap(rng)})
			}
		}
	}
	for _, u := range l2 {
		es = append(es, netEdge{u, t, layerCap(rng)})
	}
	for _, x := range other {
		for _, y := range []int{s, t, pick(rng, l1, x), pick(rng, l2, x)} {
			if y != x && rng.Intn(2) == 0 {
				es = append(es, netEdge{x, y, layerCap(rng)})
			}
		}
	}
	if rng.Intn(4) == 0 {
		es = append(es, netEdge{t, s, layerCap(rng)})
	}
	rng.Shuffle(len(es), func(i, j int) { es[i], es[j] = es[j], es[i] })
	return &layerShape{n: n, s: s, t: t, edges: es, layered: true, label: "layered"}
}

// pick returns a random element of vs, or def when vs is empty.
func pick(rng *rand.Rand, vs []int, def int) int {
	if len(vs) == 0 {
		return def
	}
	return vs[rng.Intn(len(vs))]
}

// breakLayers turns a three-layer network into a near miss that must
// take the plain path: one extra edge breaks exactly one condition, or
// t loses every in-edge so it is unreachable.
func breakLayers(rng *rand.Rand, sh *layerShape) *layerShape {
	out := &layerShape{n: sh.n, s: sh.s, t: sh.t, edges: append([]netEdge(nil), sh.edges...)}
	var l1, l2, intoT []int
	inL1 := map[int]bool{}
	for _, e := range sh.edges {
		switch {
		case e.from == sh.s:
			l1 = append(l1, e.to)
			inL1[e.to] = true
		case e.to == sh.t && e.from != sh.t:
			intoT = append(intoT, e.from)
		}
	}
	for _, e := range sh.edges {
		if inL1[e.from] {
			l2 = append(l2, e.to)
		}
	}
	c := 1 + float64(rng.Intn(3))
	kinds := []string{"s->t edge", "t unreachable"}
	if len(l1) > 0 {
		kinds = append(kinds, "two s-edges into one vertex", "vertex in both layers")
	}
	if len(l1) > 0 && len(l2) > 0 {
		kinds = append(kinds, "L2 vertex with two out-edges")
	}
	out.label = kinds[rng.Intn(len(kinds))]
	switch out.label {
	case "s->t edge":
		out.edges = append(out.edges, netEdge{sh.s, sh.t, c})
	case "two s-edges into one vertex":
		out.edges = append(out.edges, netEdge{sh.s, pick(rng, l1, 0), c})
	case "vertex in both layers":
		// An L1 -> L1 edge makes its head an L2 vertex too. With a single
		// L1 vertex, an edge back into s does the same for s.
		a, b := pick(rng, l1, 0), pick(rng, l1, 0)
		if a == b {
			b = sh.s
		}
		out.edges = append(out.edges, netEdge{a, b, c})
	case "L2 vertex with two out-edges":
		u := pick(rng, l2, 0)
		to := sh.t
		if rng.Intn(2) == 0 {
			to = pick(rng, l1, 0)
		}
		out.edges = append(out.edges, netEdge{u, to, c})
	case "t unreachable":
		kept := out.edges[:0]
		for _, e := range out.edges {
			if e.to != sh.t {
				kept = append(kept, e)
			}
		}
		// A fresh L1 vertex into an L2 vertex keeps L2 nonempty, so the
		// layering fails on L2's missing t-edge, not vacuously.
		x := out.n
		out.n++
		out.edges = append(kept, netEdge{sh.s, x, c}, netEdge{x, intoT[rng.Intn(len(intoT))], c})
	}
	// Insert the extra edge at a random position, not always last.
	if k := len(out.edges) - 1; k > 0 && out.label != "t unreachable" {
		j := rng.Intn(k + 1)
		out.edges[j], out.edges[k] = out.edges[k], out.edges[j]
	}
	return out
}

func (sh *layerShape) build() *Graph {
	g := NewGraph(sh.n)
	for _, e := range sh.edges {
		g.AddEdge(e.from, e.to, e.cap)
	}
	return g
}

// layerTally sums scanned edges over a suite, and counts the solves the
// pass actually carried.
type layerTally struct{ got, parent, passes int64 }

// checkTwin solves g with maxFlow and its twin p with dinicMaxFlow to the
// same target and compares the two. plain demands identical ops, as on
// a graph the pass must not touch.
func (tl *layerTally) checkTwin(t *testing.T, label string, g, p *Graph, s, sink int, target float64, plain bool) {
	t.Helper()
	usePass := g.zeroFlow && target > 0 && len(g.edges) > 0
	before, pbefore := g.Ops(), p.Ops()
	v, pv := g.MaxFlowAtLeast(s, sink, target), dinicMaxFlow(p, s, sink, target)
	if math.Float64bits(v) != math.Float64bits(pv) {
		t.Fatalf("%s: flow value %v, plain Dinic %v", label, v, pv)
	}
	for i := range g.edges {
		if math.Float64bits(g.edges[i].cap) != math.Float64bits(p.edges[i].cap) {
			t.Fatalf("%s: edge %d residual %v, plain Dinic %v", label, i, g.edges[i].cap, p.edges[i].cap)
		}
	}
	got, parent := g.Ops().Sub(before), p.Ops().Sub(pbefore)
	if got.AugPaths != parent.AugPaths || got.BFSPasses != parent.BFSPasses {
		t.Fatalf("%s: aug paths/BFS passes %d/%d, plain Dinic %d/%d",
			label, got.AugPaths, got.BFSPasses, parent.AugPaths, parent.BFSPasses)
	}
	if plain && got != parent {
		t.Fatalf("%s: ops %+v, want plain Dinic's %+v", label, got, parent)
	}
	if got.EdgesScanned > parent.EdgesScanned {
		t.Fatalf("%s: %d edges scanned, plain Dinic %d", label, got.EdgesScanned, parent.EdgesScanned)
	}
	if !plain && usePass && g.layered(s, sink) {
		tl.passes++
	}
	tl.got += got.EdgesScanned
	tl.parent += parent.EdgesScanned
}

// checkLayeredFirstPhase runs one generated network, and one near miss
// of it, through every entry the solver uses: MaxFlow and MaxFlowAtLeast
// from zero, a warm continuation, and a from-zero re-solve after
// ResetFlow and a capacity update.
func checkLayeredFirstPhase(t *testing.T, rng *rand.Rand, tl *layerTally, seed string) {
	t.Helper()
	base := randomLayered(rng)
	for _, sh := range []*layerShape{base, breakLayers(rng, base)} {
		g, p := sh.build(), sh.build()
		g.build()
		if got := g.layered(sh.s, sh.t); got != sh.layered {
			t.Fatalf("seed %s %s: layered = %v, want %v", seed, sh.label, got, sh.layered)
		}
		var srcCap float64
		for _, e := range sh.edges {
			if e.from == sh.s {
				srcCap += e.cap
			}
		}
		target := math.Inf(1)
		switch rng.Intn(4) {
		case 0:
			target = srcCap * rng.Float64()
		case 1:
			target = float64(rng.Intn(3)) // 0 included: no solve at all
		}
		label := func(step string) string { return "seed " + seed + " " + sh.label + " " + step }
		tl.checkTwin(t, label("from zero"), g, p, sh.s, sh.t, target, !sh.layered)
		// A nonzero flow: the continuation is plain Dinic on both.
		tl.checkTwin(t, label("continued"), g, p, sh.s, sh.t, math.Inf(1), !sh.layered || g.Ops().AugPaths > 0)
		// Reset in place, lower one capacity, and solve from zero again.
		g.ResetFlow()
		p.ResetFlow()
		if len(sh.edges) > 0 {
			id := EdgeID(2 * rng.Intn(len(sh.edges)))
			c := g.Capacity(id) * float64(rng.Intn(3)) / 2
			g.SetCapacity(id, c)
			p.SetCapacity(id, c)
		}
		if !g.zeroFlow {
			t.Fatalf("seed %s %s: no zero flow after ResetFlow and SetCapacity", seed, sh.label)
		}
		tl.checkTwin(t, label("re-solved"), g, p, sh.s, sh.t, math.Inf(1), !sh.layered)
		// The layering check is cached per (s, t) and CSR build: another
		// sink, or an edge added after a solve, must not reuse it.
		other := rng.Intn(sh.n)
		if other != sh.s && other != sh.t {
			fresh := sh.build()
			fresh.build()
			g.ResetFlow()
			p.ResetFlow()
			tl.checkTwin(t, label("other sink"), g, p, sh.s, other, math.Inf(1), !fresh.layered(sh.s, other))
		}
		g.AddEdge(sh.s, sh.t, 1)
		p.AddEdge(sh.s, sh.t, 1)
		g.ResetFlow()
		p.ResetFlow()
		tl.checkTwin(t, label("grown"), g, p, sh.s, sh.t, math.Inf(1), true)
	}
}

func TestLayeredFirstPhaseMatchesDinic(t *testing.T) {
	var tl layerTally
	for seed := int64(1); seed <= 20000; seed++ {
		if testing.Short() && seed > 2000 {
			break
		}
		checkLayeredFirstPhase(t, rand.New(rand.NewSource(seed)), &tl, strconv.FormatInt(seed, 10))
	}
	if tl.passes == 0 || tl.got >= tl.parent {
		t.Errorf("pass ran %d times, scanning %d edges against plain Dinic's %d: want it used and cheaper",
			tl.passes, tl.got, tl.parent)
	}
	t.Logf("pass carried %d solves; edges scanned %d, plain Dinic %d (%.1f%%)",
		tl.passes, tl.got, tl.parent, 100*float64(tl.got)/float64(tl.parent))
}

func FuzzLayeredFirstPhase(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed*2654435761)
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [8]byte
		copy(b[:], data)
		seed := int64(binary.LittleEndian.Uint64(b[:]))
		var tl layerTally
		checkLayeredFirstPhase(t, rand.New(rand.NewSource(seed)), &tl, strconv.FormatInt(seed, 10))
	})
}
