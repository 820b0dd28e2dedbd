package flow_test

import (
	"encoding/binary"
	"math/big"
	"math/rand"
	"strconv"
	"testing"

	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
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

func (net *layeredNet) buildFloat(g *flowref.Graph) (src, sink []flow.EdgeID) {
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

func (net *layeredNet) buildRat(g *flow.RatGraph) (src, sink []flow.EdgeID) {
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

	dg := flowref.NewGraph(net.vertices())
	net.buildFloat(dg)
	pg := flowref.NewGraph(net.vertices())
	net.buildFloat(pg)
	rg := flow.NewRatGraph(net.vertices())
	net.buildRat(rg)

	fv := dg.MaxFlow(s, sink)
	pv, _ := pg.PushRelabel(s, sink)
	rv, _ := rg.MaxFlow(s, sink).Float64()

	if !flowref.Close(fv, rv, flow.SolveTolerance) {
		t.Fatalf("dinic %v vs exact %v (net %+v)", fv, rv, net)
	}
	if !flowref.Close(pv, rv, flow.SolveTolerance) {
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
	cr := flow.NewRatGraph(final.vertices())
	csrc, _ := final.buildRat(cr)
	cr.MaxFlow(s, sink)
	exactVal := new(big.Rat)
	for k, id := range csrc {
		if k != kill {
			exactVal.Add(exactVal, cr.Flow(id))
		}
	}
	fg := flowref.NewGraph(final.vertices())
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
	if !flowref.Close(floatVal, ev, flow.SolveTolerance) {
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

// RatGraph's Dinic BFS stops as soon as it labels the sink.
// flow.ParentRatMaxFlow keeps the earlier BFS, which expanded every
// reachable vertex, as a test-local reference: on every network below
// the two must route equal per-edge flows through the same augmenting
// paths and level graphs, and the stopping BFS may only scan fewer
// edges. flowref's TestBFSStopMatchesParentBFS holds flowref.Graph to
// the same reference on the same networks.

// bfsStopTally sums the edges scanned by the stopping BFS and by the
// parent BFS over a suite of networks.
type bfsStopTally struct{ got, parent int64 }

// checkRatTwins solves g with MaxFlow and its twin p (built by the same
// calls) with the parent BFS, then compares the two edge by edge.
func (tl *bfsStopTally) checkRatTwins(t *testing.T, label string, g, p *flow.RatGraph, s, sink int) {
	t.Helper()
	before, pbefore := g.Ops(), p.Ops()
	v, pv := g.MaxFlow(s, sink), flow.ParentRatMaxFlow(p, s, sink)
	if v.Cmp(pv) != 0 {
		t.Fatalf("%s: exact flow value %v, parent BFS %v", label, v, pv)
	}
	for i := 0; ; i++ {
		c, ok := flow.RatResidual(g, i)
		if !ok {
			break
		}
		if pc, _ := flow.RatResidual(p, i); c.Cmp(pc) != 0 {
			t.Fatalf("%s: exact edge %d residual %v, parent BFS %v", label, i, c, pc)
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

// randomDigraph builds an arbitrary directed network (not layered: back
// edges, skips and parallel arcs) with integer capacities.
func randomDigraph(rng *rand.Rand) (rg *flow.RatGraph, n int) {
	n = 3 + rng.Intn(10)
	rg = flow.NewRatGraph(n)
	for i := 3 * n; i > 0; i-- {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		rg.AddEdge(u, v, new(big.Rat).SetInt64(int64(rng.Intn(12))))
	}
	return rg, n
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
		// sequence of checkDifferential, on twin graphs.
		r, rp := flow.NewRatGraph(net.vertices()), flow.NewRatGraph(net.vertices())
		net.buildRat(r)
		net.buildRat(rp)
		tl.checkRatTwins(t, label("exact first"), r, rp, s, sink)
		final := net.mutated(kill, shrink, num, den)
		r, rp = flow.NewRatGraph(final.vertices()), flow.NewRatGraph(final.vertices())
		final.buildRat(r)
		final.buildRat(rp)
		tl.checkRatTwins(t, label("exact rebuilt"), r, rp, s, sink)

		// The bipartite networks of flow_test.go.
		nj, ni := 1+rng.Intn(8), 1+rng.Intn(8)
		bseed := rng.Int63()
		_, rg, _, bs, bt := buildRandomBipartite(rand.New(rand.NewSource(bseed)), nj, ni)
		_, prg, _, _, _ := buildRandomBipartite(rand.New(rand.NewSource(bseed)), nj, ni)
		tl.checkRatTwins(t, label("exact bipartite"), rg, prg, bs, bt)

		// Arbitrary digraphs, where t's level is shared with other vertices.
		dseed := rng.Int63()
		drg, dn := randomDigraph(rand.New(rand.NewSource(dseed)))
		pdrg, _ := randomDigraph(rand.New(rand.NewSource(dseed)))
		tl.checkRatTwins(t, label("exact digraph"), drg, pdrg, 0, dn-1)
	}
	if tl.got >= tl.parent {
		t.Errorf("stopping BFS scanned %d edges over the suite, parent BFS %d: want fewer", tl.got, tl.parent)
	}
	t.Logf("edges scanned: %d, parent BFS %d (%.1f%%)", tl.got, tl.parent, 100*float64(tl.got)/float64(tl.parent))
}
