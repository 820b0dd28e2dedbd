package flow_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
)

// phaseShape is a random phase network: job windows over a row of
// intervals, some intervals off, some jobs never set, and each
// interval's job list ascending or shuffled.
type phaseShape struct {
	nJobs, nIvs int
	set         []bool // per job: SetJob is called
	lo, hi      []int
	srcCap      []float64
	on          []bool // per interval: SetInterval is called
	edgeCap     []float64
	sinkCap     []float64
	lists       [][]int32
}

// phaseCap draws a capacity from a pool rich in zeros, values at or
// below the default tolerance and ties, so saturation tests, dead
// vertices and equal bottlenecks all occur, and now and then scales it
// up, so the largest live capacity, and with it the tolerance, moves
// when jobs leave.
func phaseCap(rng *rand.Rand) float64 {
	var c float64
	switch rng.Intn(8) {
	case 0:
		c = 0
	case 1:
		c = float64(1+rng.Intn(9)) * 1e-13 // at or below the tolerance
	case 2, 3:
		c = float64(1 + rng.Intn(3)) // ties
	case 4:
		c = float64(1+rng.Intn(7)) / float64(1+rng.Intn(7))
	default:
		c = rng.Float64() * 10
	}
	if rng.Intn(6) == 0 {
		c *= 1e3
	}
	return c
}

func randomPhase(rng *rand.Rand) *phaseShape {
	sh := &phaseShape{nJobs: 1 + rng.Intn(10), nIvs: 1 + rng.Intn(8)}
	for i := 0; i < sh.nJobs; i++ {
		lo := rng.Intn(sh.nIvs)
		hi := lo + rng.Intn(sh.nIvs-lo)
		if rng.Intn(12) == 0 {
			hi = lo - 1 // an empty window
		}
		sh.set = append(sh.set, rng.Intn(7) > 0)
		sh.lo, sh.hi = append(sh.lo, lo), append(sh.hi, hi)
		sh.srcCap = append(sh.srcCap, phaseCap(rng))
	}
	shuffled := rng.Intn(2) == 0
	for r := 0; r < sh.nIvs; r++ {
		sh.on = append(sh.on, rng.Intn(5) > 0)
		sh.edgeCap = append(sh.edgeCap, phaseCap(rng))
		sh.sinkCap = append(sh.sinkCap, phaseCap(rng))
		var list []int32
		for i := 0; i < sh.nJobs; i++ {
			if sh.lo[i] <= r && r <= sh.hi[i] {
				list = append(list, int32(i))
			}
		}
		if shuffled {
			rng.Shuffle(len(list), func(a, b int) { list[a], list[b] = list[b], list[a] })
		}
		sh.lists = append(sh.lists, list)
	}
	return sh
}

// phaseTwin is a phase network built both as a PhaseNet and as a
// flowref.Graph,
// the latter by the AddEdge sequence the scheduler's raw build uses:
// source edges in job order, then per interval its job edges in list
// order and its sink edge. Between rounds the PhaseNet's flow is reset
// and its source capacities re-set in place, as the minimum-cap search
// does; the Graph is rebuilt from the round's capacities.
type phaseTwin struct {
	sh   *phaseShape
	p    *flow.PhaseNet
	g    *flowref.Graph
	sink int
	node []int         // per job: Graph vertex, -1 when not set
	src  []flow.EdgeID // per job
	mid  map[[2]int]flow.EdgeID

	srcCap []float64 // the source capacities the PhaseNet holds now
}

func buildPhaseTwin(sh *phaseShape, p *flow.PhaseNet) *phaseTwin {
	tw := &phaseTwin{
		sh: sh, p: p,
		srcCap: append([]float64(nil), sh.srcCap...),
	}
	p.Reset(sh.nJobs, sh.nIvs)
	for i := 0; i < sh.nJobs; i++ {
		if sh.set[i] {
			p.SetJob(i, sh.lo[i], sh.hi[i], sh.srcCap[i])
		}
	}
	for r := 0; r < sh.nIvs; r++ {
		if sh.on[r] {
			p.SetInterval(r, sh.edgeCap[r], sh.sinkCap[r], sh.lists[r])
		}
	}
	tw.rebuild()
	return tw
}

// rebuild builds the Graph twin of the PhaseNet's current network.
func (tw *phaseTwin) rebuild() {
	sh := tw.sh
	v := 1
	tw.node = tw.node[:0]
	for i := 0; i < sh.nJobs; i++ {
		tw.node = append(tw.node, -1)
		if sh.set[i] {
			tw.node[i] = v
			v++
		}
	}
	ivNode := make([]int, sh.nIvs)
	for r := range ivNode {
		ivNode[r] = -1
		if sh.on[r] {
			ivNode[r] = v
			v++
		}
	}
	tw.sink = v
	tw.g = flowref.NewGraph(v + 1)
	tw.src = make([]flow.EdgeID, sh.nJobs)
	tw.mid = map[[2]int]flow.EdgeID{}
	for i, n := range tw.node {
		if n >= 0 {
			tw.src[i] = tw.g.AddEdge(0, n, tw.srcCap[i])
		}
	}
	for r := 0; r < sh.nIvs; r++ {
		if !sh.on[r] {
			continue
		}
		for _, i := range sh.lists[r] {
			if tw.node[i] >= 0 {
				tw.mid[[2]int{int(i), r}] = tw.g.AddEdge(tw.node[i], ivNode[r], sh.edgeCap[r])
			}
		}
		tw.g.AddEdge(ivNode[r], tw.sink, sh.sinkCap[r])
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// solve runs MaxFlow on both and asserts bit-equal values and per-edge
// flows, equal tolerances, AugPaths and BFSPasses, and equal
// co-reachable job sets.
func (tw *phaseTwin) solve(t *testing.T, label string, scanned *[2]int64) {
	t.Helper()
	sh, p, g := tw.sh, tw.p, tw.g
	before, gbefore := p.Ops(), g.Ops()
	v, gv := p.MaxFlow(), g.MaxFlow(0, tw.sink)
	if !sameBits(v, gv) {
		t.Fatalf("%s: flow value %v, Graph %v", label, v, gv)
	}
	if tol := flow.PhaseNetTol(p); !sameBits(tol, g.Tolerance()) {
		t.Fatalf("%s: tolerance %v, Graph %v", label, tol, g.Tolerance())
	}
	got, want := p.Ops().Sub(before), g.Ops().Sub(gbefore)
	if got.AugPaths != want.AugPaths || got.BFSPasses != want.BFSPasses {
		t.Fatalf("%s: aug paths/BFS passes %d/%d, Graph %d/%d",
			label, got.AugPaths, got.BFSPasses, want.AugPaths, want.BFSPasses)
	}
	scanned[0] += got.EdgesScanned
	scanned[1] += want.EdgesScanned
	for i := 0; i < sh.nJobs; i++ {
		if tw.node[i] < 0 || !flow.PhaseNetLive(p, i) {
			continue
		}
		if f, gf := p.SourceFlow(i), g.Flow(tw.src[i]); !sameBits(f, gf) {
			t.Fatalf("%s: job %d source flow %v, Graph %v", label, i, f, gf)
		}
		for r := sh.lo[i]; r <= sh.hi[i]; r++ {
			id, ok := tw.mid[[2]int{i, r}]
			if !ok {
				continue
			}
			if f, gf := p.EdgeFlow(i, r), g.Flow(id); !sameBits(f, gf) {
				t.Fatalf("%s: job %d interval %d flow %v, Graph %v", label, i, r, f, gf)
			}
		}
	}
	tw.checkCut(t, label)
}

// checkCut compares CoReachable's job marks with Graph.CoReachable.
func (tw *phaseTwin) checkCut(t *testing.T, label string) {
	t.Helper()
	mark := tw.p.CoReachable()
	gmark := tw.g.CoReachable(tw.sink)
	for i, v := range tw.node {
		want := v >= 0 && flow.PhaseNetLive(tw.p, i) && gmark[v]
		if mark[i] != want {
			t.Fatalf("%s: job %d co-reachable %v, Graph %v", label, i, mark[i], want)
		}
	}
}

// checkPhaseNet runs one random network through several in-place rounds:
// solve; reset the flow; re-set the sources; solve again. The Graph twin is rebuilt from scratch for every round,
// so each in-place round must match a from-zero solve of its network.
func checkPhaseNet(t *testing.T, rng *rand.Rand, p *flow.PhaseNet, seed string, scanned *[2]int64) {
	t.Helper()
	sh := randomPhase(rng)
	tw := buildPhaseTwin(sh, p)
	label := func(step string) string { return "seed " + seed + " " + step }
	if rng.Intn(4) == 0 {
		tw.checkCut(t, label("before any solve"))
	}
	tw.solve(t, label("round 0"), scanned)
	for round := 1; round <= 3; round++ {
		p.ResetFlow()
		scale := []float64{1, 0.5, 3, 1e-3}[rng.Intn(4)]
		for i := 0; i < sh.nJobs; i++ {
			if tw.node[i] >= 0 && flow.PhaseNetLive(p, i) {
				c := sh.srcCap[i] * scale
				p.SetSourceCap(i, c)
				tw.srcCap[i] = c
			}
		}
		tw.rebuild()
		if rng.Intn(3) == 0 {
			tw.checkCut(t, label("mutated "+strconv.Itoa(round)))
		}
		tw.solve(t, label("round "+strconv.Itoa(round)), scanned)
	}
	// A second MaxFlow on both, without ResetFlow, finds nothing more.
	tw.solve(t, label("re-run"), scanned)
}

func TestPhaseNetMatchesGraph(t *testing.T) {
	var p flow.PhaseNet // one arena across every network: Reset must forget all
	var scanned [2]int64
	for seed := int64(1); seed <= 20000; seed++ {
		if testing.Short() && seed > 2000 {
			break
		}
		checkPhaseNet(t, rand.New(rand.NewSource(seed)), &p, strconv.FormatInt(seed, 10), &scanned)
	}
	t.Logf("edges scanned %d, Graph %d (%.1f%%)", scanned[0], scanned[1], 100*float64(scanned[0])/float64(scanned[1]))
}

// TestPhaseNetMutatorsNeedZeroFlow: SetSourceCap re-sets a capacity
// without draining, so it refuses a network carrying flow.
func TestPhaseNetMutatorsNeedZeroFlow(t *testing.T) {
	var p flow.PhaseNet
	p.Reset(1, 1)
	p.SetJob(0, 0, 0, 1)
	p.SetInterval(0, 1, 1, []int32{0})
	if v := p.MaxFlow(); v != 1 {
		t.Fatalf("max flow %v, want 1", v)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("SetSourceCap on a nonzero flow did not panic")
			}
		}()
		p.SetSourceCap(0, 2)
	}()
	p.ResetFlow()
	p.SetSourceCap(0, 0.5)
	if v := p.MaxFlow(); v != 0.5 {
		t.Fatalf("max flow after ResetFlow and SetSourceCap %v, want 0.5", v)
	}
}

func FuzzPhaseNet(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], seed*2654435761)
		f.Add(b[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [8]byte
		copy(b[:], data)
		seed := int64(binary.LittleEndian.Uint64(b[:]))
		var p flow.PhaseNet
		var scanned [2]int64
		checkPhaseNet(t, rand.New(rand.NewSource(seed)), &p, strconv.FormatInt(seed, 10), &scanned)
	})
}
