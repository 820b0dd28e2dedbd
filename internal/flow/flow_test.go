package flow_test

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
)

func TestSimplePath(t *testing.T) {
	g := flowref.NewGraph(3)
	a := g.AddEdge(0, 1, 5)
	b := g.AddEdge(1, 2, 3)
	if got := g.MaxFlow(0, 2); got != 3 {
		t.Fatalf("MaxFlow = %v, want 3", got)
	}
	if g.Flow(a) != 3 || g.Flow(b) != 3 {
		t.Errorf("edge flows = %v, %v", g.Flow(a), g.Flow(b))
	}
	if g.Saturated(a) {
		t.Error("edge a reported saturated")
	}
	if !g.Saturated(b) {
		t.Error("edge b not reported saturated")
	}
}

func TestClassicNetwork(t *testing.T) {
	// CLRS-style example with known max flow 23.
	g := flowref.NewGraph(6)
	g.AddEdge(0, 1, 16)
	g.AddEdge(0, 2, 13)
	g.AddEdge(1, 2, 10)
	g.AddEdge(2, 1, 4)
	g.AddEdge(1, 3, 12)
	g.AddEdge(3, 2, 9)
	g.AddEdge(2, 4, 14)
	g.AddEdge(4, 3, 7)
	g.AddEdge(3, 5, 20)
	g.AddEdge(4, 5, 4)
	if got := g.MaxFlow(0, 5); math.Abs(got-23) > 1e-9 {
		t.Fatalf("MaxFlow = %v, want 23", got)
	}
	if err := g.CheckConservation(0, 5); err != nil {
		t.Error(err)
	}
}

func TestDisconnected(t *testing.T) {
	g := flowref.NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 3, 10)
	if got := g.MaxFlow(0, 3); got != 0 {
		t.Errorf("MaxFlow = %v, want 0", got)
	}
}

func TestParallelEdges(t *testing.T) {
	g := flowref.NewGraph(2)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3)
	if got := g.MaxFlow(0, 1); math.Abs(got-5) > 1e-12 {
		t.Errorf("MaxFlow = %v, want 5", got)
	}
}

func TestZeroCapacityEdge(t *testing.T) {
	g := flowref.NewGraph(3)
	g.AddEdge(0, 1, 0)
	g.AddEdge(1, 2, 4)
	if got := g.MaxFlow(0, 2); got != 0 {
		t.Errorf("MaxFlow = %v, want 0", got)
	}
}

func TestFractionalCapacities(t *testing.T) {
	g := flowref.NewGraph(4)
	g.AddEdge(0, 1, 0.5)
	g.AddEdge(0, 2, 0.25)
	g.AddEdge(1, 3, 0.4)
	g.AddEdge(2, 3, 1)
	want := 0.4 + 0.25
	if got := g.MaxFlow(0, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("MaxFlow = %v, want %v", got, want)
	}
}

func TestOutFlow(t *testing.T) {
	g := flowref.NewGraph(3)
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 3)
	g.MaxFlow(0, 2)
	if got := g.OutFlow(0); math.Abs(got-3) > 1e-12 {
		t.Errorf("OutFlow(0) = %v", got)
	}
}

func TestPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewGraph(1)", func() { flowref.NewGraph(1) })
	mustPanic("self-loop", func() { flowref.NewGraph(3).AddEdge(1, 1, 1) })
	mustPanic("out of range", func() { flowref.NewGraph(3).AddEdge(0, 7, 1) })
	mustPanic("negative capacity", func() { flowref.NewGraph(3).AddEdge(0, 1, -1) })
	mustPanic("NaN capacity", func() { flowref.NewGraph(3).AddEdge(0, 1, math.NaN()) })
	mustPanic("s==t", func() { flowref.NewGraph(3).MaxFlow(1, 1) })
}

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func TestRatSimplePath(t *testing.T) {
	g := flow.NewRatGraph(3)
	a := g.AddEdge(0, 1, rat(5, 1))
	b := g.AddEdge(1, 2, rat(10, 3))
	got := g.MaxFlow(0, 2)
	if got.Cmp(rat(10, 3)) != 0 {
		t.Fatalf("MaxFlow = %v, want 10/3", got)
	}
	if g.Flow(a).Cmp(rat(10, 3)) != 0 {
		t.Errorf("Flow(a) = %v", g.Flow(a))
	}
	// b carries its full 10/3; a is 5/3 short of its 5.
	if g.Flow(b).Cmp(rat(10, 3)) != 0 {
		t.Errorf("Flow(b) = %v", g.Flow(b))
	}
}

func TestRatClassicNetwork(t *testing.T) {
	g := flow.NewRatGraph(6)
	add := func(u, v int, c int64) { g.AddEdge(u, v, rat(c, 1)) }
	add(0, 1, 16)
	add(0, 2, 13)
	add(1, 2, 10)
	add(2, 1, 4)
	add(1, 3, 12)
	add(3, 2, 9)
	add(2, 4, 14)
	add(4, 3, 7)
	add(3, 5, 20)
	add(4, 5, 4)
	if got := g.MaxFlow(0, 5); got.Cmp(rat(23, 1)) != 0 {
		t.Fatalf("MaxFlow = %v, want 23", got)
	}
}

func TestRatPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRatGraph(0)", func() { flow.NewRatGraph(0) })
	mustPanic("negative", func() { flow.NewRatGraph(2).AddEdge(0, 1, rat(-1, 2)) })
	mustPanic("self-loop", func() { flow.NewRatGraph(2).AddEdge(0, 0, rat(1, 2)) })
	mustPanic("s==t", func() { flow.NewRatGraph(2).MaxFlow(0, 0) })
}

// buildRandomBipartite builds the same random 4-layer network (the shape
// used by the scheduler) three times: a float graph for Dinic, an exact
// graph, and a float graph for push-relabel, with integer capacities so
// the results must agree exactly.
func buildRandomBipartite(rng *rand.Rand, nj, ni int) (dg *flowref.Graph, rg *flow.RatGraph, pg *flowref.Graph, src, sink int) {
	n := 2 + nj + ni
	dg, rg, pg = flowref.NewGraph(n), flow.NewRatGraph(n), flowref.NewGraph(n)
	src, sink = 0, n-1
	add := func(u, v int, c int64) {
		dg.AddEdge(u, v, float64(c))
		rg.AddEdge(u, v, rat(c, 1))
		pg.AddEdge(u, v, float64(c))
	}
	for j := 0; j < nj; j++ {
		add(src, 1+j, int64(1+rng.Intn(20)))
		for i := 0; i < ni; i++ {
			if rng.Intn(2) == 0 {
				add(1+j, 1+nj+i, int64(1+rng.Intn(10)))
			}
		}
	}
	for i := 0; i < ni; i++ {
		add(1+nj+i, sink, int64(1+rng.Intn(30)))
	}
	return dg, rg, pg, src, sink
}

// Property: float64 and exact solvers agree on random integer networks.
func TestFloatMatchesExactProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nj := 1 + rng.Intn(8)
		ni := 1 + rng.Intn(8)
		fg, rg, _, s, snk := buildRandomBipartite(rng, nj, ni)
		fv := fg.MaxFlow(s, snk)
		rv, _ := rg.MaxFlow(s, snk).Float64()
		return flowref.Close(fv, rv, flow.DiffTolerance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: max-flow never exceeds the source's outgoing capacity or the
// sink's incoming capacity, and conservation holds.
func TestFlowBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nj := 1 + rng.Intn(6)
		ni := 1 + rng.Intn(6)
		fg, _, _, s, snk := buildRandomBipartite(rng, nj, ni)
		val := fg.MaxFlow(s, snk)
		if val < 0 {
			return false
		}
		if err := fg.CheckConservation(s, snk); err != nil {
			return false
		}
		return flowref.Close(fg.OutFlow(s), val, flow.SolveTolerance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDinicFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < b.N; i++ {
		fg, _, _, s, snk := buildRandomBipartite(rng, 40, 80)
		fg.MaxFlow(s, snk)
	}
}

func BenchmarkDinicRational(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < b.N; i++ {
		_, rg, _, s, snk := buildRandomBipartite(rng, 20, 40)
		rg.MaxFlow(s, snk)
	}
}
