package flow_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
)

func TestPRSimplePath(t *testing.T) {
	g := flowref.NewGraph(3)
	a := g.AddEdge(0, 1, 5)
	b := g.AddEdge(1, 2, 3)
	if got, _ := g.PushRelabel(0, 2); math.Abs(got-3) > 1e-9 {
		t.Fatalf("PushRelabel = %v, want 3", got)
	}
	if math.Abs(g.Flow(a)-3) > 1e-9 || math.Abs(g.Flow(b)-3) > 1e-9 {
		t.Errorf("edge flows = %v, %v", g.Flow(a), g.Flow(b))
	}
	if !g.Saturated(b) || g.Saturated(a) {
		t.Error("saturation flags wrong")
	}
	if g.Capacity(a) != 5 {
		t.Errorf("Capacity = %v", g.Capacity(a))
	}
}

func TestPRClassicNetwork(t *testing.T) {
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
	if got, _ := g.PushRelabel(0, 5); math.Abs(got-23) > 1e-9 {
		t.Fatalf("PushRelabel = %v, want 23", got)
	}
}

func TestPRDisconnected(t *testing.T) {
	g := flowref.NewGraph(4)
	g.AddEdge(0, 1, 10)
	g.AddEdge(2, 3, 10)
	if got, _ := g.PushRelabel(0, 3); got != 0 {
		t.Errorf("PushRelabel = %v, want 0", got)
	}
}

func TestPRBackEdgeNetwork(t *testing.T) {
	// A network where the preflow must drain excess back to the source.
	g := flowref.NewGraph(4)
	g.AddEdge(0, 1, 100)
	g.AddEdge(1, 2, 1)
	g.AddEdge(1, 3, 2)
	g.AddEdge(2, 3, 5)
	if got, _ := g.PushRelabel(0, 3); math.Abs(got-3) > 1e-9 {
		t.Fatalf("PushRelabel = %v, want 3", got)
	}
}

func TestPRPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewGraph(1)", func() { flowref.NewGraph(1) })
	mustPanic("self-loop", func() { flowref.NewGraph(3).AddEdge(2, 2, 1) })
	mustPanic("negative", func() { flowref.NewGraph(3).AddEdge(0, 1, -3) })
	mustPanic("s==t", func() { flowref.NewGraph(3).PushRelabel(2, 2) })
}

// Property: push-relabel agrees with Dinic (and thus the exact solver)
// on random scheduler-shaped networks.
func TestPushRelabelMatchesDinicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nj := 1 + rng.Intn(10)
		ni := 1 + rng.Intn(10)
		fg, _, pg, s, snk := buildRandomBipartite(rng, nj, ni)
		dv := fg.MaxFlow(s, snk)
		pv, _ := pg.PushRelabel(s, snk)
		return flowref.Close(dv, pv, flow.DiffTolerance)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkPushRelabel(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < b.N; i++ {
		_, _, pg, s, snk := buildRandomBipartite(rng, 40, 80)
		pg.PushRelabel(s, snk)
	}
}
