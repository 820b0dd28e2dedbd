package flow

import (
	"math/big"
	"testing"
)

// TestPooledGraphCarriesNoStaleState: a graph released to the pool
// after a solve must come back as a fresh graph, without its tolerance
// override, its flow or its largest capacity.
func TestPooledGraphCarriesNoStaleState(t *testing.T) {
	g := AcquireGraph(3)
	g.AddEdge(0, 1, 1e6)
	g.AddEdge(1, 2, 1e6)
	g.SetTolerance(1e-3)
	if got := g.MaxFlow(0, 2); got != 1e6 {
		t.Fatalf("MaxFlow = %v, want 1e6", got)
	}
	ReleaseGraph(g)

	// The same arena comes back (single goroutine, put-then-get), but the
	// test must hold either way: whatever AcquireGraph returns behaves
	// like a brand-new graph. The tolerance must not leak: with the
	// default 1e-12 relative to the largest capacity 1, an edge 1e-6 short
	// of capacity is NOT saturated; with the leaked 1e-3, or a tolerance
	// derived from the previous life's 1e6, it would be.
	g2 := AcquireGraph(3)
	e := g2.AddEdge(0, 1, 1)
	g2.AddEdge(1, 2, 1-1e-6)
	if got := g2.MaxFlow(0, 2); got != 1-1e-6 {
		t.Fatalf("re-acquired graph: MaxFlow = %v, want 1-1e-6", got)
	}
	if g2.Saturated(e) {
		t.Error("edge at 1-1e-6 of capacity reads saturated: stale tolerance leaked through the pool")
	}
	ReleaseGraph(g2)
}

// TestPooledRatGraphCarriesNoStaleState is the exact-engine counterpart.
func TestPooledRatGraphCarriesNoStaleState(t *testing.T) {
	one := big.NewRat(1, 1)
	g := AcquireRatGraph(3)
	id := g.AddEdge(0, 1, one)
	g.AddEdge(1, 2, one)
	if got := g.MaxFlow(0, 2); got.Cmp(one) != 0 {
		t.Fatalf("MaxFlow = %v, want 1", got)
	}
	g.SetCapacity(id, big.NewRat(1, 2))
	ReleaseRatGraph(g)

	g2 := AcquireRatGraph(3)
	id2 := g2.AddEdge(0, 1, one)
	g2.AddEdge(1, 2, one)
	defer ReleaseRatGraph(g2)
	defer func() {
		if recover() == nil {
			t.Error("RemoveJobEdge on a re-acquired unsolved rat graph must panic (stale mutation license)")
		}
	}()
	g2.RemoveJobEdge(id2)
}
