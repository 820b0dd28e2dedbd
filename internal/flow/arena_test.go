package flow

import (
	"math/big"
	"testing"
)

// TestPooledRatGraphCarriesNoStaleState: an exact graph released to the
// pool after a solve must come back without its mutation license.
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
