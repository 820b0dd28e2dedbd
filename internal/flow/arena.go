package flow

import "mpss/internal/pool"

// A package-level arena of exact graphs. AcquireRatGraph returns a Reset
// graph ready for AddEdge; ReleaseRatGraph recycles one so its flat edge
// array, CSR index and scratch buffers are reused by the next solve.
//
// Reset fully re-initializes a graph, so Acquire alone would suffice —
// but ReleaseRatGraph additionally clears the exact graph's solved flag
// (haveST). A rational graph parked on the free list therefore never
// holds a live incremental-mutation license: even a caller that reaches
// the pool without going through Acquire's Reset cannot run
// SetCapacity/ScaleSourceCaps/RemoveJobEdge against the previous
// solve's stale source/sink endpoints.

var ratPool pool.FreeList[RatGraph]

// AcquireRatGraph returns a pooled exact graph reset to n vertices.
func AcquireRatGraph(n int) *RatGraph {
	g := ratPool.Get()
	g.Reset(n)
	return g
}

// ReleaseRatGraph returns a graph obtained from AcquireRatGraph to the
// pool. The graph must not be used afterwards.
func ReleaseRatGraph(g *RatGraph) {
	if g != nil {
		g.haveST = false
		ratPool.Put(g)
	}
}
