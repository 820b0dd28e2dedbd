package flow

import "mpss/internal/pool"

// Package-level graph arenas. AcquireGraph returns a Reset graph ready
// for AddEdge; ReleaseGraph recycles one so its flat edge array, CSR
// index and scratch buffers are reused by the next solve. Steady-state
// round loops therefore allocate nothing for graph storage.
//
// Reset fully re-initializes a graph, so Acquire alone would suffice —
// but Release additionally clears any tolerance override before the
// graph enters the pool, and ReleaseRatGraph clears the exact graph's
// solved flag (haveST). A rational graph parked on the free list
// therefore never holds a live incremental-mutation license: even a
// caller that reaches the pool without going through Acquire's Reset
// cannot run SetCapacity/ScaleSourceCaps/RemoveJobEdge against the
// previous solve's stale source/sink endpoints.

var graphPool pool.FreeList[Graph]

// AcquireGraph returns a pooled graph reset to n vertices.
func AcquireGraph(n int) *Graph {
	g := graphPool.Get()
	g.Reset(n)
	return g
}

// ReleaseGraph returns a graph obtained from AcquireGraph to the pool.
// The graph must not be used afterwards.
func ReleaseGraph(g *Graph) {
	if g != nil {
		g.tol = 0
		graphPool.Put(g)
	}
}

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
