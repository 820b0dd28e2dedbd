package flow

import "math/big"

// Hooks for the external tests of this directory (package flow_test),
// which import flowref and so cannot be part of package flow.

// PhaseNetTol returns the saturation tolerance of p's last solve.
func PhaseNetTol(p *PhaseNet) float64 { return p.tol }

// PhaseNetLive reports whether job i of p is set.
func PhaseNetLive(p *PhaseNet, i int) bool { return p.live(i) }

// ParentRatMaxFlow is RatGraph.MaxFlow with the BFS that expands every
// reachable vertex (ratparent_test.go).
var ParentRatMaxFlow = parentRatMaxFlow

// RatResidual returns the residual capacity of edge i of g's flat edge
// array, i odd for a reverse edge, and reports whether g has an edge i.
func RatResidual(g *RatGraph, i int) (*big.Rat, bool) {
	if i >= len(g.edges) {
		return nil, false
	}
	return g.edges[i].cap, true
}
