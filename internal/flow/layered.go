package flow

// Dinic's first level phase on a three-layer network, in one pass.
//
// The scheduler's networks G(J, m, s) have three layers: source -> job
// -> interval -> sink. Most of their augmenting paths are found in the
// first level phase of a solve from zero flow, where the level graph is
// exactly s -> L1 -> L2 -> t. On such a network maxFlow replaces BFS 1
// and the first blocking-flow DFS by the direct loop of firstPhase,
// which pushes the same paths in the same order with the same amounts.
//
// The pass applies when both hold:
//
//   - the current flow is zero: Reset sets zeroFlow, and any push
//     clears it;
//   - the network is three-layered for (s, t): L1, the heads of s's
//     forward edges, each entered by exactly one edge from s; every
//     forward edge out of L1 enters L2; every L2 vertex has exactly one
//     forward edge, and it goes to t; s, t, L1 and L2 are disjoint.
//
// Why it is exact. On a zero flow every reverse edge has capacity 0, so
// BFS 1 labels the L1 vertices whose s-edge exceeds the tolerance with
// level 1, the L2 vertices they reach through live edges with level 2,
// and t with level 3 — no other vertex is labelled before t, since L1
// leads only into L2 and L2 only into t. The recursive DFS then walks
// s's edges in adjacency order and, from each head v, v's adjacency from
// its cursor iter[v]: reverse edges out of v lead to s or to unlabelled
// vertices (or carry no flow), so only forward edges to L2 qualify. From
// an L2 vertex u the only qualifying edge is its t-edge; once that is at
// or below the tolerance, u's cursor runs off its list and u is dead for
// the rest of the phase. A path found pushes
// d = min(min(es.cap, em.cap), et.cap), the bottleneck the DFS threads
// down as f, and the cursors stay on the edges that carried it. That is
// the loop below, without BFS 1, the recursion, or the scans of u's
// reverse edges.
//
// Counting. The pass counts as one BFS pass and one augmenting path per
// push. EdgesScanned counts each forward edge it reads: s's edges, each
// L1 vertex's edges from its cursor, and the t-edge behind each live
// L1 -> L2 edge. Reverse entries are skipped by their index alone, and
// the edges of a path just pushed are re-tested from the values the
// push wrote, not read again. If the pass pushes nothing, t is
// unreachable and the solve ends there, as it does after an unsuccessful
// BFS 1, so BFSPasses stays equal to plain Dinic's. The structure check
// itself is not counted: like the CSR build, it runs once per build and
// (s, t), not per solve.

// layered reports whether the network is three-layered for (s, t) in
// the sense above, caching the answer per CSR build and (s, t). On
// success tEdge[u] holds the t-edge of every L2 vertex u. build must
// have run.
func (g *Graph) layered(s, t int) bool {
	if g.layerKnown && g.layerS == s && g.layerT == t {
		return g.layerOK
	}
	g.layerKnown, g.layerS, g.layerT = true, s, t
	g.layerOK = g.checkLayered(s, t)
	return g.layerOK
}

// Roles of the structure check, kept in tEdge: an L2 vertex's entry is
// its t-edge id (>= 0).
const (
	roleNone = -1
	roleL1   = -2
)

func (g *Graph) checkLayered(s, t int) bool {
	g.tEdge = growInt32(g.tEdge, g.nv)
	role := g.tEdge
	for i := range role {
		role[i] = roleNone
	}
	role[s] = roleL1 // s may head no edge of either layer
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		if id := g.adjLst[i]; id&1 == 0 {
			v := g.edges[id].to
			if int(v) == t || role[v] != roleNone {
				return false // s -> t, or a second s-edge into v
			}
			role[v] = roleL1
		}
	}
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		if id := g.adjLst[i]; id&1 == 0 {
			v := g.edges[id].to
			for j := g.adjOff[v]; j < g.adjOff[v+1]; j++ {
				mid := g.adjLst[j]
				if mid&1 != 0 {
					continue
				}
				u := g.edges[mid].to
				switch {
				case int(u) == t || role[u] == roleL1:
					return false // L1 -> t, L1 -> L1 or L1 -> s
				case role[u] >= 0:
					continue // an L2 vertex already resolved
				}
				out := int32(-1)
				for k := g.adjOff[u]; k < g.adjOff[u+1]; k++ {
					if e := g.adjLst[k]; e&1 == 0 {
						if out >= 0 || int(g.edges[e].to) != t {
							return false // a second out-edge, or one not into t
						}
						out = e
					}
				}
				if out < 0 {
					return false // an L2 vertex with no way on
				}
				role[u] = out
			}
		}
	}
	return true
}

// firstPhase runs Dinic's first level phase from zero flow on a
// three-layered network, adding each pushed amount to *total in push
// order and stopping once *total reaches target. It returns the number
// of pushes and of edges tested. iter must hold adjOff[:n].
func (g *Graph) firstPhase(s int, tol, target float64, total *float64) (pushes, scanned int64) {
	iter, tEdge, edges := g.iter, g.tEdge, g.edges
	sum := *total
nextS:
	for i := g.adjOff[s]; i < g.adjOff[s+1] && sum < target; i++ {
		sid := g.adjLst[i]
		if sid&1 != 0 {
			continue
		}
		scanned++
		es := &edges[sid]
		if es.cap <= tol {
			continue
		}
		v := es.to
		for end := g.adjOff[v+1]; iter[v] < end; iter[v]++ {
			mid := g.adjLst[iter[v]]
			if mid&1 != 0 {
				continue
			}
			scanned++
			em := &edges[mid]
			if em.cap <= tol {
				continue
			}
			tid := tEdge[em.to]
			et := &edges[tid]
			scanned++
			// Push along s-v-u-t while the path lasts; a dead t-edge
			// leaves em.to dead for the rest of the phase.
			for em.cap > tol && et.cap > tol {
				d := min(min(es.cap, em.cap), et.cap)
				et.cap -= d
				edges[tid^1].cap += d
				em.cap -= d
				edges[mid^1].cap += d
				es.cap -= d
				edges[sid^1].cap += d
				pushes++
				sum += d
				if es.cap <= tol || sum >= target {
					continue nextS // iter[v] stays on em, as in the DFS
				}
			}
		}
	}
	*total = sum
	return pushes, scanned
}
