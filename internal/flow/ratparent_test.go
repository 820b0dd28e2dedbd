package flow

import "math/big"

// parentRatMaxFlow keeps the Dinic BFS RatGraph.MaxFlow had before it
// stopped at the sink: it expands every reachable vertex. It is the
// reference TestBFSStopMatchesParentBFS holds MaxFlow to.
func parentRatMaxFlow(g *RatGraph, s, t int) *big.Rat {
	g.build()
	g.ensureScratch(g.nv)
	n := g.nv
	level, iter := g.level, g.iter
	var bfsPasses, augPaths, edgesScanned int64
	bfs := func() bool {
		bfsPasses++
		for i := 0; i < n; i++ {
			level[i] = -1
		}
		level[s] = 0
		queue := append(g.queue[:0], int32(s))
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			edgesScanned += int64(g.adjOff[v+1] - g.adjOff[v])
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				e := &g.edges[g.adjLst[i]]
				if e.cap.Sign() > 0 && level[e.to] < 0 {
					level[e.to] = level[v] + 1
					queue = append(queue, e.to)
				}
			}
		}
		g.queue = queue[:0]
		return level[t] >= 0
	}
	var dfs func(v int32, f *big.Rat) *big.Rat
	dfs = func(v int32, f *big.Rat) *big.Rat {
		if int(v) == t {
			return new(big.Rat).Set(f)
		}
		for ; iter[v] < g.adjOff[v+1]; iter[v]++ {
			edgesScanned++
			eid := g.adjLst[iter[v]]
			e := &g.edges[eid]
			if e.cap.Sign() > 0 && level[v] < level[e.to] {
				push := e.cap
				if f != nil && f.Cmp(e.cap) < 0 {
					push = f
				}
				d := dfs(e.to, push)
				if d != nil && d.Sign() > 0 {
					e.cap.Sub(e.cap, d)
					p := &g.edges[eid^1]
					p.cap.Add(p.cap, d)
					return d
				}
			}
		}
		return nil
	}
	total := new(big.Rat)
	for bfs() {
		copy(iter[:n], g.adjOff[:n])
		for {
			bound := new(big.Rat)
			for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
				bound.Add(bound, g.edges[g.adjLst[i]].cap)
			}
			if bound.Sign() == 0 {
				break
			}
			d := dfs(int32(s), bound)
			if d == nil || d.Sign() == 0 {
				break
			}
			augPaths++
			total.Add(total, d)
		}
	}
	g.ops.Add(DinicOps{BFSPasses: bfsPasses, AugPaths: augPaths, EdgesScanned: edgesScanned})
	return total
}
