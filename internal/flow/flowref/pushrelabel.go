package flowref

import "math"

// PROps counts the elementary operations of a push-relabel run, for the
// E11 ablation.
type PROps struct {
	Pushes         int64 // saturating and non-saturating pushes
	Relabels       int64 // height increases
	GapFirings     int64 // gap-heuristic activations
	Discharges     int64 // vertices discharged off the FIFO queue
	GlobalRelabels int64 // exact-relabeling BFS passes
}

// PushRelabel computes a maximum s-t flow from the zero flow of a
// freshly built graph with the push-relabel (Goldberg–Tarjan) algorithm,
// FIFO vertex selection and the gap heuristic. It returns the flow value
// and the operation counts of the run. The scheduler's networks are
// shallow and wide; experiment E11 measures whether Dinic or this solver
// wins on them, and the property tests cross-check the two.
func (g *Graph) PushRelabel(s, t int) (float64, PROps) {
	if s == t {
		panic("flowref: source equals sink")
	}
	g.build()
	n := g.nv
	tol := g.Tolerance()
	height := make([]int, n)
	excess := make([]float64, n)
	count := make([]int, 2*n+1) // count[h] = number of vertices at height h
	inQueue := make([]bool, n)
	queue := make([]int, 0, n)

	var pushes, relabels, gapFirings, discharges, globalRelabels int64

	push := func(v int, eid int32) {
		pushes++
		e := &g.edges[eid]
		d := math.Min(excess[v], e.cap)
		e.cap -= d
		g.edges[eid^1].cap += d
		excess[v] -= d
		to := int(e.to)
		excess[to] += d
		if to != s && to != t && !inQueue[to] && excess[to] > tol {
			inQueue[to] = true
			queue = append(queue, to)
		}
	}

	// globalRelabel replaces every height with an exact residual
	// distance: dist-to-sink where the sink is still reachable, n +
	// dist-to-source for vertices that can only return excess, 2n for
	// vertices reaching neither. Each height only moves up (the max of
	// two valid labelings is valid), which preserves the termination
	// argument; the exact labels make subsequent pushes head straight
	// for the sink instead of wandering.
	dist := make([]int, n)
	bfsQueue := make([]int, 0, n)
	reverseBFS := func(root int) {
		for v := range dist {
			dist[v] = -1
		}
		dist[root] = 0
		bfsQueue = append(bfsQueue[:0], root)
		for head := 0; head < len(bfsQueue); head++ {
			cur := bfsQueue[head]
			for i := g.adjOff[cur]; i < g.adjOff[cur+1]; i++ {
				id := g.adjLst[i]
				if g.edges[id^1].cap > tol {
					u := int(g.edges[id].to)
					if dist[u] < 0 {
						dist[u] = dist[cur] + 1
						bfsQueue = append(bfsQueue, u)
					}
				}
			}
		}
	}
	globalRelabel := func() {
		globalRelabels++
		reverseBFS(t)
		for v := 0; v < n; v++ {
			switch {
			case v == s:
				height[v] = n
			case dist[v] >= 0:
				if dist[v] > height[v] {
					height[v] = dist[v]
				}
			default:
				height[v] = -1 // resolved by the source pass below
			}
		}
		reverseBFS(s)
		for v := 0; v < n; v++ {
			if height[v] >= 0 {
				continue
			}
			if dist[v] >= 0 {
				height[v] = n + dist[v]
			} else {
				height[v] = 2 * n
			}
		}
		for h := range count {
			count[h] = 0
		}
		for v := 0; v < n; v++ {
			if height[v] < len(count) {
				count[height[v]]++
			}
		}
	}

	// Initialize preflow.
	height[s] = n
	count[0] = n - 1
	count[n] = 1
	for i := g.adjOff[s]; i < g.adjOff[s+1]; i++ {
		eid := g.adjLst[i]
		if g.edges[eid].orig > 0 {
			excess[s] += g.edges[eid].cap
			push(s, eid)
		}
	}
	globalRelabel()
	grEvery := int64(n)
	if grEvery < 32 {
		grEvery = 32
	}
	sinceGlobal := int64(0)

	relabel := func(v int) {
		minH := 2 * n
		for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
			e := &g.edges[g.adjLst[i]]
			if e.cap > tol && height[e.to] < minH {
				minH = height[e.to]
			}
		}
		if minH < 2*n {
			relabels++
			sinceGlobal++
			count[height[v]]--
			// Gap heuristic: if v was the last vertex at its height and
			// that height is below n, every vertex above the gap (and
			// below n) can be lifted past n immediately.
			if count[height[v]] == 0 && height[v] < n {
				gapFirings++
				gap := height[v]
				for u := range height {
					if u != s && gap < height[u] && height[u] < n {
						count[height[u]]--
						height[u] = n + 1
						count[height[u]]++
					}
				}
			}
			height[v] = minH + 1
			count[height[v]]++
		}
	}

	discharge := func(v int) {
		for excess[v] > tol {
			// Push along every admissible edge. Heights of neighbours do
			// not change during the scan, so one full pass either drains
			// the excess or leaves no admissible edge.
			for i := g.adjOff[v]; i < g.adjOff[v+1]; i++ {
				eid := g.adjLst[i]
				e := &g.edges[eid]
				if e.cap > tol && height[v] == height[e.to]+1 {
					push(v, eid)
					if excess[v] <= tol {
						break
					}
				}
			}
			if excess[v] <= tol {
				break
			}
			old := height[v]
			relabel(v)
			if height[v] == old || height[v] >= 2*n {
				break
			}
		}
	}

	for len(queue) > 0 {
		// Periodic exact relabeling, between discharges so a scan never
		// sees heights move under it.
		if sinceGlobal >= grEvery {
			sinceGlobal = 0
			globalRelabel()
		}
		v := queue[0]
		queue = queue[1:]
		inQueue[v] = false
		discharges++
		discharge(v)
	}
	return excess[t], PROps{Pushes: pushes, Relabels: relabels, GapFirings: gapFirings, Discharges: discharges, GlobalRelabels: globalRelabels}
}
