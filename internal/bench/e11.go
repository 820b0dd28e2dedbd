package bench

import (
	"fmt"
	"math"
	"math/big"
	"time"

	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
	"mpss/internal/job"
	"mpss/internal/workload"
)

// E11Row is one size point of the flow-solver ablation: the same
// scheduler-shaped network G(all jobs, m, W/P) solved by Dinic (the
// flow.PhaseNet kernel the scheduler ships), by push-relabel, and (at
// small sizes) by the exact rational solver.
type E11Row struct {
	N          int
	Vertices   int
	Edges      int
	DinicNanos int64
	PRNanos    int64
	ExactNanos int64 // 0 = skipped (too slow at this size)
	Agree      bool  // all computed values matched
}

// exactSizeCap bounds the rational-arithmetic leg of the ablation.
const exactSizeCap = 32

// E11 times the three max-flow implementations on the real network shape
// the scheduler builds, justifying the choice of Dinic for the fast path.
func E11(cfg Config, sizes []int) ([]E11Row, error) {
	cfg = cfg.normalize()
	if len(sizes) == 0 {
		sizes = []int{16, 32, 64, 128}
	}
	var rows []E11Row
	for _, n := range sizes {
		row := E11Row{N: n, Agree: true}
		for seed := 0; seed < cfg.Seeds; seed++ {
			in, err := workload.Uniform(workload.Spec{N: n, M: 4, Seed: int64(seed), Horizon: 50})
			if err != nil {
				return nil, err
			}
			net := buildPhaseNetwork(in)
			row.Vertices = net.vertices
			row.Edges = len(net.edges)

			t0 := time.Now()
			var pn flow.PhaseNet
			pn.Reset(len(net.jobs), len(net.ivs))
			for i, j := range net.jobs {
				pn.SetJob(i, j.lo, j.hi, j.cap)
			}
			for r, iv := range net.ivs {
				pn.SetInterval(r, iv.len, iv.sinkCap, iv.jobs)
			}
			dv := pn.MaxFlow()
			row.DinicNanos += time.Since(t0).Nanoseconds()
			dops := pn.Ops()
			rec := cfg.Recorder
			rec.Add("flow.solves", 2)
			rec.Add("flow.dinic.bfs_passes", dops.BFSPasses)
			rec.Add("flow.dinic.aug_paths", dops.AugPaths)
			rec.Add("flow.dinic.edges_scanned", dops.EdgesScanned)

			t1 := time.Now()
			pg := flowref.NewGraph(net.vertices)
			for _, e := range net.edges {
				pg.AddEdge(e.from, e.to, e.cap)
			}
			pv, pops := pg.PushRelabel(0, net.vertices-1)
			row.PRNanos += time.Since(t1).Nanoseconds()
			rec.Add("flow.pr.pushes", pops.Pushes)
			rec.Add("flow.pr.relabels", pops.Relabels)
			rec.Add("flow.pr.gap_firings", pops.GapFirings)
			rec.Add("flow.pr.discharges", pops.Discharges)
			rec.Add("flow.pr.global_relabels", pops.GlobalRelabels)

			if math.Abs(dv-pv) > 1e-6*(1+dv) {
				row.Agree = false
			}

			if n <= exactSizeCap {
				t2 := time.Now()
				rg := flow.NewRatGraph(net.vertices)
				for _, e := range net.edges {
					rg.AddEdge(e.from, e.to, new(big.Rat).SetFloat64(e.cap))
				}
				rvRat := rg.MaxFlow(0, net.vertices-1)
				row.ExactNanos += time.Since(t2).Nanoseconds()
				rops := rg.Ops()
				rec.Add("flow.exact.bfs_passes", rops.BFSPasses)
				rec.Add("flow.exact.aug_paths", rops.AugPaths)
				rec.Add("flow.exact.edges_scanned", rops.EdgesScanned)
				rv, _ := rvRat.Float64()
				if math.Abs(dv-rv) > 1e-6*(1+dv) {
					row.Agree = false
				}
			}
		}
		s := int64(cfg.Seeds)
		row.DinicNanos /= s
		row.PRNanos /= s
		if row.ExactNanos > 0 {
			row.ExactNanos /= s
		}
		rows = append(rows, row)
	}
	return rows, nil
}

type netEdge struct {
	from, to int
	cap      float64
}

// phaseNetwork is one network in two forms: an edge list for the
// generic solvers, and the job windows and interval job lists a
// flow.PhaseNet takes.
type phaseNetwork struct {
	vertices int
	edges    []netEdge
	jobs     []phaseJob
	ivs      []phaseIv
}

type phaseJob struct {
	lo, hi int // the window of intervals the job is active in
	cap    float64
}

type phaseIv struct {
	len, sinkCap float64
	jobs         []int32 // the jobs active in the interval, ascending
}

// buildPhaseNetwork constructs G(J, m, s) for the full job set at the
// uniform speed s = W / (m * horizon-capacity) — the first-round network
// of the offline algorithm's first phase.
func buildPhaseNetwork(in *job.Instance) phaseNetwork {
	ivs := job.Partition(in.Jobs)
	var totalTime, totalWork float64
	for _, iv := range ivs {
		totalTime += float64(in.M) * iv.Len()
	}
	for _, j := range in.Jobs {
		totalWork += j.Work
	}
	s := totalWork / totalTime

	net := phaseNetwork{vertices: 2 + in.N() + len(ivs)}
	sink := net.vertices - 1
	for _, iv := range ivs {
		net.ivs = append(net.ivs, phaseIv{len: iv.Len(), sinkCap: float64(in.M) * iv.Len()})
	}
	for k, j := range in.Jobs {
		net.edges = append(net.edges, netEdge{0, 1 + k, j.Work / s})
		pj := phaseJob{lo: 0, hi: -1, cap: j.Work / s}
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				net.edges = append(net.edges, netEdge{1 + k, 1 + in.N() + jx, iv.Len()})
				if pj.hi < pj.lo {
					pj.lo = jx
				}
				pj.hi = jx
				net.ivs[jx].jobs = append(net.ivs[jx].jobs, int32(k))
			}
		}
		net.jobs = append(net.jobs, pj)
	}
	for jx, iv := range net.ivs {
		net.edges = append(net.edges, netEdge{1 + in.N() + jx, sink, iv.sinkCap})
	}
	return net
}

// RenderE11 prints the E11 table.
func RenderE11(rows []E11Row) string {
	out := [][]string{}
	for _, r := range rows {
		exact := "-"
		if r.ExactNanos > 0 {
			exact = dur(r.ExactNanos)
		}
		out = append(out, []string{
			d(r.N), d(r.Vertices), d(r.Edges),
			dur(r.DinicNanos), dur(r.PRNanos), exact, fmt.Sprintf("%v", r.Agree),
		})
	}
	return "E11 — ablation: max-flow solvers on scheduler-shaped networks (m=4)\n" +
		table([]string{"n", "vertices", "edges", "dinic", "push-relabel", "exact-rat", "agree"}, out)
}

// E11Check requires all solvers to agree.
func E11Check(rows []E11Row) error {
	for _, r := range rows {
		if !r.Agree {
			return fmt.Errorf("E11 n=%d: solvers disagreed", r.N)
		}
	}
	return nil
}
