package opt

import (
	"fmt"
	"math"
	"testing"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/pool"
	"mpss/internal/schedule"
	"mpss/internal/workload"
)

// The cap search's reference: the full solver's top phase speed s_1,
// and probes on a flow.Graph built edge by edge — the source edge w_k/x,
// then the job's edges to the intervals it is active in, job by job,
// then the sink edges — with no network reuse.

// refNet is the probe network at cap x on a flow.Graph, with its job to
// interval edges in build order. late is the first job that cannot
// finish inside its own window at x (-1 when none); the graph is then
// incomplete.
type refNet struct {
	g      *flow.Graph
	sink   int
	demand float64
	late   int
	mids   []refEdge
}

type refEdge struct {
	k, jx int
	id    flow.EdgeID
}

func buildRefNet(in *job.Instance, ivs []job.Interval, x float64) *refNet {
	r := &refNet{sink: 1 + in.N() + len(ivs), late: -1}
	r.g = graphArena.Get()
	r.g.Reset(r.sink + 1)
	for k, j := range in.Jobs {
		need := j.Work / x
		if need > j.Span()*(1+flow.DefaultTolerance) {
			r.late = k
			return r
		}
		r.g.AddEdge(0, 1+k, need)
		r.demand += need
		for jx, iv := range ivs {
			if j.ActiveIn(iv.Start, iv.End) {
				id := r.g.AddEdge(1+k, 1+in.N()+jx, iv.Len())
				r.mids = append(r.mids, refEdge{k: k, jx: jx, id: id})
			}
		}
	}
	for jx, iv := range ivs {
		r.g.AddEdge(1+in.N()+jx, r.sink, float64(in.M)*iv.Len())
	}
	return r
}

// solve returns the max-flow value and the probe's verdict.
func (r *refNet) solve() (float64, bool) {
	if r.late >= 0 {
		return 0, false
	}
	v := r.g.MaxFlow(0, r.sink)
	return v, v >= r.demand-flow.SolveTolerance*math.Max(1, r.demand)
}

// release recycles the graph; r must not be used afterwards.
func (r *refNet) release() { graphArena.Put(r.g) }

// graphArena recycles refNet graphs, which keeps the reference sweep
// from spending its time growing fresh edge arrays.
var graphArena pool.FreeList[flow.Graph]

// refScheduleAtCap is ScheduleAtCap on a refNet: pieces per interval in
// job order, packed by wrap-around.
func refScheduleAtCap(in *job.Instance, x float64) (*schedule.Schedule, error) {
	ivs := job.Partition(in.Jobs)
	r := buildRefNet(in, ivs, x)
	defer r.release()
	if _, ok := r.solve(); !ok {
		return nil, fmt.Errorf("infeasible at cap %v", x)
	}
	perIv := make([][]schedule.Piece, len(ivs))
	for _, e := range r.mids {
		if f := r.g.Flow(e.id); f > flow.DefaultTolerance {
			perIv[e.jx] = append(perIv[e.jx], schedule.Piece{
				JobID: in.Jobs[e.k].ID, Duration: math.Min(f, ivs[e.jx].Len()), Speed: x,
			})
		}
	}
	out := schedule.New(in.M)
	procs := make([]int, in.M)
	for i := range procs {
		procs[i] = i
	}
	for jx, pieces := range perIv {
		if len(pieces) == 0 {
			continue
		}
		var err error
		if out.Segments, err = schedule.WrapAround(out.Segments, ivs[jx].Start, ivs[jx].End, procs, pieces); err != nil {
			return nil, err
		}
	}
	out.Normalize()
	return out, nil
}

// checkCapSearch runs the search on in and returns its cap, which must
// be bit-equal to s1, the full solver's top phase speed, after one
// bracket solve and one probe. At the cap and just below it,
// cap·(1−DiffTolerance), a refNet probe must accept and refute, and the
// capNet probe must match it: the same verdict, flow value, augmenting
// paths and BFS passes.
func checkCapSearch(t *testing.T, label string, in *job.Instance, s1 float64, opts ...Option) float64 {
	t.Helper()
	rec := obs.New()
	got, err := MinFeasibleCap(in, append(opts, WithRecorder(rec))...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if math.Float64bits(got) != math.Float64bits(s1) {
		t.Fatalf("%s: cap %v, top phase speed %v", label, got, s1)
	}
	for _, name := range []string{"opt.bracket_solves", "opt.feasibility_probes"} {
		if n := rec.Value(name); n != 1 {
			t.Fatalf("%s: %s %d, want 1", label, name, n)
		}
	}

	ivs := job.Partition(in.Jobs)
	var sv arena
	sv.fr.reset(in)
	sv.cn.set(&sv.fr)
	for _, x := range []float64{got, got * (1 - flow.DiffTolerance)} {
		rn := buildRefNet(in, ivs, x)
		demand, late := sv.cn.load(in, x)
		if (late >= 0) != (rn.late >= 0) {
			t.Fatalf("%s: cap %v: capNet late job %d, reference %d", label, x, late, rn.late)
		}
		rv, rok := rn.solve()
		if rok != (x == got) {
			t.Fatalf("%s: the reference probe answers %v at cap %v (minimum %v)", label, rok, x, got)
		}
		if late >= 0 {
			rn.release()
			continue
		}
		before := sv.cn.pn.Ops()
		v, ok := sv.cn.solve(demand, nil)
		ops, rops := sv.cn.pn.Ops().Sub(before), rn.g.Ops()
		rn.release()
		if math.Float64bits(v) != math.Float64bits(rv) || ok != rok ||
			ops.AugPaths != rops.AugPaths || ops.BFSPasses != rops.BFSPasses {
			t.Fatalf("%s: cap %v: capNet flow %v (%v, %d paths, %d BFS), reference %v (%v, %d paths, %d BFS)",
				label, x, v, ok, ops.AugPaths, ops.BFSPasses, rv, rok, rops.AugPaths, rops.BFSPasses)
		}
	}
	return got
}

// topSpeed is the full solver's top phase speed s_1.
func topSpeed(t *testing.T, label string, in *job.Instance) float64 {
	t.Helper()
	res, err := Schedule(in)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	return res.Phases[0].Speed
}

// checkScheduleAtCap compares ScheduleAtCap with the refNet-built
// schedule segment for segment.
func checkScheduleAtCap(t *testing.T, label string, in *job.Instance, x float64) {
	t.Helper()
	got, err := ScheduleAtCap(in, x)
	want, rerr := refScheduleAtCap(in, x)
	if (err != nil) != (rerr != nil) {
		t.Fatalf("%s: cap %v: error %v, reference error %v", label, x, err, rerr)
	}
	if err != nil {
		return
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("%s: cap %v: %d segments, reference %d", label, x, len(got.Segments), len(want.Segments))
	}
	for i, s := range got.Segments {
		w := want.Segments[i]
		if s.Proc != w.Proc || s.JobID != w.JobID || math.Float64bits(s.Start) != math.Float64bits(w.Start) ||
			math.Float64bits(s.End) != math.Float64bits(w.End) || math.Float64bits(s.Speed) != math.Float64bits(w.Speed) {
			t.Fatalf("%s: cap %v: segment %d is %+v, reference %+v", label, x, i, s, w)
		}
	}
}

// TestCapSearchMatchesReference sweeps every workload generator over
// sizes, machine sizes and seeds: the search with contraction on and off
// must each return the full solver's top phase speed (checkCapSearch),
// and ScheduleAtCap must emit the reference's segments at that cap and
// twice it. The 160-job instances run two seeds; -short runs two seeds
// of the smaller sizes only.
func TestCapSearchMatchesReference(t *testing.T) {
	sizes := []int{4, 8, 24, 64, 160}
	if testing.Short() {
		sizes = sizes[:4]
	}
	for _, gen := range workload.All() {
		for _, n := range sizes {
			seeds := int64(8)
			if testing.Short() || n > 64 {
				seeds = 2
			}
			for _, m := range []int{1, 2, 4, 8} {
				for seed := int64(1); seed <= seeds; seed++ {
					in, err := gen.Make(workload.Spec{N: n, M: m, Seed: seed})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%s n=%d m=%d seed=%d", gen.Name, n, m, seed)
					s1 := topSpeed(t, label, in)
					cap := checkCapSearch(t, label, in, s1)
					checkCapSearch(t, label+" contraction off", in, s1, withContraction(false))
					checkScheduleAtCap(t, label, in, cap)
					checkScheduleAtCap(t, label, in, 2*cap)
				}
			}
		}
	}
}

// FuzzMinFeasibleCap: on fuzzer-chosen instances the search returns the
// full solver's top phase speed, which the reference probe accepts and
// refutes just below, and ScheduleAtCap at that cap is a valid schedule
// with the reference's segments.
func FuzzMinFeasibleCap(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(1))
	f.Add(int64(2), uint8(20), uint8(2))
	f.Add(int64(3), uint8(3), uint8(4))
	f.Add(int64(-9), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawM uint8) {
		n := 1 + int(rawN%24)
		m := 1 + int(rawM%4)
		in, err := job.NewInstance(m, fuzzJobs(seed, n))
		if err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}
		cap := checkCapSearch(t, "fuzz", in, topSpeed(t, "fuzz", in))
		s, err := ScheduleAtCap(in, cap)
		if err != nil {
			t.Fatalf("ScheduleAtCap at the minimum cap %v: %v", cap, err)
		}
		if err := s.Verify(in); err != nil {
			t.Fatalf("ScheduleAtCap at the minimum cap %v: %v", cap, err)
		}
		checkScheduleAtCap(t, "fuzz", in, cap)
	})
}

// The search's op counts on the wire-solve shape (64 jobs, m = 4,
// bursty and uniform alternating): the first-phase solve and exactly one
// probe per search, whose flows scan at most 19,800 edges per search
// (19,746 measured).
func TestCapSearchWireShapeGate(t *testing.T) {
	rec := obs.New()
	const searches = 16
	for k := 0; k < searches; k++ {
		g, err := workload.ByName([...]string{"bursty", "uniform"}[k%2])
		if err != nil {
			t.Fatal(err)
		}
		in, err := g.Make(workload.Spec{N: 64, M: 4, Seed: int64(100 + k)})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := MinFeasibleCap(in, WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
	}
	snap := rec.Snapshot()
	perSearch := func(name string) float64 { return float64(snap.Counters[name]) / searches }
	if got := perSearch("opt.feasibility_probes"); got != 1 {
		t.Errorf("%.2f feasibility probes per search, want 1", got)
	}
	if got := perSearch("flow.dinic.edges_scanned"); got > 19800 {
		t.Errorf("%.0f edges scanned per search, gate 19,800", got)
	}
}
