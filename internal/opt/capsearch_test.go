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

// The cap search's reference: every wave probed on a flow.Graph built
// edge by edge — the source edge w_k/x, then the job's edges to the
// intervals it is active in, job by job, then the sink edges — with no
// cut certificate and no network reuse.

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

type refWave struct {
	x  float64
	ok bool
}

// refSearch is the reference bisection of one search: the upper end of
// its bracket [0, hi] and every wave at tolerance SolveTolerance, each
// probed on a freshly built refNet. A search at a coarser tolerance
// walks a prefix of the same waves. cut is the search's certificate.
type refSearch struct {
	hi    float64
	cut   cutCert
	waves []refWave
}

// newRefSearch runs the reference search. It derives the bracket as the
// search does, from the first phase: hi = s_1(1+SolveTolerance), nudged
// once when infeasible. It also checks capNet against refNet at every
// wave: the same verdict, flow value, augmenting paths and BFS passes.
func newRefSearch(t *testing.T, label string, in *job.Instance) *refSearch {
	t.Helper()
	ivs := job.Partition(in.Jobs)
	probe := func(x float64) bool {
		rn := buildRefNet(in, ivs, x)
		defer rn.release()
		_, ok := rn.solve()
		return ok
	}
	sv := NewSolver()
	sv.fe.contract = true
	top, cut, err := sv.bracketSpeed(nil, in, ivs, nil)
	if err != nil {
		t.Fatalf("%s: bracket: %v", label, err)
	}
	r := &refSearch{hi: top * (1 + flow.SolveTolerance), cut: cut}
	if !probe(r.hi) {
		r.hi *= 1 + flow.DiffTolerance
		if !probe(r.hi) {
			t.Fatalf("%s: reference: top speed %v not feasible as cap", label, r.hi)
		}
	}
	for lo, hi := 0.0, r.hi; hi-lo > flow.SolveTolerance*hi; {
		mid := lo + (hi-lo)/2
		if mid <= 0 {
			break
		}
		ok := probe(mid)
		r.waves = append(r.waves, refWave{mid, ok})
		if ok {
			hi = mid
		} else {
			lo = mid
		}
	}

	var cn capNet
	cn.set(in, ivs)
	for _, w := range r.waves {
		rn := buildRefNet(in, ivs, w.x)
		demand, late := cn.load(in, w.x)
		if (late >= 0) != (rn.late >= 0) {
			t.Fatalf("%s: cap %v: capNet late job %d, reference %d", label, w.x, late, rn.late)
		}
		if late >= 0 {
			rn.release()
			continue
		}
		before := cn.pn.Ops()
		v, ok := cn.solve(demand, nil)
		rv, rok := rn.solve()
		ops, rops := cn.pn.Ops().Sub(before), rn.g.Ops()
		rn.release()
		if math.Float64bits(v) != math.Float64bits(rv) || ok != rok ||
			ops.AugPaths != rops.AugPaths || ops.BFSPasses != rops.BFSPasses {
			t.Fatalf("%s: cap %v: capNet flow %v (%v, %d paths, %d BFS), reference %v (%v, %d paths, %d BFS)",
				label, w.x, v, ok, ops.AugPaths, ops.BFSPasses, rv, rok, rops.AugPaths, rops.BFSPasses)
		}
	}
	return r
}

// at returns the reference's cap at tolerance rel and the waves it
// walks to get there.
func (r *refSearch) at(rel float64) (float64, []refWave) {
	if rel <= 0 {
		rel = flow.SolveTolerance
	}
	lo, hi := 0.0, r.hi
	for i, w := range r.waves {
		if !(hi-lo > rel*hi) {
			return hi, r.waves[:i]
		}
		if w.ok {
			hi = w.x
		} else {
			lo = w.x
		}
	}
	return hi, r.waves
}

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

// checkCapSearch runs the search on in and compares it with the
// reference: the same cap bit for bit, the reference answering
// "infeasible" at every wave the cut certificate answered, and the
// counters adding up. It returns the cap.
func checkCapSearch(t *testing.T, label string, in *job.Instance, ref *refSearch, rel float64, opts ...Option) float64 {
	t.Helper()
	rec := obs.New()
	got, err := MinFeasibleCap(in, rel, append(opts, WithRecorder(rec))...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	want, waves := ref.at(rel)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: cap %v, reference %v", label, got, want)
	}
	cutWaves := 0
	for _, w := range waves {
		if ref.cut.refutes(in, w.x) {
			cutWaves++
			if w.ok {
				t.Fatalf("%s: the cut refutes cap %v, which the reference probe accepts", label, w.x)
			}
		}
	}
	snap := rec.Snapshot()
	if n := snap.Counters["opt.probe_waves"]; n != int64(len(waves)) {
		t.Fatalf("%s: opt.probe_waves %d, reference waves %d", label, n, len(waves))
	}
	if n := snap.Counters["opt.cut_waves"]; n != int64(cutWaves) {
		t.Fatalf("%s: opt.cut_waves %d, certified waves %d", label, n, cutWaves)
	}
	// One or two upper-bound checks, then one probe per uncertified wave.
	if n := snap.Counters["opt.feasibility_probes"] - int64(len(waves)-cutWaves); n != 1 && n != 2 {
		t.Fatalf("%s: %d feasibility probes besides the uncertified waves", label, n)
	}
	return got
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
// sizes, machine sizes, seeds and tolerances: the default search and the
// search with contraction off must each return the reference's cap
// (checkCapSearch), and ScheduleAtCap must emit the reference's
// segments. The 160-job instances, whose reference probes
// take most of the time, run two seeds; -short runs two seeds of the
// smaller sizes only.
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
					ref := newRefSearch(t, label, in)
					var cap float64
					for _, rel := range []float64{0, 1e-6, 1e-3} {
						l := fmt.Sprintf("%s rel=%g", label, rel)
						cap = checkCapSearch(t, l, in, ref, rel)
						checkCapSearch(t, l+" contraction off", in, ref, rel, withContraction(false))
					}
					checkScheduleAtCap(t, label, in, cap)
					checkScheduleAtCap(t, label, in, 2*cap)
				}
			}
		}
	}
}

// FuzzMinFeasibleCap: on fuzzer-chosen instances the search returns the
// reference's cap, and ScheduleAtCap at that cap is a valid schedule.
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
		cap := checkCapSearch(t, "fuzz", in, newRefSearch(t, "fuzz", in), 0)
		s, err := ScheduleAtCap(in, cap)
		if err != nil {
			t.Fatalf("ScheduleAtCap at the minimum cap %v: %v", cap, err)
		}
		if err := s.Verify(in); err != nil {
			t.Fatalf("ScheduleAtCap at the minimum cap %v: %v", cap, err)
		}
	})
}

// The search's op counts on the wire-solve shape (64 jobs, m = 4,
// bursty and uniform alternating): the cut answers the waves far below
// s_1, so a search runs at most 8 probes (7.56 measured; 31 with every
// wave probed), and the flows of the bracket solve and the probes scan
// at most their measured 28,327 edges per search (105,680 with every
// wave probed on a flow.Graph).
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
		if _, err := MinFeasibleCap(in, 0, WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
	}
	snap := rec.Snapshot()
	perSearch := func(name string) float64 { return float64(snap.Counters[name]) / searches }
	if got := perSearch("opt.feasibility_probes"); got > 8 {
		t.Errorf("%.2f feasibility probes per search, gate 8", got)
	}
	if got := perSearch("flow.dinic.edges_scanned"); got > 28400 {
		t.Errorf("%.0f edges scanned per search, gate 28,400", got)
	}
}
