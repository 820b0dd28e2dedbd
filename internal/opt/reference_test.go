package opt

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"
	"testing"

	"mpss/internal/cert"
	"mpss/internal/flow"
	"mpss/internal/flow/flowref"
	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/power"
	"mpss/internal/schedule"
	"mpss/internal/workload"
)

// The engines remove every candidate the residual graph certifies as
// excluded in one round, on a network built for the round over the
// phase's span, contracted where intervals are interchangeable. The
// reference below is the paper's Fig. 2 taken literally instead: every
// round rebuilds G(J, m, s) on the raw intervals and removes only the
// first co-reachable candidate. Whether a job belongs to J_i does not
// depend on the removal order, so both loops stop at the same saturating
// set: the emitted phases must agree bit for bit, and so must the
// segments of the uncontracted engines, which solve the same accepted
// network. The reference also solves every block whole, where the
// engines split blocks at their time gaps (blocks.go), so it holds the
// split to the loop without it.

// refRound solves one conjecture round on a freshly built network for
// the candidate set cand (instance job indices) and the per-interval
// processor counts mj. It returns the candidate index to remove, or -1
// when the conjecture is accepted together with the phase speed and the
// per-job interval times.
type refRound func(in *job.Instance, ivs []job.Interval, cand, mj []int) (remove int, speed float64, tkj map[int][]pieceTime)

// refSchedule runs the phase loop of Fig. 2 with the given round
// arithmetic, one removal per rejected round.
func refSchedule(in *job.Instance, round refRound) (*Result, error) {
	ivs := job.Partition(in.Jobs)
	used := make([]int, len(ivs))
	remaining := make([]int, len(in.Jobs))
	for k := range remaining {
		remaining[k] = k
	}
	res := &Result{Schedule: schedule.New(in.M), Intervals: ivs}
	for len(remaining) > 0 {
		cand := append([]int(nil), remaining...)
		for {
			if len(cand) == 0 {
				return nil, fmt.Errorf("phase %d emptied its candidate set", len(res.Phases)+1)
			}
			mj := make([]int, len(ivs))
			open := false
			for jx, iv := range ivs {
				n := 0
				for _, k := range cand {
					if in.Jobs[k].ActiveIn(iv.Start, iv.End) {
						n++
					}
				}
				mj[jx] = min(n, max(0, in.M-used[jx]))
				open = open || mj[jx] > 0
			}
			if !open {
				// No capacity anywhere: drop the least-work candidate.
				least := 0
				for i, k := range cand {
					if in.Jobs[k].Work < in.Jobs[cand[least]].Work {
						least = i
					}
				}
				cand = append(cand[:least], cand[least+1:]...)
				continue
			}
			remove, speed, tkj := round(in, ivs, cand, mj)
			if remove >= 0 {
				cand = append(cand[:remove], cand[remove+1:]...)
				continue
			}
			if err := emitPhaseRef(in, ivs, used, cand, speed, mj, tkj, res); err != nil {
				return nil, err
			}
			break
		}
		remaining = subtract(remaining, cand)
	}
	res.Schedule.Normalize()
	return res, nil
}

// pieceTime is the time a job runs in one interval.
type pieceTime struct {
	ivIdx int
	t     float64
}

// emitPhaseRef is the map-based emission the engines used before they
// returned pieces in interval order: group every job's pieces per
// interval, sort each group by job ID (map order is random), pack it by
// wrap-around and Add the segments one by one. The reference loop emits
// through it, and TestEmissionMatchesReference holds the engines'
// emitPhase to it bit for bit.
func emitPhaseRef(in *job.Instance, ivs []job.Interval, used, cand []int, speed float64, mj []int, tkj map[int][]pieceTime, res *Result) error {
	phase := Phase{Speed: speed, Procs: append([]int(nil), mj...)}
	for _, k := range cand {
		phase.JobIDs = append(phase.JobIDs, in.Jobs[k].ID)
	}
	perIv := make([][]schedule.Piece, len(ivs))
	for k, pieces := range tkj {
		for _, p := range pieces {
			dur := math.Min(p.t, ivs[p.ivIdx].Len())
			perIv[p.ivIdx] = append(perIv[p.ivIdx], schedule.Piece{
				JobID:    in.Jobs[k].ID,
				Duration: dur,
				Speed:    speed,
			})
		}
	}
	for jx := range ivs {
		if mj[jx] == 0 || len(perIv[jx]) == 0 {
			continue
		}
		slices.SortFunc(perIv[jx], func(a, b schedule.Piece) int {
			return cmp.Compare(a.JobID, b.JobID)
		})
		procs := make([]int, mj[jx])
		for i := range procs {
			procs[i] = used[jx] + i
		}
		segs, err := schedule.WrapAround(nil, ivs[jx].Start, ivs[jx].End, procs, perIv[jx])
		if err != nil {
			return fmt.Errorf("opt: packing interval %v: %w", ivs[jx], err)
		}
		for _, s := range segs {
			res.Schedule.Add(s)
		}
		used[jx] += mj[jx]
	}
	res.Phases = append(res.Phases, phase)
	res.Stats.Phases++
	return nil
}

// refLayout numbers the network's vertices: 0 = source, 1..len(cand) =
// jobs, then the intervals with mj > 0, last = sink.
func refLayout(cand, mj []int) (ivNode []int, sink int) {
	node := 1 + len(cand)
	ivNode = make([]int, len(mj))
	for jx := range mj {
		ivNode[jx] = -1
		if mj[jx] > 0 {
			ivNode[jx] = node
			node++
		}
	}
	return ivNode, node
}

// refMid is one job -> interval edge of a reference network.
type refMid struct {
	k, jx int
	id    flow.EdgeID
}

func refRoundFloat(in *job.Instance, ivs []job.Interval, cand, mj []int) (int, float64, map[int][]pieceTime) {
	tw, tt := 0.0, 0.0
	for _, k := range cand {
		tw += in.Jobs[k].Work
	}
	for jx, iv := range ivs {
		if mj[jx] > 0 {
			tt += float64(mj[jx]) * iv.Len()
		}
	}
	speed := tw / tt
	ivNode, sink := refLayout(cand, mj)
	g := flowref.NewGraph(sink + 1)
	src := make([]flow.EdgeID, len(cand))
	for i, k := range cand {
		src[i] = g.AddEdge(0, 1+i, in.Jobs[k].Work/speed)
	}
	var mids []refMid
	for jx, iv := range ivs {
		if mj[jx] == 0 {
			continue
		}
		for i, k := range cand {
			if in.Jobs[k].ActiveIn(iv.Start, iv.End) {
				mids = append(mids, refMid{k, jx, g.AddEdge(1+i, ivNode[jx], iv.Len())})
			}
		}
		g.AddEdge(ivNode[jx], sink, float64(mj[jx])*iv.Len())
	}
	g.MaxFlow(0, sink)
	value := 0.0
	for _, id := range src {
		value += g.Flow(id)
	}
	if value < tt-flow.SolveTolerance*math.Max(1, tt) {
		mark := g.CoReachable(sink)
		for i := range cand {
			if mark[1+i] {
				return i, 0, nil
			}
		}
	}
	tkj := make(map[int][]pieceTime)
	for _, e := range mids {
		if f := g.Flow(e.id); f > 1e-15 {
			tkj[e.k] = append(tkj[e.k], pieceTime{ivIdx: e.jx, t: f})
		}
	}
	return -1, speed, tkj
}

func refRoundExact(in *job.Instance, ivs []job.Interval, cand, mj []int) (int, float64, map[int][]pieceTime) {
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	tw, tt := new(big.Rat), new(big.Rat)
	for _, k := range cand {
		tw.Add(tw, rat(in.Jobs[k].Work))
	}
	for jx, iv := range ivs {
		if mj[jx] > 0 {
			tt.Add(tt, new(big.Rat).Mul(big.NewRat(int64(mj[jx]), 1), rat(iv.Len())))
		}
	}
	speed := new(big.Rat).Quo(tw, tt)
	ivNode, sink := refLayout(cand, mj)
	g := flow.NewRatGraph(sink + 1)
	src := make([]flow.EdgeID, len(cand))
	for i, k := range cand {
		src[i] = g.AddEdge(0, 1+i, new(big.Rat).Quo(rat(in.Jobs[k].Work), speed))
	}
	var mids []refMid
	for jx, iv := range ivs {
		if mj[jx] == 0 {
			continue
		}
		for i, k := range cand {
			if in.Jobs[k].ActiveIn(iv.Start, iv.End) {
				mids = append(mids, refMid{k, jx, g.AddEdge(1+i, ivNode[jx], rat(iv.Len()))})
			}
		}
		g.AddEdge(ivNode[jx], sink, new(big.Rat).Mul(big.NewRat(int64(mj[jx]), 1), rat(iv.Len())))
	}
	g.MaxFlow(0, sink)
	value := new(big.Rat)
	for _, id := range src {
		value.Add(value, g.Flow(id))
	}
	if value.Cmp(tt) < 0 {
		mark := g.CoReachable(sink)
		for i := range cand {
			if mark[1+i] {
				return i, 0, nil
			}
		}
	}
	tkj := make(map[int][]pieceTime)
	for _, e := range mids {
		if f := g.Flow(e.id); f.Sign() > 0 {
			fv, _ := f.Float64()
			tkj[e.k] = append(tkj[e.k], pieceTime{ivIdx: e.jx, t: fv})
		}
	}
	sp, _ := speed.Float64()
	return -1, sp, tkj
}

// resultDiff describes the first difference between two results' phases
// (job IDs, processor counts, speed bits) and segments, compared bit for
// bit, or returns "".
func resultDiff(a, b *Result) string {
	if d := phaseDiff(a, b); d != "" {
		return d
	}
	return segmentDiff(a, b)
}

// segmentDiff is resultDiff's segment half.
func segmentDiff(a, b *Result) string {
	sa, sb := a.Schedule.Segments, b.Schedule.Segments
	if len(sa) != len(sb) {
		return fmt.Sprintf("segment counts %d vs %d", len(sa), len(sb))
	}
	for i := range sa {
		x, y := sa[i], sb[i]
		if x.Proc != y.Proc || x.JobID != y.JobID ||
			math.Float64bits(x.Start) != math.Float64bits(y.Start) ||
			math.Float64bits(x.End) != math.Float64bits(y.End) ||
			math.Float64bits(x.Speed) != math.Float64bits(y.Speed) {
			return fmt.Sprintf("segment %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// contractedDiff is what a contracted solve promises against the raw
// result of the same instance: phases bit for bit, and segments that are
// feasible, pass the optimality certificate and match raw's energy to
// within 1e-12 relative. It describes the first broken promise, or
// returns "".
func contractedDiff(in *job.Instance, con, raw *Result) string {
	if d := phaseDiff(con, raw); d != "" {
		return d
	}
	if err := cert.Check(con.Schedule, in); err != nil {
		return err.Error()
	}
	p := power.MustAlpha(3)
	if e, want := con.Schedule.Energy(p), raw.Schedule.Energy(p); math.Abs(e-want) > 1e-12*want {
		return fmt.Sprintf("energy %.17g vs %.17g", e, want)
	}
	return ""
}

// phaseDiff is resultDiff's phase half.
func phaseDiff(a, b *Result) string {
	if len(a.Phases) != len(b.Phases) {
		return fmt.Sprintf("phase counts %d vs %d", len(a.Phases), len(b.Phases))
	}
	for i, p := range a.Phases {
		q := b.Phases[i]
		if math.Float64bits(p.Speed) != math.Float64bits(q.Speed) {
			return fmt.Sprintf("phase %d speed %v vs %v", i, p.Speed, q.Speed)
		}
		if fmt.Sprint(p.JobIDs) != fmt.Sprint(q.JobIDs) {
			return fmt.Sprintf("phase %d jobs %v vs %v", i, p.JobIDs, q.JobIDs)
		}
		if fmt.Sprint(p.Procs) != fmt.Sprint(q.Procs) {
			return fmt.Sprintf("phase %d procs %v vs %v", i, p.Procs, q.Procs)
		}
	}
	return ""
}

// refArith pairs a reference round with the options selecting the
// engine arithmetic it must match.
type refArith struct {
	name  string
	round refRound
	extra []Option
}

var (
	refFloat = refArith{"float", refRoundFloat, nil}
	refExact = refArith{"exact", refRoundExact, []Option{Exact()}}
)

// checkAgainstReference solves in with every engine variant in the given
// arithmetic and reports each result that breaks its promise against the
// one-at-a-time reference: the raw engine matches it bit for bit; the
// contracted engine matches its phases bit for bit, the raw engine's
// round count, and certifies (contractedDiff).
func checkAgainstReference(t *testing.T, label string, in *job.Instance, arith refArith) {
	t.Helper()
	want, err := refSchedule(in, arith.round)
	if err != nil {
		t.Fatalf("%s: %s reference: %v", label, arith.name, err)
	}
	raw, err := Schedule(in, append(arith.extra, withContraction(false))...)
	if err != nil {
		t.Fatalf("%s: %s contract=false: %v", label, arith.name, err)
	}
	if d := resultDiff(want, raw); d != "" {
		t.Errorf("%s: %s contract=false differs from the one-at-a-time reference: %s", label, arith.name, d)
	}
	con, err := Schedule(in, arith.extra...)
	if err != nil {
		t.Fatalf("%s: %s contract=true: %v", label, arith.name, err)
	}
	if d := contractedDiff(in, con, want); d != "" {
		t.Errorf("%s: %s contract=true against the one-at-a-time reference: %s", label, arith.name, d)
	}
	if con.Stats.Rounds != raw.Stats.Rounds {
		t.Errorf("%s: %s contract=true: %d rounds, %d uncontracted", label, arith.name, con.Stats.Rounds, raw.Stats.Rounds)
	}
}

// TestBatchExclusionMatchesReference pins the batch removal rule against
// the literal one-at-a-time loop on every workload generator. The exact
// reference stops at n = 24: one big.Rat max flow per removed job costs
// seconds per 64-job instance, while n = 64 runs in float64. -short
// keeps n <= 24 in float64 and n = 8 in exact arithmetic. The "corpus"
// subtest adds the root fuzz corpus's two contraction instances
// (testdata/fuzz/FuzzSolvePipeline/contraction-grid and
// contraction-nested) in both arithmetics. Only contraction-nested
// merges intervals: one pair in each of two rounds, phase 2's accepted
// round (job 2 alone) and phase 3's (job 3 alone), since every round
// contracts its own candidates' lists. No two adjacent intervals of
// contraction-grid share an alive set in any round, so there the
// contracted and raw solves build the same networks. The merge counts
// are pinned so that a change in either shows.
func TestBatchExclusionMatchesReference(t *testing.T) {
	t.Run("corpus", func(t *testing.T) {
		t.Parallel()
		for _, c := range []struct {
			name   string
			jobs   []job.Job
			merged int64
		}{
			{"contraction-grid", []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 6}, {ID: 2, Release: 0, Deadline: 4, Work: 3}, {ID: 3, Release: 0, Deadline: 8, Work: 5}}, 0},
			{"contraction-nested", []job.Job{{ID: 1, Release: 0, Deadline: 2, Work: 5}, {ID: 2, Release: 0, Deadline: 4, Work: 2}, {ID: 3, Release: 0, Deadline: 8, Work: 1}}, 2},
		} {
			in, err := job.NewInstance(2, c.jobs)
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			if _, err := Schedule(in, WithRecorder(rec)); err != nil {
				t.Fatal(err)
			}
			if got := rec.Value("opt.intervals_contracted"); got != c.merged {
				t.Fatalf("%s: contraction merged %d intervals, want %d", c.name, got, c.merged)
			}
			for _, arith := range []refArith{refFloat, refExact} {
				checkAgainstReference(t, c.name, in, arith)
			}
		}
	})
	sizes := []struct {
		n     int
		arith []refArith
	}{
		{8, []refArith{refFloat, refExact}},
		{24, []refArith{refFloat, refExact}},
		{64, []refArith{refFloat}},
	}
	if testing.Short() {
		sizes[1].arith = sizes[1].arith[:1]
		sizes = sizes[:2]
	}
	for _, gen := range workload.All() {
		t.Run(gen.Name, func(t *testing.T) {
			t.Parallel()
			for _, size := range sizes {
				for _, m := range []int{1, 2, 4, 8} {
					for seed := int64(1); seed <= 4; seed++ {
						in, err := gen.Make(workload.Spec{N: size.n, M: m, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						label := fmt.Sprintf("n=%d m=%d seed=%d", size.n, m, seed)
						for _, arith := range size.arith {
							checkAgainstReference(t, label, in, arith)
						}
					}
				}
			}
		})
	}
}

// refEmitEngine runs a real engine under runPhases and feeds every
// accepted phase a second time to emitPhaseRef on a shadow result, with
// the pieces regrouped into the per-job map the engines used to return.
type refEmitEngine struct {
	phaseEngine
	in   *job.Instance
	used []int
	ref  *Result
	err  error
}

func (e *refEmitEngine) prepare(f *frame, st *Stats, rec *obs.Recorder) {
	e.phaseEngine.prepare(f, st, rec)
	e.in = f.in
	e.used = make([]int, len(f.ivs))
	e.ref = &Result{Schedule: schedule.New(f.in.M), Intervals: f.ivs}
}

func (e *refEmitEngine) accept() (float64, []int, []piece) {
	speed, mj, pieces := e.phaseEngine.accept()
	tkj := make(map[int][]pieceTime)
	for _, p := range pieces {
		tkj[p.k] = append(tkj[p.k], pieceTime{ivIdx: p.ivIdx, t: p.t})
	}
	if err := emitPhaseRef(e.in, e.ref.Intervals, e.used, e.phaseEngine.acceptedCand(), speed, mj, tkj, e.ref); err != nil && e.err == nil {
		e.err = err
	}
	return speed, mj, pieces
}

// TestEmissionMatchesReference holds the interval-ordered emission to the
// map-based one it replaced, bit for bit: every accepted phase of the
// float and the exact engine, contraction on and off, is emitted both
// ways from the same flow, and Schedule must land on the same result.
// Every solve's segments also go through checkPresorted.
// -short keeps n <= 24, and n = 8 in exact arithmetic.
func TestEmissionMatchesReference(t *testing.T) {
	// Set before the parallel subtests start; Cleanup runs after they end.
	testHookEmitted = func(segs []schedule.Segment, iv []int32) { checkPresorted(t, segs, iv) }
	t.Cleanup(func() { testHookEmitted = nil })
	sizes := []struct {
		n      int
		exacts []bool
	}{
		{8, []bool{false, true}},
		{24, []bool{false, true}},
		{64, []bool{false, true}},
	}
	if testing.Short() {
		sizes[1].exacts = sizes[1].exacts[:1]
		sizes = sizes[:2]
	}
	for _, gen := range workload.All() {
		t.Run(gen.Name, func(t *testing.T) {
			t.Parallel()
			for _, size := range sizes {
				for _, m := range []int{1, 2, 4} {
					for seed := int64(1); seed <= 3; seed++ {
						in, err := gen.Make(workload.Spec{N: size.n, M: m, Seed: seed})
						if err != nil {
							t.Fatal(err)
						}
						for _, exact := range size.exacts {
							for _, contract := range []bool{true, false} {
								label := fmt.Sprintf("n=%d m=%d seed=%d exact=%v contract=%v", size.n, m, seed, exact, contract)
								checkEmission(t, label, in, exact, contract)
							}
						}
					}
				}
			}
		})
	}
}

func checkEmission(t *testing.T, label string, in *job.Instance, exact, contract bool) {
	t.Helper()
	var eng phaseEngine = &floatEngine{contract: contract}
	opts := []Option{withContraction(contract)}
	if exact {
		eng = &exactEngine{contract: contract}
		opts = append(opts, Exact())
	}
	w := &refEmitEngine{phaseEngine: eng}
	var f frame
	f.reset(in)
	got, err := runPhases(nil, &f, w, nil, nil)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if w.err != nil {
		t.Fatalf("%s: reference emission: %v", label, w.err)
	}
	// The reference lists the phases as they were accepted; runPhases
	// merges them by speed, so only the segments compare.
	w.ref.Schedule.Normalize()
	if d := segmentDiff(w.ref, got); d != "" {
		t.Errorf("%s: emission differs from the map-based reference: %s", label, d)
	}
	res, err := Schedule(in, opts...)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if d := resultDiff(got, res); d != "" {
		t.Errorf("%s: Schedule differs from runPhases on the same engine: %s", label, d)
	}
}

// checkPresorted asserts that segOrder.sort puts a solve's emitted
// segments exactly where sorting them by schedule.CompareSegments does.
// A real emission has no ties, so this also asserts that the order is
// adopted rather than declined.
func checkPresorted(t *testing.T, segs []schedule.Segment, iv []int32) {
	if len(iv) != len(segs) {
		t.Errorf("%d interval indices for %d emitted segments", len(iv), len(segs))
		return
	}
	nIv, m := 0, 0
	for _, j := range iv {
		nIv = max(nIv, int(j)+1)
	}
	for _, seg := range segs {
		m = max(m, seg.Proc+1)
	}
	want := slices.Clone(segs)
	slices.SortFunc(want, schedule.CompareSegments)
	got := slices.Clone(segs)
	(&segOrder{iv: iv}).sort(got, nIv, m)
	if !slices.Equal(got, want) {
		t.Errorf("pre-sorted segments differ from the sorted emission order (%d segments)", len(segs))
	}
}

// When the (interval, processor) order is not strictly increasing —
// segments tied under CompareSegments, or out of start order — segOrder
// keeps the emission order, so Normalize sorts what it always sorted.
func TestPresortKeepsEmissionOrderOnTies(t *testing.T) {
	seg := func(proc int, start, end float64, id int) schedule.Segment {
		return schedule.Segment{Proc: proc, Start: start, End: end, JobID: id, Speed: 1}
	}
	for _, tc := range []struct {
		name string
		segs []schedule.Segment
		iv   []int32
	}{
		// By processor the order would be 2, 3, 1, but 2 and 3 tie.
		{"tie", []schedule.Segment{seg(1, 0, 1, 1), seg(0, 0, 1, 2), seg(0, 0, 1, 3)}, []int32{0, 0, 0}},
		// One processor and interval: stable sorting keeps 1 before 2.
		{"out of order", []schedule.Segment{seg(0, 1, 2, 1), seg(0, 0, 1, 2)}, []int32{0, 0}},
	} {
		got := slices.Clone(tc.segs)
		(&segOrder{iv: tc.iv}).sort(got, 1, 2)
		if !slices.Equal(got, tc.segs) {
			t.Errorf("%s: segments reordered to %v, want the emission order %v", tc.name, got, tc.segs)
		}
		// And Normalize ends where it ends on the emission order.
		a, b := &schedule.Schedule{M: 2, Segments: got}, &schedule.Schedule{M: 2, Segments: slices.Clone(tc.segs)}
		a.Normalize()
		b.Normalize()
		if !slices.Equal(a.Segments, b.Segments) {
			t.Errorf("%s: normalized %v, want %v", tc.name, a.Segments, b.Segments)
		}
	}
	// A strictly increasing order is adopted.
	segs := []schedule.Segment{seg(1, 0, 1, 1), seg(0, 1, 2, 2), seg(0, 0, 1, 3)}
	(&segOrder{iv: []int32{0, 1, 0}}).sort(segs, 2, 2)
	if want := []int{3, 2, 1}; segs[0].JobID != want[0] || segs[1].JobID != want[1] || segs[2].JobID != want[2] {
		t.Errorf("strict order not adopted: %v", segs)
	}
}

// subtract returns all without the jobs in remove, keeping the order of
// all; it reuses the backing array of all.
func subtract(all, remove []int) []int {
	drop := make(map[int]bool, len(remove))
	for _, k := range remove {
		drop[k] = true
	}
	out := all[:0]
	for _, k := range all {
		if !drop[k] {
			out = append(out, k)
		}
	}
	return out
}
