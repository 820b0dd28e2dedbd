package opt

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"mpss/internal/cert"
	"mpss/internal/job"
	"mpss/internal/schedule"
	"mpss/internal/workload"
)

// Time gaps must be invisible in the output. Solving the time-separated
// parts of an instance on their own and merging their results by speed
// must reproduce the one solve of the whole instance bit for bit: phase
// speeds, job IDs, processor reservations and every schedule segment.
// speedMerge below is that merge, written independently of runPhases'
// split and mergePhases; the tests hold Schedule of a union of parts to
// it on the float and the exact engine, contracted and raw.

// components returns the time-separable parts of in, in time order,
// each with its jobs in input order: the pieces the first pop of
// runPhases cuts.
func components(in *job.Instance) [][]int {
	var f frame
	f.reset(in)
	jobs := make([]int, in.N())
	for i := range jobs {
		jobs[i] = i
	}
	starts := f.split(jobs, []int{0})
	out := make([][]int, 0, len(starts))
	for b := len(starts) - 1; b >= 0; b-- {
		end := len(jobs)
		if b+1 < len(starts) {
			end = starts[b+1]
		}
		out = append(out, slices.Clone(jobs[starts[b]:end]))
	}
	return out
}

// subInstance returns the jobs of in at the given indices.
func subInstance(in *job.Instance, idx []int) *job.Instance {
	part := &job.Instance{M: in.M}
	for _, k := range idx {
		part.Jobs = append(part.Jobs, in.Jobs[k])
	}
	return part
}

// shifted returns in's jobs moved by off in time, their IDs by idOff.
func shifted(in *job.Instance, off float64, idOff int) *job.Instance {
	out := &job.Instance{M: in.M}
	for _, j := range in.Jobs {
		j.Release += off
		j.Deadline += off
		j.ID += idOff
		out.Jobs = append(out.Jobs, j)
	}
	return out
}

// after returns b moved to start gap after a's last deadline, with IDs
// clear of a's. The shift is rounded up until b's first release lands
// at or past that point, so that gap 0 touches without overlapping.
func after(a, b *job.Instance, gap float64) *job.Instance {
	last, first := math.Inf(-1), math.Inf(1)
	for _, j := range a.Jobs {
		last = max(last, j.Deadline)
	}
	for _, j := range b.Jobs {
		first = min(first, j.Release)
	}
	off := last + gap - first
	for first+off < last+gap {
		off = math.Nextafter(off, math.Inf(1))
	}
	return shifted(b, off, 100000)
}

// speedMerge is what Schedule(union) must return, built from the
// results of its time-separated parts: every part's phases in one list
// by decreasing speed, parts in the given order on ties, and each run
// of bit-equal speeds one phase with its job IDs in union input order,
// its reservations side by side and its speed re-derived as one phase
// of the union computes it (work in input order over processor time in
// interval order). The segments are the parts' together.
func speedMerge(union *job.Instance, parts []*job.Instance, results []*Result) *Result {
	ivs := job.Partition(union.Jobs)
	index := make(map[int]int, union.N())
	for k, j := range union.Jobs {
		index[j.ID] = k
	}
	type head struct {
		part  int
		phase Phase
	}
	var heads []head
	out := &Result{Schedule: schedule.New(union.M), Intervals: ivs}
	for p, r := range results {
		out.Stats.Rounds += r.Stats.Rounds
		out.Schedule.Extend(r.Schedule)
		for _, ph := range r.Phases {
			heads = append(heads, head{p, ph})
		}
	}
	sort.SliceStable(heads, func(a, b int) bool { return heads[a].phase.Speed > heads[b].phase.Speed })
	for i := 0; i < len(heads); {
		run := i + 1
		for run < len(heads) && heads[run].phase.Speed == heads[i].phase.Speed {
			run++
		}
		ph := Phase{Speed: heads[i].phase.Speed, Procs: make([]int, len(ivs))}
		for _, h := range heads[i:run] {
			ph.JobIDs = append(ph.JobIDs, h.phase.JobIDs...)
			off := sort.Search(len(ivs), func(x int) bool { return ivs[x].Start >= results[h.part].Intervals[0].Start })
			for jx, m := range h.phase.Procs {
				ph.Procs[off+jx] += m
			}
		}
		slices.SortFunc(ph.JobIDs, func(a, b int) int { return cmp.Compare(index[a], index[b]) })
		if run > i+1 {
			var work, time float64
			for _, j := range union.Jobs {
				if slices.Contains(ph.JobIDs, j.ID) {
					work += j.Work
				}
			}
			for jx, iv := range ivs {
				if ph.Procs[jx] > 0 {
					time += float64(ph.Procs[jx]) * iv.Len()
				}
			}
			ph.Speed = work / time
		}
		out.Phases = append(out.Phases, ph)
		i = run
	}
	out.Stats.Phases = len(out.Phases)
	out.Schedule.Normalize()
	return out
}

// checkUnion solves the union of the time-separated parts and each part
// with opts, certifies every schedule, and holds the union's result to
// the speed-merge of the parts'. It returns the union's result.
func checkUnion(t *testing.T, label string, parts []*job.Instance, opts ...Option) *Result {
	t.Helper()
	union := &job.Instance{M: parts[0].M}
	for _, p := range parts {
		union.Jobs = append(union.Jobs, p.Jobs...)
	}
	return checkSplit(t, label, union, parts, opts...)
}

// checkSplit is checkUnion for an instance already laid out: parts are
// its time-separated parts, in time order.
func checkSplit(t *testing.T, label string, union *job.Instance, parts []*job.Instance, opts ...Option) *Result {
	t.Helper()
	got, err := Schedule(union, opts...)
	if err != nil {
		t.Fatalf("%s: union: %v", label, err)
	}
	if err := cert.Check(got.Schedule, union); err != nil {
		t.Fatalf("%s: union: %v", label, err)
	}
	results := make([]*Result, len(parts))
	for i, p := range parts {
		if results[i], err = Schedule(p, opts...); err != nil {
			t.Fatalf("%s: part %d: %v", label, i, err)
		}
		if err := cert.Check(results[i].Schedule, p); err != nil {
			t.Fatalf("%s: part %d: %v", label, i, err)
		}
	}
	want := speedMerge(union, parts, results)
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("%s: union differs from the speed-merge of its parts: %s", label, d)
	}
	if got.Stats.Rounds != want.Stats.Rounds {
		t.Errorf("%s: union took %d rounds, its parts %d", label, got.Stats.Rounds, want.Stats.Rounds)
	}
	return got
}

// generated returns a generator-made instance on [0, 100].
func generated(t *testing.T, gname string, n, m int, seed int64) *job.Instance {
	t.Helper()
	gen, err := workload.ByName(gname)
	if err != nil {
		t.Fatal(err)
	}
	in, err := gen.Make(workload.Spec{N: n, M: m, Seed: seed, Horizon: 100})
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// The split's pieces: cut at every boundary no window strictly crosses,
// touching windows included, each piece in input order.
func TestComponentRanges(t *testing.T) {
	j := func(r, d float64) job.Job { return job.Job{Release: r, Deadline: d, Work: 1} }
	cases := []struct {
		name string
		jobs []job.Job
		want [][]int
	}{
		{"single", []job.Job{j(0, 2), j(1, 3)}, [][]int{{0, 1}}},
		{"gap", []job.Job{j(0, 2), j(5, 7)}, [][]int{{0}, {1}}},
		// Deadline == next release: windows touch but do not cross, so
		// the boundary is still a cut.
		{"touching", []job.Job{j(0, 2), j(2, 4)}, [][]int{{0}, {1}}},
		{"crossing", []job.Job{j(0, 3), j(2, 4)}, [][]int{{0, 1}}},
		// Input order need not follow time order; each piece must still
		// keep the input-relative order of its members.
		{"interleaved", []job.Job{j(5, 7), j(0, 2), j(6, 8), j(1, 3)}, [][]int{{1, 3}, {0, 2}}},
		{"nested", []job.Job{j(0, 10), j(2, 4), j(12, 14)}, [][]int{{0, 1}, {2}}},
		{"three", []job.Job{j(0, 1), j(1, 2), j(3, 4)}, [][]int{{0}, {1}, {2}}},
		{"one", []job.Job{j(0, 1)}, [][]int{{0}}},
	}
	for _, tc := range cases {
		for i := range tc.jobs {
			tc.jobs[i].ID = i
		}
		got := components(&job.Instance{M: 1, Jobs: tc.jobs})
		if !slices.EqualFunc(got, tc.want, slices.Equal[[]int]) {
			t.Errorf("%s: pieces %v, want %v", tc.name, got, tc.want)
		}
	}
}

// Two generated instances, the second moved past the first's last
// deadline: disjoint (gap 25) and touching (gap 0), on the float engine
// contracted and raw.
func TestDecomposedMatchesMonolithic(t *testing.T) {
	for _, gname := range []string{"bursty", "tight", "slotted"} {
		for _, gap := range []float64{0, 25} {
			a := generated(t, gname, 16, 3, 42)
			b := after(a, generated(t, gname, 16, 3, 43), gap)
			label := fmt.Sprintf("%s gap=%v", gname, gap)
			checkUnion(t, label, []*job.Instance{a, b})
			checkUnion(t, label+" raw", []*job.Instance{a, b}, withContraction(false))
		}
	}
}

// A diurnal trace separates by design: its solve must be the
// speed-merge of its components' solves.
func TestDecomposedMatchesMonolithicDiurnal(t *testing.T) {
	in, err := workload.Diurnal(workload.Spec{N: 256, M: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var parts []*job.Instance
	for _, c := range components(in) {
		parts = append(parts, subInstance(in, c))
	}
	if len(parts) < 2 {
		t.Fatalf("%d components, want several", len(parts))
	}
	checkSplit(t, "diurnal", in, parts)
	checkSplit(t, "diurnal raw", in, parts, withContraction(false))
}

// dyadic rounds every time and work of in to a multiple of 1/8, so that
// a copy shifted by a power of two has bit-equal interval lengths and
// every sum over it is exact.
func dyadic(in *job.Instance) *job.Instance {
	out := &job.Instance{M: in.M}
	for _, j := range in.Jobs {
		j.Release = math.Round(j.Release*8) / 8
		j.Deadline = max(math.Round(j.Deadline*8)/8, j.Release+0.125)
		j.Work = max(math.Round(j.Work*8)/8, 0.125)
		out.Jobs = append(out.Jobs, j)
	}
	return out
}

// The exact engine on the same unions; then a part and its copy shifted
// by 128 on dyadic times, whose phases tie bit for bit on both engines:
// every phase of the union must coalesce the two copies.
func TestDecomposedMatchesMonolithicExact(t *testing.T) {
	for _, gap := range []float64{0, 10} {
		a := generated(t, "bursty", 8, 2, 7)
		b := after(a, generated(t, "bursty", 8, 2, 8), gap)
		label := fmt.Sprintf("exact gap=%v", gap)
		checkUnion(t, label, []*job.Instance{a, b}, Exact())
		checkUnion(t, label+" raw", []*job.Instance{a, b}, Exact(), withContraction(false))
	}
	for _, gname := range []string{"slotted", "bursty", "uniform"} {
		a := dyadic(generated(t, gname, 12, 2, 3))
		twin := []*job.Instance{a, shifted(a, 128, 100000)}
		for _, opts := range [][]Option{nil, {Exact()}} {
			alone, err := Schedule(a, opts...)
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("%s twin exact=%v", gname, len(opts) > 0)
			got := checkUnion(t, label, twin, opts...)
			if len(got.Phases) != len(alone.Phases) {
				t.Fatalf("%s: %d phases, want the part's %d coalesced", label, len(got.Phases), len(alone.Phases))
			}
			for i, ph := range got.Phases {
				if len(ph.JobIDs) != 2*len(alone.Phases[i].JobIDs) {
					t.Errorf("%s: phase %d holds %d jobs, want both copies of %d", label, i, len(ph.JobIDs), len(alone.Phases[i].JobIDs))
				}
			}
		}
	}
}

// Two touching blocks of identical jobs, with every quantity exactly
// representable: one phase at speed 2 holding all four jobs.
func TestDecomposeCoalescesEqualSpeeds(t *testing.T) {
	in := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 0, Deadline: 4, Work: 8},
		{ID: 3, Release: 8, Deadline: 12, Work: 8},
		{ID: 4, Release: 8, Deadline: 12, Work: 8},
	}}
	res := checkUnion(t, "coalesce", []*job.Instance{subInstance(in, []int{0, 1}), subInstance(in, []int{2, 3})})
	if len(res.Phases) != 1 || res.Phases[0].Speed != 2 ||
		!slices.Equal(res.Phases[0].JobIDs, []int{1, 2, 3, 4}) || !slices.Equal(res.Phases[0].Procs, []int{2, 0, 2}) {
		t.Fatalf("phases %+v, want one at speed 2 with jobs [1 2 3 4] on [2 0 2] processors", res.Phases)
	}
}

// The property sweep: 200 random unions of two to five generated parts,
// half of them touching, on the float engine contracted and raw, every
// tenth also on the exact engine.
func TestDecomposeProperty(t *testing.T) {
	trials := 200
	if testing.Short() {
		trials = 40
	}
	gens := []string{"uniform", "bursty", "tight", "slotted", "poisson"}
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < trials; trial++ {
		gname := gens[rng.Intn(len(gens))]
		k := 2 + rng.Intn(4)
		n := 4 + rng.Intn(13)
		m := 1 + rng.Intn(4)
		gap := float64(rng.Intn(2)) * 10
		seed := rng.Int63n(1 << 30)
		parts := []*job.Instance{generated(t, gname, n, m, seed)}
		for c := 1; c < k; c++ {
			next := after(parts[c-1], generated(t, gname, n, m, seed+int64(c)), gap)
			parts = append(parts, shifted(next, 0, 100000*(c-1)))
		}
		label := fmt.Sprintf("trial %d (%s k=%d n=%d m=%d seed=%d gap=%v)", trial, gname, k, n, m, seed, gap)
		checkUnion(t, label, parts)
		checkUnion(t, label+" raw", parts, withContraction(false))
		if trial%10 == 0 {
			checkUnion(t, label+" exact", parts, Exact())
		}
	}
}

// Job 3 on [0, 2) and job 2 on [2, 4.666666666666667) touch at 2, both
// at speed 3/4: 1.5/2 rounds to exactly 0.75, 2/2.666666666666667 to
// 0.7499999999999999. A solve of the whole instance as one block accepts
// {2, 3} as one phase at the rounded joint density 0.75; the exact
// engine keeps them apart. Split at their gap, the float solve keeps
// them apart too, as the exact engine does. (The fuzz corpus keeps the
// instance as FuzzSolvePipeline's seed decompose-ulp-tie.)
func TestTimeGapTieFollowsExactPartition(t *testing.T) {
	in := mustInstance(t, 2, []job.Job{
		{ID: 1, Release: -97, Deadline: -77.33333333333333, Work: 38},
		{ID: 2, Release: 2, Deadline: 4.666666666666667, Work: 2},
		{ID: 3, Release: 0, Deadline: 2, Work: 1.5},
	})
	float, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Schedule(in, Exact())
	if err != nil {
		t.Fatal(err)
	}
	if d := phaseDiff(float, exact); d != "" {
		t.Fatalf("float and exact phases differ: %s", d)
	}
	want := [][]int{{1}, {3}, {2}}
	for i, ph := range float.Phases {
		if i >= len(want) || !slices.Equal(ph.JobIDs, want[i]) {
			t.Fatalf("phases %+v, want job sets %v", float.Phases, want)
		}
	}
	if len(float.Phases) != len(want) || float.Phases[1].Speed != 0.75 || float.Phases[2].Speed != 0.7499999999999999 {
		t.Fatalf("phases %+v, want speeds 0.75 and 0.7499999999999999 for jobs 3 and 2", float.Phases)
	}
	if err := cert.Check(float.Schedule, in); err != nil {
		t.Fatal(err)
	}
}
