package opt

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"mpss/internal/flow"
	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// Windowed decomposition must be invisible in the output: cutting the
// instance at zero-active boundaries, solving the components separately
// and merging must reproduce the monolithic solve bit for bit — phase
// structure, speeds, processor reservations and every schedule segment.
// These differential tests pin that across the three engines and both
// contraction settings; TestDecomposeProperty is the 200-instance
// property sweep the ISSUE asks for.

// clusteredInstance builds a separable instance: k generator-made
// clusters shifted to disjoint time ranges (gap > 0 leaves idle time
// between clusters; gap == 0 makes windows touch exactly at the cuts,
// the boundary case the sweep must still separate).
func clusteredInstance(t *testing.T, gname string, k, n, m int, seed int64, gap float64) *job.Instance {
	t.Helper()
	gen, err := workload.ByName(gname)
	if err != nil {
		t.Fatal(err)
	}
	in := &job.Instance{M: m}
	for c := 0; c < k; c++ {
		sub, err := gen.Make(workload.Spec{N: n, M: m, Seed: seed + int64(c), Horizon: 100})
		if err != nil {
			t.Fatal(err)
		}
		// Clusters are laid end to end; generators keep windows inside
		// [0, horizon], so offset multiples of horizon+gap cannot overlap.
		off := float64(c) * (100 + gap)
		for _, j := range sub.Jobs {
			in.Jobs = append(in.Jobs, job.Job{
				ID:       j.ID + c*100000,
				Release:  j.Release + off,
				Deadline: j.Deadline + off,
				Work:     j.Work,
			})
		}
	}
	return in
}

func diffDecompose(t *testing.T, seed int64, in *job.Instance, extra ...Option) {
	t.Helper()
	mono, err := Schedule(in, extra...)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := Schedule(in, append(extra, WithDecomposition(true))...)
	if err != nil {
		t.Fatal(err)
	}
	comparePhases(t, seed, mono, dec)
}

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
		// the boundary is still a cut (deadlines sweep before releases).
		{"touching", []job.Job{j(0, 2), j(2, 4)}, [][]int{{0}, {1}}},
		{"crossing", []job.Job{j(0, 3), j(2, 4)}, [][]int{{0, 1}}},
		// Input order need not follow time order; each group must still
		// keep the input-relative order of its members.
		{"interleaved", []job.Job{j(5, 7), j(0, 2), j(6, 8), j(1, 3)},
			[][]int{{1, 3}, {0, 2}}},
		{"nested", []job.Job{j(0, 10), j(2, 4), j(12, 14)}, [][]int{{0, 1}, {2}}},
		{"three", []job.Job{j(0, 1), j(1, 2), j(3, 4)}, [][]int{{0}, {1}, {2}}},
	}
	for _, tc := range cases {
		got := componentRanges(tc.jobs)
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %d components, want %d (%v)", tc.name, len(got), len(tc.want), got)
		}
		for c := range got {
			if len(got[c]) != len(tc.want[c]) {
				t.Fatalf("%s: component %d = %v, want %v", tc.name, c, got[c], tc.want[c])
			}
			for i := range got[c] {
				if got[c][i] != tc.want[c][i] {
					t.Fatalf("%s: component %d = %v, want %v", tc.name, c, got[c], tc.want[c])
				}
			}
		}
	}
	if got := componentRanges(nil); got != nil {
		t.Fatalf("nil jobs: got %v", got)
	}
}

func TestDecomposedMatchesMonolithic(t *testing.T) {
	for _, gname := range []string{"bursty", "tight", "slotted"} {
		for _, gap := range []float64{0, 25} {
			in := clusteredInstance(t, gname, 3, 16, 3, 42, gap)
			diffDecompose(t, 42, in)
			diffDecompose(t, 42, in, withContraction(false))
		}
	}
}

// The trace generator's whole design goal is separability; the solve of
// a diurnal trace must decompose bit-exactly without any clustering
// scaffolding around it.
func TestDecomposedMatchesMonolithicDiurnal(t *testing.T) {
	in, err := workload.Diurnal(workload.Spec{N: 256, M: 4, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	diffDecompose(t, 17, in)
	diffDecompose(t, 17, in, withContraction(false))
}

func TestDecomposedMatchesMonolithicExact(t *testing.T) {
	in := clusteredInstance(t, "bursty", 3, 8, 2, 7, 0)
	diffDecompose(t, 7, in, Exact())
	diffDecompose(t, 7, in, Exact(), withContraction(false))
	// Identical clusters force bit-equal phase speeds across components;
	// the merge must coalesce them into the single phase the monolithic
	// solve produces. Exact arithmetic makes the equality certain.
	twin := &job.Instance{M: 2}
	base := clusteredInstance(t, "slotted", 1, 8, 2, 3, 0)
	for c := 0; c < 2; c++ {
		for _, j := range base.Jobs {
			j.ID += c * 100000
			j.Release += float64(c) * 128
			j.Deadline += float64(c) * 128
			twin.Jobs = append(twin.Jobs, j)
		}
	}
	diffDecompose(t, 3, twin, Exact())
}

// Equal-speed coalescing on the float path, with values chosen so every
// intermediate quantity is exactly representable: two touching blocks of
// identical jobs produce bit-equal phase speeds, and the monolithic
// solve accepts their union as one phase at the same exact speed.
func TestDecomposeCoalescesEqualSpeeds(t *testing.T) {
	in := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 0, Deadline: 4, Work: 8},
		{ID: 3, Release: 8, Deadline: 12, Work: 8},
		{ID: 4, Release: 8, Deadline: 12, Work: 8},
	}}
	dec, err := Schedule(in, WithDecomposition(true))
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.Phases) != 1 {
		t.Fatalf("want 1 coalesced phase, got %d: %+v", len(dec.Phases), dec.Phases)
	}
	if dec.Phases[0].Speed != 2.0 {
		t.Fatalf("coalesced speed = %v, want 2", dec.Phases[0].Speed)
	}
	diffDecompose(t, 1, in)
}

// The property sweep: 200 random separable instances, decomposed vs
// monolithic bit-exact on the float engines with and without
// contraction (the exact engine joins at a lower trial count — it is
// orders of magnitude slower and covered above).
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
		gap := float64(rng.Intn(2)) * 10 // half the trials touch at the cut
		seed := rng.Int63n(1 << 30)
		in := clusteredInstance(t, gname, k, n, m, seed, gap)
		opts := [][]Option{nil, {withContraction(false)}}
		if trial%10 == 0 {
			opts = append(opts, []Option{Exact()})
		}
		for _, extra := range opts {
			diffDecompose(t, seed, in, extra...)
		}
	}
}

// A decomposed solve over the worker pool must match at any worker
// count: the merge is deterministic regardless of completion order.
func TestDecomposeParallelWorkers(t *testing.T) {
	in := clusteredInstance(t, "bursty", 5, 12, 3, 11, 0)
	mono, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		dec, err := Schedule(in, WithDecomposition(true), WithParallelism(workers))
		if err != nil {
			t.Fatal(err)
		}
		comparePhases(t, int64(workers), mono, dec)
	}
}

func TestDecomposeCounters(t *testing.T) {
	in := clusteredInstance(t, "tight", 3, 10, 2, 5, 10)
	rec := obs.New()
	res, err := Schedule(in, WithDecomposition(true), WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Verify(in); err != nil {
		t.Fatal(err)
	}
	if got := rec.Value("opt.components"); got < 3 {
		t.Errorf("opt.components = %d, want >= 3", got)
	}
	if got := rec.Value("opt.decompose_cuts"); got != rec.Value("opt.components")-1 {
		t.Errorf("opt.decompose_cuts = %d, want components-1 = %d",
			got, rec.Value("opt.components")-1)
	}
	if got := rec.Value("opt.component_jobs_max"); got < 1 || got > 10 {
		t.Errorf("opt.component_jobs_max = %d, want in [1,10]", got)
	}

	// A non-separable instance must not pay for (or count) a decomposed
	// dispatch even with the option on.
	rec2 := obs.New()
	single := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 1, Release: 0, Deadline: 10, Work: 5},
		{ID: 2, Release: 5, Deadline: 15, Work: 5},
	}}
	if _, err := Schedule(single, WithDecomposition(true), WithRecorder(rec2)); err != nil {
		t.Fatal(err)
	}
	if got := rec2.Value("opt.components"); got != 0 {
		t.Errorf("opt.components = %d on a single-component instance, want 0", got)
	}
}

// A numeric failure in one component must fall back for that component
// only: the injected violation fires exactly once, so exactly one
// component falls back to the exact engine while the others stay on
// the float path — and the merged result is still bit-identical to the
// monolithic solve's.
func TestDecomposePerComponentFallback(t *testing.T) {
	in := clusteredInstance(t, "bursty", 3, 10, 2, 13, 10)
	mono, err := Schedule(in)
	if err != nil {
		t.Fatal(err)
	}

	var fired atomic.Bool
	testHookRound = func(exact bool) {
		if !exact && fired.CompareAndSwap(false, true) {
			panic(&flow.InvariantViolation{Numeric: true, Msg: "injected: one-component failure"})
		}
	}
	defer func() { testHookRound = nil }()

	rec := obs.New()
	dec, err := Schedule(in, WithDecomposition(true), WithRecorder(rec))
	if err != nil {
		t.Fatalf("per-component fallback should have rescued the solve, got %v", err)
	}
	if got := rec.Value("opt.fallback_exact"); got != 1 {
		t.Errorf("opt.fallback_exact = %d, want 1 (one component)", got)
	}
	testHookRound = nil
	comparePhases(t, 13, mono, dec)
}
