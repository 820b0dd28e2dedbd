package schedule

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mpss/internal/job"
	"mpss/internal/power"
)

func mustInstance(t *testing.T, m int, jobs []job.Job) *job.Instance {
	t.Helper()
	in, err := job.NewInstance(m, jobs)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestAddDropsDegenerate(t *testing.T) {
	s := New(1)
	s.Add(Segment{Proc: 0, Start: 1, End: 1, JobID: 1, Speed: 2}) // zero length
	s.Add(Segment{Proc: 0, Start: 2, End: 1, JobID: 1, Speed: 2}) // negative
	s.Add(Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 0}) // zero speed
	s.Add(Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 1}) // kept
	if len(s.Segments) != 1 {
		t.Errorf("got %d segments, want 1", len(s.Segments))
	}
}

func TestNormalizeMerges(t *testing.T) {
	s := New(1)
	s.Add(Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 2})
	s.Add(Segment{Proc: 0, Start: 1, End: 2, JobID: 1, Speed: 2})
	s.Add(Segment{Proc: 0, Start: 2, End: 3, JobID: 2, Speed: 2})
	s.Normalize()
	if len(s.Segments) != 2 {
		t.Fatalf("got %d segments after merge, want 2", len(s.Segments))
	}
	if s.Segments[0].End != 2 {
		t.Errorf("merged segment end = %v, want 2", s.Segments[0].End)
	}
}

func TestEnergy(t *testing.T) {
	p := power.MustAlpha(2)
	s := New(2)
	s.Add(Segment{Proc: 0, Start: 0, End: 2, JobID: 1, Speed: 3}) // 9*2 = 18
	s.Add(Segment{Proc: 1, Start: 0, End: 1, JobID: 2, Speed: 2}) // 4*1 = 4
	if got := s.Energy(p); math.Abs(got-22) > 1e-12 {
		t.Errorf("Energy = %v, want 22", got)
	}
}

func TestWorkAccounting(t *testing.T) {
	s := New(1)
	s.Add(Segment{Proc: 0, Start: 0, End: 2, JobID: 7, Speed: 3})
	s.Add(Segment{Proc: 0, Start: 4, End: 5, JobID: 7, Speed: 1})
	w := s.WorkByJob()
	if math.Abs(w[7]-7) > 1e-12 {
		t.Errorf("WorkByJob = %v, want 7", w[7])
	}
	if got := s.CompletedWork(7, 1, 4.5); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("CompletedWork = %v, want 3.5", got)
	}
	if got := s.CompletedWork(99, 0, 10); got != 0 {
		t.Errorf("CompletedWork(unknown) = %v", got)
	}
}

func TestSpeedsAt(t *testing.T) {
	s := New(2)
	s.Add(Segment{Proc: 0, Start: 0, End: 2, JobID: 1, Speed: 3})
	s.Add(Segment{Proc: 1, Start: 1, End: 3, JobID: 2, Speed: 5})
	sp := s.SpeedsAt(1.5)
	if sp[0] != 3 || sp[1] != 5 {
		t.Errorf("SpeedsAt(1.5) = %v", sp)
	}
	if got := s.MinSpeedAt(0.5); got != 0 {
		t.Errorf("MinSpeedAt(0.5) = %v, want 0 (P1 idle)", got)
	}
	if got := s.MinSpeedAt(1.5); got != 3 {
		t.Errorf("MinSpeedAt(1.5) = %v, want 3", got)
	}
}

func TestDistinctAndJobSpeeds(t *testing.T) {
	s := New(2)
	s.Add(Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 2})
	s.Add(Segment{Proc: 0, Start: 1, End: 2, JobID: 2, Speed: 2 + 1e-12})
	s.Add(Segment{Proc: 1, Start: 0, End: 1, JobID: 3, Speed: 5})
	ds := s.DistinctSpeeds(1e-9)
	if len(ds) != 2 || ds[0] != 5 {
		t.Errorf("DistinctSpeeds = %v", ds)
	}
	js := s.JobSpeeds(1e-9)
	if len(js[1]) != 1 || js[1][0] != 2 {
		t.Errorf("JobSpeeds[1] = %v", js[1])
	}
}

func TestSpanAndClip(t *testing.T) {
	s := New(1)
	s.Add(Segment{Proc: 0, Start: 1, End: 3, JobID: 1, Speed: 1})
	s.Add(Segment{Proc: 0, Start: 5, End: 6, JobID: 2, Speed: 1})
	a, b := s.Span()
	if a != 1 || b != 6 {
		t.Errorf("Span = %v,%v", a, b)
	}
	c := s.Clip(2, 5.5)
	if len(c.Segments) != 2 {
		t.Fatalf("Clip kept %d segments", len(c.Segments))
	}
	if c.Segments[0].Start != 2 || c.Segments[1].End != 5.5 {
		t.Errorf("Clip = %v", c.Segments)
	}
	empty := New(1)
	if x, y := empty.Span(); x != 0 || y != 0 {
		t.Errorf("empty Span = %v,%v", x, y)
	}
}

func TestVerifyAcceptsFeasible(t *testing.T) {
	in := mustInstance(t, 2, []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 4},
		{ID: 2, Release: 0, Deadline: 2, Work: 2},
	})
	s := New(2)
	s.Add(Segment{Proc: 0, Start: 0, End: 4, JobID: 1, Speed: 1})
	s.Add(Segment{Proc: 1, Start: 0, End: 2, JobID: 2, Speed: 1})
	if err := s.Verify(in); err != nil {
		t.Errorf("feasible schedule rejected: %v", err)
	}
}

func TestVerifyRejections(t *testing.T) {
	in := mustInstance(t, 2, []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 4},
		{ID: 2, Release: 1, Deadline: 3, Work: 2},
	})
	cases := []struct {
		name string
		segs []Segment
	}{
		{"window escape", []Segment{
			{Proc: 0, Start: 0, End: 4, JobID: 1, Speed: 1},
			{Proc: 1, Start: 0, End: 2, JobID: 2, Speed: 1}, // starts before release
		}},
		{"processor overlap", []Segment{
			{Proc: 0, Start: 0, End: 4, JobID: 1, Speed: 1},
			{Proc: 0, Start: 1, End: 3, JobID: 2, Speed: 1},
		}},
		{"parallel self-execution", []Segment{
			{Proc: 0, Start: 0, End: 2, JobID: 1, Speed: 1},
			{Proc: 1, Start: 1, End: 3, JobID: 1, Speed: 1},
			{Proc: 1, Start: 1, End: 3, JobID: 2, Speed: 1},
		}},
		{"under-completion", []Segment{
			{Proc: 0, Start: 0, End: 2, JobID: 1, Speed: 1},
			{Proc: 1, Start: 1, End: 3, JobID: 2, Speed: 1},
		}},
		{"unknown job", []Segment{
			{Proc: 0, Start: 0, End: 4, JobID: 9, Speed: 1},
		}},
		{"bad processor", []Segment{
			{Proc: 5, Start: 0, End: 4, JobID: 1, Speed: 1},
		}},
	}
	for _, c := range cases {
		s := New(2)
		s.Segments = c.segs
		if err := s.Verify(in); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func TestVerifyPartialWork(t *testing.T) {
	in := mustInstance(t, 1, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 4}})
	s := New(1)
	s.Add(Segment{Proc: 0, Start: 0, End: 1, JobID: 1, Speed: 1})
	if err := s.Verify(in); err == nil {
		t.Error("partial schedule accepted without AllowPartialWork")
	}
	if err := s.Verify(in, AllowPartialWork()); err != nil {
		t.Errorf("partial schedule rejected with AllowPartialWork: %v", err)
	}
}

func TestVerifyMMismatch(t *testing.T) {
	in := mustInstance(t, 2, []job.Job{{ID: 1, Release: 0, Deadline: 4, Work: 4}})
	s := New(3)
	if err := s.Verify(in); err == nil {
		t.Error("m mismatch accepted")
	}
}

func TestWrapAroundSimple(t *testing.T) {
	segs, err := WrapAround(nil, 0, 2, []int{0, 1}, []Piece{
		{JobID: 1, Duration: 2, Speed: 3},
		{JobID: 2, Duration: 1, Speed: 3},
		{JobID: 3, Duration: 1, Speed: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range segs {
		total += s.Len()
	}
	if math.Abs(total-4) > 1e-9 {
		t.Errorf("total packed time = %v, want 4", total)
	}
}

func TestWrapAroundSplitNoOverlap(t *testing.T) {
	// Piece of job 2 must split across processors without self-overlap.
	segs, err := WrapAround(nil, 0, 2, []int{0, 1}, []Piece{
		{JobID: 1, Duration: 1.5, Speed: 1},
		{JobID: 2, Duration: 1.5, Speed: 1},
		{JobID: 3, Duration: 1, Speed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var j2 []Segment
	for _, s := range segs {
		if s.JobID == 2 {
			j2 = append(j2, s)
		}
	}
	if len(j2) != 2 {
		t.Fatalf("job 2 in %d segments, want 2 (split)", len(j2))
	}
	sort.Slice(j2, func(a, b int) bool { return j2[a].Start < j2[b].Start })
	if j2[0].End > j2[1].Start+1e-12 && j2[0].Proc == j2[1].Proc {
		t.Error("split pieces overlap on one processor")
	}
	// Real-time overlap check across processors.
	if j2[0].Start < j2[1].End && j2[1].Start < j2[0].End {
		t.Errorf("job 2 runs in parallel: %v vs %v", j2[0], j2[1])
	}
}

func TestWrapAroundErrors(t *testing.T) {
	if _, err := WrapAround(nil, 2, 2, []int{0}, nil); err == nil {
		t.Error("empty interval accepted")
	}
	if _, err := WrapAround(nil, 0, 1, []int{0}, []Piece{{JobID: 1, Duration: 2, Speed: 1}}); err == nil {
		t.Error("oversized piece accepted")
	}
	if _, err := WrapAround(nil, 0, 1, []int{0}, []Piece{
		{JobID: 1, Duration: 1, Speed: 1},
		{JobID: 2, Duration: 0.5, Speed: 1},
	}); err == nil {
		t.Error("over-capacity packing accepted")
	}
	if _, err := WrapAround(nil, 0, 1, []int{0}, []Piece{{JobID: 1, Duration: -1, Speed: 1}}); err == nil {
		t.Error("negative duration accepted")
	}
}

// WrapAround appends to dst, leaves out what Schedule.Add would drop, and
// hands dst back at its original length when packing fails.
func TestWrapAroundAppendsToDst(t *testing.T) {
	prefix := Segment{Proc: 7, Start: -1, End: 0, JobID: 9, Speed: 1}
	segs, err := WrapAround([]Segment{prefix}, 0, 2, []int{0, 1}, []Piece{
		{JobID: 1, Duration: 1.5, Speed: 2},
		{JobID: 2, Duration: 1, Speed: 0}, // zero speed: dropped
		{JobID: 3, Duration: 1, Speed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) == 0 || segs[0] != prefix {
		t.Fatalf("prefix lost: %v", segs)
	}
	want := New(2)
	for _, seg := range segs[1:] {
		if seg.JobID == 2 {
			t.Errorf("zero-speed segment %v kept", seg)
		}
		want.Add(seg)
	}
	if len(want.Segments) != len(segs)-1 {
		t.Errorf("kept %d segments Add would drop", len(segs)-1-len(want.Segments))
	}
	// Job 2's dropped time still occupies the timeline: job 3 starts
	// after it on processor 1.
	if last := segs[len(segs)-1]; last.JobID != 3 || last.Proc != 1 || last.Start != 0.5 {
		t.Errorf("job 3 packed at %v, want P1 from 0.5", last)
	}

	dst := []Segment{prefix}
	got, err := WrapAround(dst, 0, 1, []int{0}, []Piece{
		{JobID: 1, Duration: 1, Speed: 1},
		{JobID: 2, Duration: 0.5, Speed: 1},
	})
	if err == nil || len(got) != 1 || got[0] != prefix {
		t.Errorf("failed packing returned %v, %v; want the unchanged dst and an error", got, err)
	}
}

// Normalize's comparator must order segments exactly as the sort.Slice
// less function it replaced: same pdqsort, so the same permutation, ties
// and NaNs included. JobID tags each segment to expose the permutation.
func TestNormalizeSortMatchesSortSlice(t *testing.T) {
	less := func(x, y Segment) bool {
		if x.Proc != y.Proc {
			return x.Proc < y.Proc
		}
		if x.Start != y.Start {
			return x.Start < y.Start
		}
		return x.End < y.End
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(400)
		segs := make([]Segment, n)
		for i := range segs {
			segs[i] = Segment{
				Proc:  rng.Intn(3),
				Start: float64(rng.Intn(5)),
				End:   float64(rng.Intn(5)),
				JobID: i,
			}
			if rng.Intn(50) == 0 {
				segs[i].Start = math.NaN()
			}
			if rng.Intn(50) == 0 {
				segs[i].End = math.NaN()
			}
		}
		want := append([]Segment(nil), segs...)
		sort.Slice(want, func(a, b int) bool { return less(want[a], want[b]) })
		slices.SortFunc(segs, CompareSegments)
		for i := range segs {
			if segs[i].JobID != want[i].JobID {
				t.Fatalf("trial %d (n=%d): position %d holds segment %d, sort.Slice put %d there",
					trial, n, i, segs[i].JobID, want[i].JobID)
			}
		}
	}
}

func TestGantt(t *testing.T) {
	s := New(2)
	s.Add(Segment{Proc: 0, Start: 0, End: 2, JobID: 1, Speed: 1})
	s.Add(Segment{Proc: 1, Start: 1, End: 3, JobID: 2, Speed: 1})
	out := s.Gantt(30)
	if !strings.Contains(out, "P0") || !strings.Contains(out, "P1") {
		t.Errorf("Gantt missing rows:\n%s", out)
	}
	if !strings.Contains(out, "1") || !strings.Contains(out, "2") {
		t.Errorf("Gantt missing job marks:\n%s", out)
	}
	if got := New(1).Gantt(30); !strings.Contains(got, "empty") {
		t.Errorf("empty Gantt = %q", got)
	}
}

// Property: WrapAround preserves total duration per job, keeps every
// segment inside the interval, never overlaps a processor with itself, and
// never runs a job in parallel with itself.
func TestWrapAroundProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		length := 0.5 + rng.Float64()*3
		nproc := 1 + rng.Intn(4)
		procs := make([]int, nproc)
		for i := range procs {
			procs[i] = i
		}
		// Generate pieces filling at most the capacity.
		capacity := float64(nproc) * length
		var pieces []Piece
		used := 0.0
		for id := 1; id <= 10 && used < capacity-1e-9; id++ {
			d := rng.Float64() * length
			if used+d > capacity {
				d = capacity - used
			}
			pieces = append(pieces, Piece{JobID: id, Duration: d, Speed: 1 + rng.Float64()})
			used += d
		}
		segs, err := WrapAround(nil, 10, 10+length, procs, pieces)
		if err != nil {
			return false
		}
		perJob := make(map[int]float64)
		perJobSegs := make(map[int][]Segment)
		perProc := make(map[int][]Segment)
		for _, s := range segs {
			if s.Start < 10-1e-9 || s.End > 10+length+1e-9 {
				return false
			}
			perJob[s.JobID] += s.Len()
			perJobSegs[s.JobID] = append(perJobSegs[s.JobID], s)
			perProc[s.Proc] = append(perProc[s.Proc], s)
		}
		for _, p := range pieces {
			if math.Abs(perJob[p.JobID]-p.Duration) > 1e-9 {
				return false
			}
		}
		noOverlap := func(list []Segment) bool {
			sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
			for i := 1; i < len(list); i++ {
				if list[i].Start < list[i-1].End-1e-9 {
					return false
				}
			}
			return true
		}
		for _, list := range perProc {
			if !noOverlap(list) {
				return false
			}
		}
		for _, list := range perJobSegs {
			if !noOverlap(list) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
