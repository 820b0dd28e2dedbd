package schedule

import (
	"math/rand"
	"sort"
	"testing"

	"mpss/internal/job"
)

// FuzzWrapAround drives the McNaughton packer with fuzzer-chosen piece
// mixes and checks that accepted packings preserve durations and never
// overlap a processor or a job with itself.
func FuzzWrapAround(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(2))
	f.Add(int64(7), uint8(1), uint8(1))
	f.Add(int64(-4), uint8(10), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, rawPieces, rawProcs uint8) {
		rng := rand.New(rand.NewSource(seed))
		nproc := 1 + int(rawProcs%5)
		nPieces := 1 + int(rawPieces%12)
		length := 0.1 + rng.Float64()*5
		procs := make([]int, nproc)
		for i := range procs {
			procs[i] = i
		}
		capacity := float64(nproc) * length
		pieces := make([]Piece, 0, nPieces)
		used := 0.0
		for id := 1; id <= nPieces; id++ {
			d := rng.Float64() * length
			if used+d > capacity {
				d = capacity - used
			}
			if d <= 0 {
				break
			}
			pieces = append(pieces, Piece{JobID: id, Duration: d, Speed: 0.5 + rng.Float64()})
			used += d
		}
		if len(pieces) == 0 {
			return
		}
		start := rng.Float64() * 10
		segs, err := WrapAround(nil, start, start+length, procs, pieces)
		if err != nil {
			t.Fatalf("valid packing rejected: %v", err)
		}
		perJob := map[int]float64{}
		perProc := map[int][]Segment{}
		perJobSegs := map[int][]Segment{}
		for _, s := range segs {
			if s.Start < start-1e-9 || s.End > start+length+1e-9 {
				t.Fatalf("segment %v escapes interval", s)
			}
			perJob[s.JobID] += s.Len()
			perProc[s.Proc] = append(perProc[s.Proc], s)
			perJobSegs[s.JobID] = append(perJobSegs[s.JobID], s)
		}
		for _, p := range pieces {
			if d := perJob[p.JobID] - p.Duration; d > 1e-9 || d < -1e-9 {
				t.Fatalf("job %d packed %v of %v", p.JobID, perJob[p.JobID], p.Duration)
			}
		}
		check := func(kind string, lists map[int][]Segment) {
			for key, list := range lists {
				sort.Slice(list, func(a, b int) bool { return list[a].Start < list[b].Start })
				for i := 1; i < len(list); i++ {
					if list[i].Start < list[i-1].End-1e-9 {
						t.Fatalf("%s %d overlaps: %v then %v", kind, key, list[i-1], list[i])
					}
				}
			}
		}
		check("processor", perProc)
		check("job", perJobSegs)
	})
}

// FuzzVerify feeds the verifier arbitrary segment soups; it must never
// panic and must reject negative-length or out-of-range segments.
func FuzzVerify(f *testing.F) {
	f.Add(int64(1), uint8(4))
	f.Add(int64(2), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, rawSegs uint8) {
		rng := rand.New(rand.NewSource(seed))
		in, err := job.NewInstance(2, []job.Job{
			{ID: 1, Release: 0, Deadline: 5 + rng.Float64()*5, Work: 1 + rng.Float64()},
			{ID: 2, Release: rng.Float64() * 3, Deadline: 11, Work: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		s := New(in.M)
		for i := 0; i < int(rawSegs%12); i++ {
			s.Segments = append(s.Segments, Segment{
				Proc:  rng.Intn(in.M+2) - 1,
				Start: rng.Float64()*12 - 1,
				End:   rng.Float64() * 12,
				JobID: rng.Intn(4),
				Speed: rng.Float64()*4 - 0.5,
			})
		}
		_ = s.Verify(in) // must not panic
		_ = s.ComputeMetrics()
		_ = s.Gantt(20)
	})
}
