package opt

import (
	"math/rand"
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// Interval contraction must be invisible in the output: the decisions
// of every round are taken on the contracted network, but accepted
// phases are re-emitted from a raw-shaped solve, so the phase
// structure, the bit pattern of every speed and every schedule segment
// must match the uncontracted path exactly. These differential tests
// pin that across both engines (float, exact rational) and across
// sizes.

func diffSchedule(t *testing.T, seed int64, in *job.Instance, extra ...Option) {
	t.Helper()
	con, err := Schedule(in, extra...)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := Schedule(in, append(extra, WithContraction(false))...)
	if err != nil {
		t.Fatal(err)
	}
	comparePhases(t, seed, con, raw)
}

func TestContractedMatchesRawExactly(t *testing.T) {
	for _, gname := range []string{"bursty", "tight", "slotted"} {
		gen, err := workload.ByName(gname)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{16, 64, 256} {
			if testing.Short() && n > 64 {
				continue
			}
			in, err := gen.Make(workload.Spec{N: n, M: 4, Seed: int64(n)})
			if err != nil {
				t.Fatal(err)
			}
			diffSchedule(t, int64(n), in)
		}
	}
}

func TestContractedMatchesRawExact(t *testing.T) {
	for _, n := range []int{16, 64} {
		in, err := workload.Slotted(workload.Spec{N: n, M: 3, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		diffSchedule(t, int64(n), in, Exact())
	}
}

// Property: contraction never increases the interval count, maps every
// active interval into a valid super-interval, and only merges
// intervals with identical active sets and processor budgets. Random
// byIv/mj inputs exercise the pass directly, without a solver run.
func TestContractionNeverIncreasesIntervals(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		nIv := 1 + rng.Intn(40)
		byIv := make([][]int32, nIv)
		mj := make([]int, nIv)
		for jx := 0; jx < nIv; jx++ {
			if rng.Intn(5) == 0 {
				continue // inactive interval: empty active set, mj 0
			}
			nj := 1 + rng.Intn(3)
			for k := 0; k < nj; k++ {
				byIv[jx] = append(byIv[jx], int32(rng.Intn(4)))
			}
			mj[jx] = 1 + rng.Intn(3)
			if rng.Intn(2) == 0 && jx > 0 {
				// Duplicate the previous interval to create mergeable runs.
				byIv[jx] = append(byIv[jx][:0], byIv[jx-1]...)
				mj[jx] = mj[jx-1]
				if mj[jx] == 0 {
					byIv[jx] = nil
				}
			}
		}
		var c contraction
		rawActive := c.compute(byIv, mj)
		if c.nSup > rawActive {
			t.Fatalf("trial %d: %d super-intervals from %d active intervals", trial, c.nSup, rawActive)
		}
		prev := int32(-1)
		for jx := 0; jx < nIv; jx++ {
			s := c.supOf[jx]
			if mj[jx] == 0 {
				if s != -1 {
					t.Fatalf("trial %d: inactive interval %d mapped to super %d", trial, jx, s)
				}
				continue
			}
			if s < 0 || int(s) >= c.nSup {
				t.Fatalf("trial %d: interval %d mapped outside [0,%d)", trial, jx, c.nSup)
			}
			if s < prev {
				t.Fatalf("trial %d: super mapping not monotone at interval %d", trial, jx)
			}
			head := int(c.supHead[s])
			if !equalInt32(byIv[jx], byIv[head]) || mj[jx] != mj[head] {
				t.Fatalf("trial %d: interval %d merged into run %d with different active set or budget",
					trial, jx, s)
			}
			prev = s
		}
	}
}

// The contraction counters must fire on grid-structured workloads and
// stay self-consistent (contracted <= raw) everywhere.
func TestContractionCounters(t *testing.T) {
	var sawContraction bool
	for _, g := range workload.All() {
		in, err := g.Make(workload.Spec{N: 64, M: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		rec := obs.New()
		if _, err := Schedule(in, WithRecorder(rec)); err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		raw := snap.Counters["opt.intervals_raw"]
		con := snap.Counters["opt.intervals_contracted"]
		if con < 0 || con > raw {
			t.Fatalf("%s: contracted=%d out of range [0,%d]", g.Name, con, raw)
		}
		if con > 0 {
			sawContraction = true
		}
	}
	if !sawContraction {
		t.Fatal("no workload triggered contraction")
	}
}
