package opt

import (
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// The in-place round engine must be invisible in the output: identical
// phase structure, bit-identical phase speeds, and bit-identical
// schedule segments compared to a cold solve that rebuilds the flow
// network every round. The engine guarantees this by re-setting
// absolute capacities (never rescaling floats multiplicatively) and by
// solving every round from zero on a network whose zero-capacity
// removed edges are invisible to Dinic.
func TestWarmMatchesColdExactly(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Schedule(in)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Schedule(in, ColdStart())
		if err != nil {
			t.Fatal(err)
		}
		comparePhases(t, seed, warm, cold)
	}
}

// Same comparison for the exact rational engine, whose warm path uses
// multiplicative source rescaling (exact over rationals).
func TestWarmMatchesColdExact(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 12, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		warm, err := Schedule(in, Exact())
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Schedule(in, Exact(), ColdStart())
		if err != nil {
			t.Fatal(err)
		}
		comparePhases(t, seed, warm, cold)
	}
}

func comparePhases(t *testing.T, seed int64, warm, cold *Result) {
	t.Helper()
	if d := resultDiff(warm, cold); d != "" {
		t.Fatalf("seed %d: %s", seed, d)
	}
}

// The network is built once per phase, not once per round: a rejected
// round resets the flow in place and the next round solves from zero on
// the same network. There is no warm flow left on the float path, every
// solve is a round or an emission re-solve of a contracted phase, and
// the augmentation sequence is the cold path's, path for path and level
// graph for level graph.
func TestRoundsSolveFromZeroInPlace(t *testing.T) {
	for _, gen := range []func(workload.Spec) (*job.Instance, error){workload.Bursty, workload.Diurnal} {
		for _, contract := range []bool{true, false} {
			in, err := gen(workload.Spec{N: 32, M: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			solve := func(opts ...Option) (*Result, map[string]int64) {
				rec := obs.New()
				res, err := Schedule(in, append(opts, WithRecorder(rec), WithContraction(contract))...)
				if err != nil {
					t.Fatal(err)
				}
				return res, rec.Snapshot().Counters
			}
			res, c := solve()
			phases, rounds := c["opt.phases"], c["opt.rounds"]
			if phases != int64(len(res.Phases)) || rounds <= phases {
				t.Fatalf("contract=%v: opt.phases=%d for %d phases, opt.rounds=%d: want a rejected round",
					contract, phases, len(res.Phases), rounds)
			}
			if c["opt.graph_rebuilds"] > phases {
				t.Errorf("contract=%v: opt.graph_rebuilds=%d exceeds opt.phases=%d", contract, c["opt.graph_rebuilds"], phases)
			}
			if c["flow.warm_hits"] != 0 {
				t.Errorf("contract=%v: %d warm hits on the float path", contract, c["flow.warm_hits"])
			}
			if want := rounds + c["opt.emit_rebuilds"]; c["flow.solves"] != want {
				t.Errorf("contract=%v: flow.solves=%d, want rounds + emit_rebuilds = %d", contract, c["flow.solves"], want)
			}

			// The cold path rebuilds every round and finds the same paths.
			_, cc := solve(ColdStart())
			if cc["opt.graph_rebuilds"] != cc["opt.rounds"] || cc["flow.warm_hits"] != 0 {
				t.Errorf("contract=%v: cold graph_rebuilds=%d warm_hits=%d, want one rebuild per round (%d) and none",
					contract, cc["opt.graph_rebuilds"], cc["flow.warm_hits"], cc["opt.rounds"])
			}
			for _, k := range []string{"opt.rounds", "flow.solves", "flow.dinic.aug_paths", "flow.dinic.bfs_passes"} {
				if c[k] != cc[k] {
					t.Errorf("contract=%v: %s = %d, cold %d", contract, k, c[k], cc[k])
				}
			}
		}
	}
}

// Phase 1 starts from every job; every later phase starts from the block
// of jobs the most recent rejected round excluded. Each candidate is
// either removed by a rejected round or saturated in the phase, so per
// phase span jobs_removed + jobs_saturated = candidates. Every removed
// job is pushed as a candidate of exactly one later phase, so over the
// solve sum_i candidates_i = n + opt.jobs_removed. A rejected round that
// excludes several jobs must count each of them.
func TestJobsRemovedCountsEveryJob(t *testing.T) {
	in, err := workload.Bursty(workload.Spec{N: 48, M: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for name, opts := range map[string][]Option{
		"warm":  nil,
		"cold":  {ColdStart()},
		"exact": {Exact()},
	} {
		rec := obs.New()
		res, err := Schedule(in, append(opts, WithRecorder(rec))...)
		if err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		if len(snap.Trace) != len(res.Phases) {
			t.Fatalf("%s: %d phase spans for %d phases", name, len(snap.Trace), len(res.Phases))
		}
		if got := snap.Trace[0].Counters["candidates"]; got != int64(in.N()) {
			t.Errorf("%s phase 1: candidates = %d, want every job (%d)", name, got, in.N())
		}
		var candidates int64
		for i, sp := range snap.Trace {
			c := sp.Counters
			if c["jobs_saturated"] != int64(len(res.Phases[i].JobIDs)) ||
				c["jobs_removed"]+c["jobs_saturated"] != c["candidates"] {
				t.Errorf("%s phase %d: span counters %v, want candidates = jobs_removed + jobs_saturated=%d",
					name, i+1, c, len(res.Phases[i].JobIDs))
			}
			candidates += c["candidates"]
		}
		removed := snap.Counters["opt.jobs_removed"]
		if candidates != int64(in.N())+removed {
			t.Errorf("%s: sum of candidates %d != n %d + opt.jobs_removed %d", name, candidates, in.N(), removed)
		}
		if rejecting := int64(res.Stats.Rounds - res.Stats.Phases); rejecting >= removed {
			t.Errorf("%s: %d rejecting rounds for %d removed jobs: no round excluded more than one job",
				name, rejecting, removed)
		}
	}
}
