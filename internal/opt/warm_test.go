package opt

import (
	"testing"

	"mpss/internal/obs"
	"mpss/internal/workload"
)

// The incremental warm-started engine must be invisible in the output:
// identical phase structure, bit-identical phase speeds, and
// bit-identical schedule segments compared to a cold solve that rebuilds
// the flow network every round. The engine guarantees this by re-setting
// absolute capacities (never rescaling floats multiplicatively) and by
// canonicalizing accepted phases with a from-zero re-solve on the warm
// network, whose zero-capacity removed edges are invisible to Dinic.
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

// The whole point of the warm engine: the flow network is built once per
// phase, not once per round. Rejected rounds mutate it in place.
func TestWarmBuildsOncePerPhase(t *testing.T) {
	in, err := workload.Bursty(workload.Spec{N: 32, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	res, err := Schedule(in, WithRecorder(rec))
	if err != nil {
		t.Fatal(err)
	}
	snap := rec.Snapshot()
	rebuilds := snap.Counters["opt.graph_rebuilds"]
	phases := snap.Counters["opt.phases"]
	rounds := snap.Counters["opt.rounds"]
	if phases != int64(len(res.Phases)) {
		t.Fatalf("opt.phases=%d, result has %d phases", phases, len(res.Phases))
	}
	if rebuilds > phases {
		t.Fatalf("opt.graph_rebuilds=%d exceeds opt.phases=%d (rounds=%d)",
			rebuilds, phases, rounds)
	}
	if rounds > phases && snap.Counters["flow.warm_hits"] == 0 {
		t.Fatalf("rounds=%d > phases=%d but no flow.warm_hits recorded", rounds, phases)
	}

	// A cold solve of the same instance rebuilds once per round.
	rec2 := obs.New()
	if _, err := Schedule(in, WithRecorder(rec2), ColdStart()); err != nil {
		t.Fatal(err)
	}
	snap2 := rec2.Snapshot()
	if got := snap2.Counters["opt.graph_rebuilds"]; got != snap2.Counters["opt.rounds"] {
		t.Fatalf("cold solve: graph_rebuilds=%d, want one per round (%d)",
			got, snap2.Counters["opt.rounds"])
	}
	if snap2.Counters["flow.warm_hits"] != 0 {
		t.Fatalf("cold solve recorded %d warm hits", snap2.Counters["flow.warm_hits"])
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
