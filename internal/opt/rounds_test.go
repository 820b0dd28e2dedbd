package opt

import (
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// comparePhases fails unless two results are bit-identical: phase
// structure, speeds and schedule segments.
func comparePhases(t *testing.T, seed int64, got, want *Result) {
	t.Helper()
	if d := resultDiff(got, want); d != "" {
		t.Fatalf("seed %d: %s", seed, d)
	}
}

// The float network is built once per phase, not once per round: a
// rejected round resets the flow in place and the next round solves from
// zero on the same network. Every solve is a round or an emission re-solve of a
// contracted phase. That each round's flow equals a rebuilt network's,
// bit for bit, is TestBatchExclusionMatchesReference's business.
func TestRoundsSolveFromZeroInPlace(t *testing.T) {
	for _, gen := range []func(workload.Spec) (*job.Instance, error){workload.Bursty, workload.Diurnal} {
		for _, contract := range []bool{true, false} {
			in, err := gen(workload.Spec{N: 32, M: 3, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			rec := obs.New()
			res, err := Schedule(in, WithRecorder(rec), WithContraction(contract))
			if err != nil {
				t.Fatal(err)
			}
			c := rec.Snapshot().Counters
			phases, rounds := c["opt.phases"], c["opt.rounds"]
			if phases != int64(len(res.Phases)) || rounds <= phases {
				t.Fatalf("contract=%v: opt.phases=%d for %d phases, opt.rounds=%d: want a rejected round",
					contract, phases, len(res.Phases), rounds)
			}
			if c["opt.graph_rebuilds"] > phases {
				t.Errorf("contract=%v: opt.graph_rebuilds=%d exceeds opt.phases=%d", contract, c["opt.graph_rebuilds"], phases)
			}
			if want := rounds + c["opt.emit_rebuilds"]; c["flow.solves"] != want {
				t.Errorf("contract=%v: flow.solves=%d, want rounds + emit_rebuilds = %d", contract, c["flow.solves"], want)
			}

			// The exact engine builds a network for every round instead,
			// and still solves nothing but rounds and emission rebuilds.
			rec = obs.New()
			if _, err := Schedule(in, Exact(), WithRecorder(rec), WithContraction(contract)); err != nil {
				t.Fatal(err)
			}
			c = rec.Snapshot().Counters
			if c["opt.graph_rebuilds"] != c["opt.rounds"] {
				t.Errorf("contract=%v exact: opt.graph_rebuilds=%d, want one per round (%d)", contract, c["opt.graph_rebuilds"], c["opt.rounds"])
			}
			if want := c["opt.rounds"] + c["opt.emit_rebuilds"]; c["flow.solves"] != want {
				t.Errorf("contract=%v exact: flow.solves=%d, want rounds + emit_rebuilds = %d", contract, c["flow.solves"], want)
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
		"float": nil,
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
