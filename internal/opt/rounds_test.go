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

// Every round of both engines builds its network for the round's alive
// candidates and solves it once, from zero; the accepted round's flow is
// emitted as it stands, so there is no other solve: opt.graph_rebuilds =
// flow.solves = opt.rounds, contracted or not.
func TestRoundsBuildAndSolveOnce(t *testing.T) {
	for _, gen := range []func(workload.Spec) (*job.Instance, error){workload.Bursty, workload.Diurnal} {
		in, err := gen(workload.Spec{N: 32, M: 3, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, contract := range []bool{true, false} {
			for _, exact := range []bool{false, true} {
				opts := []Option{withContraction(contract)}
				if exact {
					opts = append(opts, Exact())
				}
				rec := obs.New()
				res, err := Schedule(in, append(opts, WithRecorder(rec))...)
				if err != nil {
					t.Fatal(err)
				}
				c := rec.Snapshot().Counters
				phases, rounds := c["opt.phases"], c["opt.rounds"]
				if phases != int64(len(res.Phases)) || rounds <= phases {
					t.Fatalf("contract=%v exact=%v: opt.phases=%d for %d phases, opt.rounds=%d: want a rejected round",
						contract, exact, phases, len(res.Phases), rounds)
				}
				if c["opt.graph_rebuilds"] != rounds || c["flow.solves"] != rounds {
					t.Errorf("contract=%v exact=%v: opt.graph_rebuilds=%d, flow.solves=%d, want one each per round (%d)",
						contract, exact, c["opt.graph_rebuilds"], c["flow.solves"], rounds)
				}
			}
		}
	}
}

// Phase 1 starts from the earliest piece of the whole instance; every
// later phase starts from a piece of the block the most recent rejected
// round excluded. Each candidate is either removed by a rejected round
// or saturated in the phase, so per phase span jobs_removed +
// jobs_saturated = candidates, and the spans saturate every job once.
// Every removed job is pushed as a candidate of exactly one later phase,
// so over the solve sum_i candidates_i = n + opt.jobs_removed. A
// rejected round that excludes several jobs must count each of them.
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
		if len(snap.Trace) < len(res.Phases) {
			t.Fatalf("%s: %d phase spans for %d phases", name, len(snap.Trace), len(res.Phases))
		}
		first := components(in)[0]
		if got := snap.Trace[0].Counters["candidates"]; got != int64(len(first)) {
			t.Errorf("%s phase 1: candidates = %d, want the earliest piece's %d jobs", name, got, len(first))
		}
		var candidates, saturated int64
		for i, sp := range snap.Trace {
			c := sp.Counters
			if c["jobs_removed"]+c["jobs_saturated"] != c["candidates"] {
				t.Errorf("%s phase %d: span counters %v, want candidates = jobs_removed + jobs_saturated", name, i+1, c)
			}
			candidates += c["candidates"]
			saturated += c["jobs_saturated"]
		}
		if saturated != int64(in.N()) {
			t.Errorf("%s: the spans saturate %d jobs, want %d", name, saturated, in.N())
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
