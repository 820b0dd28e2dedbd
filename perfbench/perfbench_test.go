package main

import (
	"bytes"
	"reflect"
	"testing"
)

// countMetrics are the per-layer metrics that are pure counts (or
// ratios of counts) and so must repeat exactly at one seed; timings and
// Go runtime figures are excluded.
var countMetrics = []string{
	"trace.ops", "trace.jobs",
	"opt.components", "opt.component_jobs_max",
	"opt.rounds", "opt.rounds_per_job", "opt.phases", "opt.graph_rebuilds",
	"flow.warm_hits", "opt.contraction_ratio",
	"opt.feasibility_probes_per_mincap", "opt.probe_waves_per_mincap",
	"opt.session_incremental_ratio",
	"flow.solves", "flow.dinic.edges_scanned", "flow.edges_scanned_per_job",
	"flow.dinic.aug_paths", "flow.dinic.bfs_passes",
	"server.cache_hit_ratio", "cluster.proxied_max_share", "cluster.retries",
}

// Two traced runs at one seed, at reduced size, give identical counts,
// pass their correctness gate, and show the expected cache behaviour.
func TestTracedCountsRepeat(t *testing.T) {
	ops := map[string]int{"trace-stream": 2, "wire-solve": 16, "wire-cached": 40}
	hitRatio := map[string]float64{"trace-stream": 0, "wire-solve": 0, "wire-cached": 1}
	for name, n := range ops {
		t.Run(name, func(t *testing.T) {
			var runs [2]*result
			for i := range runs {
				r, err := runTraced(workloads[name], 7, n, "")
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted != n {
					t.Fatalf("run %d: correct=%v attempted=%d failed=%d", i, r.Correct, r.Attempted, r.Failed)
				}
				runs[i] = r
			}
			for _, k := range countMetrics {
				a, b := runs[0].Metrics[k], runs[1].Metrics[k]
				if a != b {
					t.Errorf("%s: %v then %v", k, a.Value, b.Value)
				}
			}
			if got := runs[0].Metrics["server.cache_hit_ratio"].Value; got != hitRatio[name] {
				t.Errorf("server.cache_hit_ratio = %v, want %v", got, hitRatio[name])
			}
			if name != "wire-cached" && runs[0].Metrics["opt.rounds"].Value == 0 {
				t.Error("opt.rounds is 0: the solver counters were not read")
			}
		})
	}
}

// A different seed gives different inputs; the same seed the same.
func TestSeedSelectsInputs(t *testing.T) {
	inputs := func(name string, seed int64) any {
		e, err := workloads[name].setup(seed)
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		switch e := e.(type) {
		case *traceEnv:
			return bytes.Join(e.traces, nil)
		case *wireSolveEnv:
			return e.insts
		case *wireCachedEnv:
			return e.reqs
		}
		t.Fatalf("unknown env %T", e)
		return nil
	}
	for name := range workloads {
		a, b, c := inputs(name, 1), inputs(name, 1), inputs(name, 2)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 1 gave different inputs twice", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 1 and 2 gave the same inputs", name)
		}
	}
}
