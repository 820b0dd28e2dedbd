// Command mpss-bench regenerates the experiment tables of EXPERIMENTS.md:
// one experiment per theorem/lemma of the paper plus the baseline
// comparisons. See DESIGN.md section 4 for the experiment index.
//
// Experiments are independent, so they are fanned out over a worker pool
// (-workers, default GOMAXPROCS). Each experiment renders into its own
// buffer and records into its own obs.Recorder; outputs are printed in
// the fixed e1..e14 order and recorders are merged afterwards, so the
// output and metrics are byte-identical to a sequential run.
//
// Usage:
//
//	mpss-bench                     # all experiments, default scale
//	mpss-bench -experiment e3      # only the OA(m) competitive sweep
//	mpss-bench -seeds 10 -n 16     # larger sample
//	mpss-bench -workers 1          # sequential (e.g. when profiling)
//	mpss-bench -metrics bench_metrics.json   # solver-internal counters
//	mpss-bench -cpuprofile cpu.pprof         # profile the hot paths
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"mpss/internal/bench"
	"mpss/internal/export"
	"mpss/internal/obs"
	"mpss/internal/pool"
)

func main() {
	var (
		exp        = flag.String("experiment", "all", "which experiment to run: all, e1..e14")
		seeds      = flag.Int("seeds", 0, "seeds per cell (0 = default)")
		n          = flag.Int("n", 0, "jobs per instance (0 = default)")
		workers    = flag.Int("workers", 0, "experiments run concurrently (0 = GOMAXPROCS, 1 = sequential)")
		decompose  = flag.Bool("decompose", false, "zero-active-boundary decomposition in the offline solves (bit-identical results except at one-ulp phase-speed ties)")
		csvDir     = flag.String("csv", "", "also write each experiment's rows as CSV into this directory")
		metricsOut = flag.String("metrics", "", "collect per-experiment solver metrics; print summaries and write them as JSON to this file")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		check(err)
		check(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}

	cfg := bench.Defaults()
	if *seeds > 0 {
		cfg.Seeds = *seeds
	}
	if *n > 0 {
		cfg.N = *n
	}
	cfg.Decompose = *decompose

	if *csvDir != "" {
		check(os.MkdirAll(*csvDir, 0o755))
	}
	writeCSV := func(name string, rows interface{}) error {
		if *csvDir == "" {
			return nil
		}
		f, err := os.Create(filepath.Join(*csvDir, name+".csv"))
		if err != nil {
			return err
		}
		defer f.Close()
		return export.CSV(f, rows)
	}

	// Each run renders its table(s) into the returned string instead of
	// printing, so experiments can execute concurrently and still be
	// emitted in the canonical order.
	type experiment struct {
		name string
		run  func(cfg bench.Config) (string, error)
	}
	experiments := []experiment{
		{"e1", func(cfg bench.Config) (string, error) {
			rows, err := bench.E1(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e1", rows); err != nil {
				return "", err
			}
			return bench.RenderE1(rows), bench.E1Check(rows)
		}},
		{"e2", func(cfg bench.Config) (string, error) {
			rows, err := bench.E2(cfg, []int{8, 16, 32, 64})
			if err != nil {
				return "", err
			}
			return bench.RenderE2(rows), writeCSV("e2", rows)
		}},
		{"e3", func(cfg bench.Config) (string, error) {
			rows, err := bench.E3(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e3", rows); err != nil {
				return "", err
			}
			out := bench.RenderRatios("E3 — Theorem 2: OA(m) measured ratio vs alpha^alpha", rows)
			return out, bench.RatioCheck(rows)
		}},
		{"e4", func(cfg bench.Config) (string, error) {
			rows, err := bench.E4(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e4", rows); err != nil {
				return "", err
			}
			out := bench.RenderRatios("E4 — Theorem 3: AVR(m) measured ratio vs (2a)^a/2+1", rows)
			return out, bench.RatioCheck(rows)
		}},
		{"e5", func(cfg bench.Config) (string, error) {
			rows, err := bench.E5(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e5", rows); err != nil {
				return "", err
			}
			return bench.RenderE5(rows), bench.E5Check(rows)
		}},
		{"e6", func(cfg bench.Config) (string, error) {
			rows, err := bench.E6(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e6", rows); err != nil {
				return "", err
			}
			return bench.RenderE6(rows), bench.E6Check(rows)
		}},
		{"e7", func(cfg bench.Config) (string, error) {
			rows, err := bench.E7(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e7", rows); err != nil {
				return "", err
			}
			return bench.RenderE7(rows), bench.E7Check(rows)
		}},
		{"e8", func(cfg bench.Config) (string, error) {
			rows, err := bench.E8(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e8", rows); err != nil {
				return "", err
			}
			return bench.RenderE8(rows), bench.E8Check(rows)
		}},
		{"e9", func(cfg bench.Config) (string, error) {
			rows, err := bench.E9(cfg, []int{4, 8, 16, 32})
			if err != nil {
				return "", err
			}
			if err := writeCSV("e9", rows); err != nil {
				return "", err
			}
			return bench.RenderE9(rows), bench.E9Check(rows)
		}},
		{"e10", func(cfg bench.Config) (string, error) {
			rows, err := bench.E10(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e10", rows); err != nil {
				return "", err
			}
			return bench.RenderE10(rows), bench.E10Check(rows)
		}},
		{"e11", func(cfg bench.Config) (string, error) {
			rows, err := bench.E11(cfg, []int{16, 32, 64, 128})
			if err != nil {
				return "", err
			}
			if err := writeCSV("e11", rows); err != nil {
				return "", err
			}
			return bench.RenderE11(rows), bench.E11Check(rows)
		}},
		{"e12", func(cfg bench.Config) (string, error) {
			rows, err := bench.E12(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e12", rows); err != nil {
				return "", err
			}
			return bench.RenderE12(rows), bench.E12Check(rows)
		}},
		{"e13", func(cfg bench.Config) (string, error) {
			rows, err := bench.E13(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e13", rows); err != nil {
				return "", err
			}
			return bench.RenderE13(rows), bench.E13Check(rows)
		}},
		{"e14", func(cfg bench.Config) (string, error) {
			rows, err := bench.E14(cfg)
			if err != nil {
				return "", err
			}
			if err := writeCSV("e14", rows); err != nil {
				return "", err
			}
			return bench.RenderE14(rows), bench.E14Check(rows)
		}},
	}

	collect := *metricsOut != ""

	want := strings.ToLower(*exp)
	selected := experiments[:0:0]
	for _, e := range experiments {
		if want == "all" || want == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "mpss-bench: unknown experiment %q (want all or e1..e14)\n", *exp)
		os.Exit(2)
	}

	// Fan the experiments over the worker pool. Each task gets a private
	// recorder, so no locking is needed in the solver hot path; pool.Map
	// returns results in index order regardless of completion order.
	type outcome struct {
		out  string
		snap obs.Snapshot
	}
	results, err := pool.Map(len(selected), *workers, func(i int) (outcome, error) {
		run := cfg
		if collect {
			run.Recorder = obs.New()
		}
		out, err := selected[i].run(run)
		if err != nil {
			return outcome{}, fmt.Errorf("%s: %w", selected[i].name, err)
		}
		var snap obs.Snapshot
		if collect {
			snap = run.Recorder.Snapshot()
			// Traces from thousands of solver runs would dominate the
			// file; the counters and histograms are the per-experiment
			// payload. Use mpss-opt/mpss-sim -trace for span trees.
			snap.Trace = nil
		}
		return outcome{out: out, snap: snap}, nil
	})
	check(err)

	snaps := make(map[string]obs.Snapshot, len(selected))
	for i, e := range selected {
		fmt.Println(results[i].out)
		if collect {
			snaps[e.name] = results[i].snap
			if len(results[i].snap.Counters) > 0 {
				fmt.Printf("metrics [%s]:\n%s\n", e.name, results[i].snap.CounterTable())
			}
		}
	}

	if collect {
		total := obs.Snapshot{}
		for _, e := range selected {
			total = total.Merge(snaps[e.name])
		}
		if len(total.Counters) > 0 {
			fmt.Printf("metrics [total]:\n%s\n", total.CounterTable())
		}
		payload := struct {
			Experiments map[string]obs.Snapshot `json:"experiments"`
			Total       obs.Snapshot            `json:"total"`
		}{Experiments: snaps, Total: total}
		data, err := json.MarshalIndent(payload, "", "  ")
		check(err)
		check(os.WriteFile(*metricsOut, append(data, '\n'), 0o644))
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		check(err)
		runtime.GC()
		check(pprof.WriteHeapProfile(f))
		check(f.Close())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-bench:", err)
		os.Exit(1)
	}
}
