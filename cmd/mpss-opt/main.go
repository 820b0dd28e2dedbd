// Command mpss-opt computes an energy-optimal multi-processor schedule
// with migration (Theorem 1 of the paper) for a JSON instance.
//
// Usage:
//
//	mpss-gen -n 10 -m 3 | mpss-opt -alpha 3 -gantt
//	mpss-opt -in instance.json -exact -json schedule.json
//	mpss-opt -in instance.json -metrics metrics.json -trace
//	mpss-opt -in instance.json -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Streamed traces (the mpss-trace-v1 JSONL format of mpss-gen trace) are
// detected automatically and solved without materializing the trace:
// components are cut at zero-active boundaries as the reader advances
// and solved independently (decomposed by default; -decompose=false
// forces the materialized monolithic baseline). The streamed path prints
// a fixed-size summary instead of the schedule:
//
//	mpss-gen trace -n 1000000 -m 8 | mpss-opt -parallel 4 -summary-json summary.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"mpss"
)

func main() {
	var (
		inPath     = flag.String("in", "", "instance JSON or trace JSONL file (default stdin)")
		alpha      = flag.Float64("alpha", 3, "power function exponent (P(s) = s^alpha)")
		exact      = flag.Bool("exact", false, "use exact rational arithmetic for phase decisions")
		parallel   = flag.Int("parallel", 1, "component workers (<=1 sequential; ignored with -exact)")
		decompose  = flag.Bool("decompose", false, "cut the instance at zero-active boundaries and solve components independently (bit-identical results except at one-ulp phase-speed ties; streamed traces default to true)")
		gantt      = flag.Bool("gantt", false, "print an ASCII Gantt chart")
		jsonOut    = flag.String("json", "", "write the schedule as JSON to this file")
		svgOut     = flag.String("svg", "", "write the schedule as an SVG figure to this file")
		metricsOut = flag.String("metrics", "", "write solver metrics (counters, histograms, phase spans) as JSON to this file")
		summaryOut = flag.String("summary-json", "", "write the streamed-solve summary (jobs/sec, peak RSS, components) as JSON to this file")
		trace      = flag.Bool("trace", false, "print the solver's phase trace tree")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile (runtime/pprof) to this file")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	p, err := mpss.NewAlpha(*alpha)
	if err != nil {
		fail(err)
	}
	var rec *mpss.Recorder
	if *metricsOut != "" || *trace {
		rec = mpss.NewRecorder()
	}

	input, closeInput, err := openInput(*inPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-opt:", err)
		os.Exit(2)
	}
	defer closeInput()

	// Sniff the first line: a trace header routes to the streaming
	// solve, anything else is read whole as instance JSON.
	head, _ := input.Peek(256)
	if mpss.IsTraceStream(head) {
		decomposeSet := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "decompose" {
				decomposeSet = true
			}
		})
		on := true // streamed traces decompose unless explicitly disabled
		if decomposeSet {
			on = *decompose
		}
		solveStream(input, p, *alpha, on, *parallel, rec,
			*summaryOut, *metricsOut, *trace)
		writeHeapProfile(*memProfile)
		return
	}

	in, err := readInstance(input)
	if err != nil {
		// Unreadable or unparseable input is a usage error.
		fmt.Fprintln(os.Stderr, "mpss-opt:", err)
		os.Exit(2)
	}

	solve := mpss.OptimalSchedule
	if *exact {
		solve = mpss.OptimalScheduleExact
	}
	res, err := solve(in, mpss.WithRecorder(rec), mpss.WithParallelism(*parallel),
		mpss.WithDecomposition(*decompose))
	if err != nil {
		fail(err)
	}
	if err := mpss.Verify(res.Schedule, in); err != nil {
		fail(fmt.Errorf("internal error — produced schedule failed verification: %w", err))
	}

	fmt.Printf("jobs: %d  processors: %d  phases: %d  flow-rounds: %d\n",
		in.N(), in.M, len(res.Phases), res.Stats.Rounds)
	for i, ph := range res.Phases {
		fmt.Printf("  phase %d: speed %.6g, jobs %v\n", i+1, ph.Speed, ph.JobIDs)
	}
	fmt.Printf("energy (P=s^%g): %.6g\n", *alpha, res.Schedule.Energy(p))
	if *gantt {
		fmt.Print(res.Schedule.Gantt(100))
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(res.Schedule, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(*jsonOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if *svgOut != "" {
		f, err := os.Create(*svgOut)
		if err != nil {
			fail(err)
		}
		if err := mpss.RenderSVG(f, res.Schedule, mpss.SVGOptions{ShowLabels: true}); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	if *trace {
		fmt.Print("phase trace:\n" + rec.TraceTree())
	}
	if *metricsOut != "" {
		f, err := os.Create(*metricsOut)
		if err != nil {
			fail(err)
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
	writeHeapProfile(*memProfile)
}

// solveStream runs the streaming trace solve and prints/records its
// fixed-size summary.
func solveStream(r io.Reader, p mpss.PowerFunction, alpha float64, decompose bool,
	parallel int, rec *mpss.Recorder, summaryOut, metricsOut string, trace bool) {
	start := time.Now()
	sum, err := mpss.SolveTraceStream(r, p,
		mpss.WithDecomposition(decompose), mpss.WithParallelism(parallel),
		mpss.WithRecorder(rec))
	if err != nil {
		fail(err)
	}
	elapsed := time.Since(start)
	jobsPerSec := float64(sum.Jobs) / elapsed.Seconds()
	rss := peakRSSBytes()

	fmt.Printf("jobs: %d  processors: %d  components: %d  largest: %d  phases: %d  flow-rounds: %d\n",
		sum.Jobs, sum.M, sum.Components, sum.MaxComponentJobs, sum.Phases, sum.Rounds)
	fmt.Printf("energy (P=s^%g): %.6g\n", alpha, sum.Energy)
	fmt.Printf("elapsed: %.3fs  jobs/sec: %.0f  peak-rss: %d bytes  decompose: %v\n",
		elapsed.Seconds(), jobsPerSec, rss, decompose)

	if summaryOut != "" {
		out := struct {
			Jobs             int     `json:"jobs"`
			M                int     `json:"m"`
			Components       int     `json:"components"`
			MaxComponentJobs int     `json:"max_component_jobs"`
			Phases           int     `json:"phases"`
			Rounds           int     `json:"rounds"`
			Energy           float64 `json:"energy"`
			ElapsedSec       float64 `json:"elapsed_sec"`
			JobsPerSec       float64 `json:"jobs_per_sec"`
			PeakRSSBytes     int64   `json:"peak_rss_bytes"`
			Decompose        bool    `json:"decompose"`
		}{sum.Jobs, sum.M, sum.Components, sum.MaxComponentJobs, sum.Phases, sum.Rounds,
			sum.Energy, elapsed.Seconds(), jobsPerSec, rss, decompose}
		data, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			fail(err)
		}
		if err := os.WriteFile(summaryOut, append(data, '\n'), 0o644); err != nil {
			fail(err)
		}
	}
	if trace {
		fmt.Print("phase trace:\n" + rec.TraceTree())
	}
	if metricsOut != "" {
		f, err := os.Create(metricsOut)
		if err != nil {
			fail(err)
		}
		if err := rec.WriteJSON(f); err != nil {
			f.Close()
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
	}
}

// peakRSSBytes reads the process's peak resident set size (VmHWM) from
// /proc/self/status; 0 when unavailable (non-Linux).
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

func writeHeapProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
}

// openInput returns a buffered reader over the input path (or stdin)
// that supports sniffing via Peek.
func openInput(path string) (*bufio.Reader, func(), error) {
	if path == "" {
		return bufio.NewReaderSize(os.Stdin, 1<<16), func() {}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	return bufio.NewReaderSize(f, 1<<16), func() { f.Close() }, nil
}

func readInstance(r io.Reader) (*mpss.Instance, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	var in mpss.Instance
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("parsing instance: %w", err)
	}
	return &in, nil
}

// fail maps error classes onto the CLI exit-code convention: 2 for
// invalid input (usage errors), 1 for everything else (infeasible,
// numeric, internal).
func fail(err error) {
	fmt.Fprintln(os.Stderr, "mpss-opt:", err)
	if errors.Is(err, mpss.ErrInvalidInstance) {
		os.Exit(2)
	}
	os.Exit(1)
}
