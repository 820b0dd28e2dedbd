// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON document keyed by benchmark name, so benchmark runs
// can be archived and diffed (BENCH_opt.json in the repo root is the
// reference copy regenerated by `make bench`). Every value/unit pair on
// a benchmark line is kept: ns/op, B/op, allocs/op and any custom
// b.ReportMetric units such as opt.rounds/op or flow.warm_hits/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
)

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	flag.Parse()

	type entry struct {
		Iterations int64              `json:"iterations"`
		Metrics    map[string]float64 `json:"metrics"`
	}
	results := map[string]entry{}
	var order []string

	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // pass through so the run stays visible
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 4 {
			continue
		}
		name := fields[0]
		if i := strings.LastIndex(name, "-"); i > 0 { // strip -GOMAXPROCS
			name = name[:i]
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		metrics := map[string]float64{}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			metrics[fields[i+1]] = v
		}
		if _, seen := results[name]; !seen {
			order = append(order, name)
		}
		results[name] = entry{Iterations: iters, Metrics: metrics}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}

	payload := struct {
		Order      []string         `json:"order"`
		Benchmarks map[string]entry `json:"benchmarks"`
	}{Order: order, Benchmarks: results}
	data, err := json.MarshalIndent(payload, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}
