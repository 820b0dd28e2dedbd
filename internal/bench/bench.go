// Package bench is the experiment harness that regenerates every
// "table and figure" of the reproduction. The paper is a theory paper —
// its evaluation is Theorems 1-3 and the structural lemmas — so each
// experiment renders one proven claim as a measurable series:
//
//	E1  Theorem 1: the combinatorial optimum matches two independent
//	    optimality baselines (Frank-Wolfe convex bound, BG-style LP).
//	E2  Theorem 1 motivation: runtime of the flow-based optimum vs the LP.
//	E3  Theorem 2: measured OA(m) competitive ratio vs the alpha^alpha bound.
//	E4  Theorem 3: measured AVR(m) ratio vs the (2 alpha)^alpha/2 + 1 bound.
//	E5  Lemmas 1-3: structural invariants of optimal schedules.
//	E6  Lemmas 7-8: OA(m) speed monotonicity under arrivals.
//	E7  Value of migration vs non-migratory baselines (reference [8]).
//	E8  Proof chain of Theorem 3: E_OPT(m) >= m^(1-alpha) E^1_OPT.
//	E9  Degeneration to one processor: opt(m=1) == YDS.
//
// Each experiment returns typed rows; Render* helpers print the tables
// reproduced in EXPERIMENTS.md; cmd/mpss-bench and bench_test.go drive it.
package bench

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"mpss/internal/obs"
)

// Config scales the whole suite. The zero value is replaced by Defaults.
type Config struct {
	Seeds int // random seeds per cell
	N     int // jobs per instance

	// Recorder, when non-nil, collects solver-internal metrics (flow
	// operation counts, phase structure, online-event counters) from the
	// experiments that exercise instrumented code paths. cmd/mpss-bench
	// installs a fresh recorder per experiment and renders the snapshots.
	Recorder *obs.Recorder
}

// Defaults returns the configuration used by EXPERIMENTS.md.
func Defaults() Config { return Config{Seeds: 5, N: 12} }

func (c Config) normalize() Config {
	if c.Seeds <= 0 {
		c.Seeds = 5
	}
	if c.N <= 0 {
		c.N = 12
	}
	return c
}

// table renders rows with aligned columns.
func table(header []string, rows [][]string) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, strings.Join(header, "\t"))
	sep := make([]string, len(header))
	for i, h := range header {
		sep[i] = strings.Repeat("-", len(h))
	}
	fmt.Fprintln(w, strings.Join(sep, "\t"))
	for _, r := range rows {
		fmt.Fprintln(w, strings.Join(r, "\t"))
	}
	w.Flush()
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f4(v float64) string { return fmt.Sprintf("%.4f", v) }
func f6(v float64) string { return fmt.Sprintf("%.6f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func dur(ns int64) string { return fmt.Sprintf("%.3fms", float64(ns)/1e6) }
