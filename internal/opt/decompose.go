package opt

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"mpss/internal/job"
	"mpss/internal/pool"
	"mpss/internal/schedule"
)

// Windowed decomposition.
//
// The flow network of the paper spans every atomic interval of the whole
// instance, and every phase records a processor count for each and
// walks every interval its candidates' windows cover — so the solve
// cost grows roughly quadratically with n. But an instance often separates in time: at a
// time t that no job window strictly crosses (no job with Release < t <
// Deadline), the instance splits into the jobs entirely before t and the
// jobs entirely after, and no phase of the optimal schedule can move
// work across t. Solving the two sides independently and concatenating
// their schedules yields the optimum of the whole instance — the flow
// network is block-diagonal across every such cut, which is why the
// result is not merely equal in energy but bit-identical segment for
// segment (see the equivalence argument at mergeComponents).
//
// One caveat bounds the bit-exactness claim: the float engines break
// phase-density ties by rounding, and an adversarial instance can put
// two candidate critical sets within one ulp of each other, where the
// monolithic solve's larger float sums round the comparison one way and
// a component's shorter sums round it the other (the decomposed answer
// is then the one agreeing with exact arithmetic — larger sums are what
// accumulated the extra rounding). The differential suite pins
// bit-equality on every tested distribution; the fuzz corpus seed
// decompose-ulp-tie preserves the known counterexample, where the
// results differ by one ulp in one phase speed.
//
// components performs one linear sweep over the sorted window endpoints:
// an open-window counter is incremented at each release and decremented
// at each deadline (deadlines ordered before releases at equal times, so
// touching windows [a,t) [t,b) still separate); every return to zero
// with jobs left after it is a cut. Cost O(n log n), negligible against
// any solve.
//
// The win is structural, not just constant-factor: with c components of
// ~n/c jobs, the round count drops from O(n·phases) to c independent
// O((n/c)·phases_i) solves — the cost grows with the largest component,
// not with n. The components are also independent by construction, so
// they fan out over the pool.Map worker pool, each worker drawing a
// pooled arena (solverPool) exactly like the package-level
// Schedule does.

// componentRanges returns the separable components of jobs as index
// groups, preserving input order inside each group. A single group means
// the instance does not separate.
func componentRanges(jobs []job.Job) [][]int {
	n := len(jobs)
	if n == 0 {
		return nil
	}
	// Sweep events: releases open a window, deadlines close one. At equal
	// times deadlines sort first, so a boundary where one window ends
	// exactly where another begins is a valid cut.
	type event struct {
		t    float64
		open bool
	}
	evs := make([]event, 0, 2*n)
	for _, j := range jobs {
		evs = append(evs, event{j.Release, true}, event{j.Deadline, false})
	}
	sort.Slice(evs, func(a, b int) bool {
		if evs[a].t != evs[b].t {
			return evs[a].t < evs[b].t
		}
		return !evs[a].open && evs[b].open
	})
	// Collect cut times: points where the open-window count returns to
	// zero with more windows still to open.
	var cuts []float64
	open := 0
	for i, ev := range evs {
		if ev.open {
			open++
		} else {
			open--
		}
		if open == 0 && i+1 < len(evs) {
			cuts = append(cuts, ev.t)
		}
	}
	if len(cuts) == 0 {
		return [][]int{allIndices(n)}
	}
	// Assign each job to the component of its window: the component index
	// is the number of cuts at or before its release time. Input order is
	// preserved inside each group, so a component's candidate order — and
	// with it every sum and every flow-network layout of its solve —
	// matches the relative order the monolithic solve would use.
	groups := make([][]int, len(cuts)+1)
	for k, j := range jobs {
		c := sort.SearchFloat64s(cuts, j.Release)
		if c < len(cuts) && cuts[c] == j.Release {
			c++
		}
		groups[c] = append(groups[c], k)
	}
	// Degenerate coincident events can leave empty groups; drop them.
	out := groups[:0]
	for _, g := range groups {
		if len(g) > 0 {
			out = append(out, g)
		}
	}
	return out
}

func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// scheduleDecomposed solves each component independently — fanned over
// workers pool.Map workers, each drawing a pooled arena — and
// merges the component results into one Result indistinguishable from a
// monolithic solve. Each component's solve goes through the package
// Schedule entry, so the fallback (float → exact) applies per
// component: a numeric failure in one component falls back for that
// component only, the others keep their fast path.
func scheduleDecomposed(in *job.Instance, comps [][]int, cfg config) (*Result, error) {
	maxJobs := 0
	for _, c := range comps {
		if len(c) > maxJobs {
			maxJobs = len(c)
		}
	}
	cfg.rec.Add("opt.components", int64(len(comps)))
	cfg.rec.Add("opt.decompose_cuts", int64(len(comps)-1))
	cfg.rec.Add("opt.component_jobs_max", int64(maxJobs))

	// Sub-solves take the caller's options with decomposition off: the
	// components cannot separate further at their own cuts, and the sweep
	// is pure overhead. WithParallelism is spent here: up to that many
	// components are solved at once, one per worker.
	subCfg := cfg
	subCfg.decompose = false
	workers := max(1, cfg.par)

	results, err := pool.Map(len(comps), workers, func(i int) (*Result, error) {
		sub := &job.Instance{M: in.M, Jobs: make([]job.Job, 0, len(comps[i]))}
		for _, k := range comps[i] {
			sub.Jobs = append(sub.Jobs, in.Jobs[k])
		}
		res, err := schedulePooled(sub, subCfg)
		if err != nil {
			return nil, fmt.Errorf("component %d (%d jobs): %w", i, len(comps[i]), err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return mergeComponents(in, comps, results), nil
}

// mergeComponents concatenates component results into the Result a
// monolithic solve of in would return.
//
// Equivalence: inside a component's time range the full event-point
// partition and the component's own partition contain the identical
// atomic intervals (no other component has an event point there), and
// the full partition's extra gap intervals between components carry no
// active job, hence m_j = 0 and no flow. A monolithic phase's flow
// network restricted to one component's jobs is therefore exactly the
// network the component solve builds — same vertex layout, same edges
// in the same order, same capacities — so Dinic's augmentation sequence
// and the emitted per-interval times match bit for bit. Phases merge by
// strictly decreasing speed; when two components produce bit-equal
// phase speeds the monolithic solve would have accepted their union as
// one phase, so equal-speed runs are coalesced: job IDs interleave in
// instance input order (the monolithic candidate order) and the speed
// is recomputed with the monolithic summation order — total work over
// instance-ordered jobs divided by total time over time-ordered
// intervals — which reproduces the monolithic quotient exactly whenever
// the additions are exact (always on the exact engine, where equal
// speeds are equal rationals).
func mergeComponents(in *job.Instance, comps [][]int, results []*Result) *Result {
	ivs := job.Partition(in.Jobs)
	// Full-partition index of an interval start time: component intervals
	// are a subset of the full ones, found by binary search on Start.
	ivIndex := func(start float64) int {
		lo, hi := 0, len(ivs)
		for lo < hi {
			mid := (lo + hi) / 2
			if ivs[mid].Start < start {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}
	idxOfID := make(map[int]int, in.N())
	for k, j := range in.Jobs {
		idxOfID[j.ID] = k
	}

	merged := &Result{Schedule: schedule.New(in.M), Intervals: ivs}
	type compPhase struct {
		comp  int
		phase int
		speed float64
	}
	var heads []compPhase
	for c, res := range results {
		merged.Stats.Rounds += res.Stats.Rounds
		if res.Stats.FlowVertices > merged.Stats.FlowVertices {
			merged.Stats.FlowVertices = res.Stats.FlowVertices
		}
		merged.Schedule.Extend(res.Schedule)
		for p, ph := range res.Phases {
			heads = append(heads, compPhase{comp: c, phase: p, speed: ph.Speed})
		}
	}
	// Global phase order: strictly decreasing speed, components in time
	// order on ties (ties are then coalesced below). Within one component
	// speeds already decrease, so this is a stable k-way merge.
	sort.SliceStable(heads, func(a, b int) bool {
		if heads[a].speed != heads[b].speed {
			return heads[a].speed > heads[b].speed
		}
		return heads[a].comp < heads[b].comp
	})

	scatter := func(dst []int, comp int, procs []int) []int {
		if dst == nil {
			dst = make([]int, len(ivs))
		}
		civs := results[comp].Intervals
		for jx, m := range procs {
			if m != 0 {
				dst[ivIndex(civs[jx].Start)] = m
			}
		}
		return dst
	}

	for i := 0; i < len(heads); {
		run := i + 1
		for run < len(heads) && heads[run].speed == heads[i].speed {
			run++
		}
		ph := Phase{Speed: heads[i].speed}
		var procs []int
		if run == i+1 {
			h := heads[i]
			src := results[h.comp].Phases[h.phase]
			ph.JobIDs = src.JobIDs
			procs = scatter(nil, h.comp, src.Procs)
		} else {
			// Equal-speed coalesce: one monolithic phase. Procs supports
			// are disjoint (the components do not share intervals), job
			// IDs sort back into instance input order, and the speed is
			// re-derived the way the engine computes it for the union
			// candidate set.
			for _, h := range heads[i:run] {
				src := results[h.comp].Phases[h.phase]
				ph.JobIDs = append(ph.JobIDs, src.JobIDs...)
				procs = scatter(procs, h.comp, src.Procs)
			}
			slices.SortFunc(ph.JobIDs, func(a, b int) int {
				return idxOfID[a] - idxOfID[b]
			})
			member := make(map[int]bool, len(ph.JobIDs))
			for _, id := range ph.JobIDs {
				member[id] = true
			}
			var work, time float64
			for _, j := range in.Jobs {
				if member[j.ID] {
					work += j.Work
				}
			}
			for jx, iv := range ivs {
				if procs[jx] > 0 {
					time += float64(procs[jx]) * iv.Len()
				}
			}
			if time > 0 && !math.IsInf(work/time, 0) {
				ph.Speed = work / time
			}
		}
		ph.Procs = procs
		merged.Phases = append(merged.Phases, ph)
		i = run
	}
	merged.Stats.Phases = len(merged.Phases)
	merged.Schedule.Normalize()
	return merged
}
