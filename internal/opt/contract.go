package opt

import "math/big"

// Interval contraction.
//
// The flow network G(J, m, s) has one node per atomic event interval,
// but consecutive intervals are often interchangeable: when two adjacent
// intervals I_j, I_{j+1} have the same active candidate set and the same
// processor budget m_j, any feasible per-interval split of a job's time
// between them can be re-split proportionally (t_k -> t_k * |I_j| /
// (|I_j| + |I_{j+1}|) lands every job under the per-interval cap and
// every interval under its m_j |I_j| budget), so replacing the pair with
// one super-interval of length |I_j| + |I_{j+1}| changes neither the
// max-flow value nor which job nodes can reach the sink in the residual
// graph of a maximum flow. Zero-capacity intervals (m_j = 0) contribute
// no node either way and are transparent: a run may span them.
//
// The merge conditions are stable across a phase's removals: byIv is
// fixed at phase start, and two intervals with equal active counts and
// equal m_j = min(active, free) keep equal m_j as the active count
// decreases (if m_j < active then free = m_j on both and stays the
// binding term; if m_j = active both track the shrinking active count).
// computeContraction therefore runs once per phase, and every round of
// the phase — updated in place on the float path, rebuilt on the exact
// one — solves over the same run partition.
//
// Correctness of the phase decisions on the contracted graph:
//
//   - the acceptance test compares the max-flow value against totalTime,
//     which the engines always compute over the RAW intervals, and the
//     contracted max-flow value equals the raw one (exactly in rational
//     arithmetic; within ulps — far inside the acceptance slack — in
//     float64);
//   - the excluded-job rule takes the candidates co-reachable to the
//     sink, and co-reachability of job nodes is a min-cut property
//     preserved by the proportional-split equivalence above.
//
// Schedule emission, however, needs per-raw-interval times, so accept()
// rebuilds the raw-shaped network for the surviving candidate set and
// solves it from zero — exactly the graph and augmentation sequence the
// uncontracted path runs for its accepted round, which is what
// makes the contracted solver's output bit-identical to the raw one.
// That rebuild is counted separately ("opt.emit_rebuilds") so the
// build-once-per-phase accounting of the float engine stays observable.

// contraction is the per-phase super-interval partition shared by the
// float and exact engines (the exact engine carries the rational run
// lengths separately). All slices are arenas reused across phases.
type contraction struct {
	supOf   []int32 // raw interval -> super-interval, -1 for m_j = 0
	supHead []int32 // super-interval -> first raw member
	nSup    int
	on      bool // this phase runs its rounds on the contracted graph
}

// compute builds the run partition for the current phase state: maximal
// runs of m_j > 0 intervals with identical active candidate lists and
// identical m_j, spanning any m_j = 0 gaps between them. It reports the
// number of m_j > 0 raw intervals, for the dispatch decision and the
// contraction counters.
func (c *contraction) compute(byIv [][]int32, mj []int) (rawActive int) {
	nIv := len(mj)
	c.supOf = growInt32s(c.supOf, nIv)
	c.supHead = c.supHead[:0]
	c.nSup = 0
	prev := -1 // last m_j > 0 interval seen
	for jx := 0; jx < nIv; jx++ {
		if mj[jx] == 0 {
			c.supOf[jx] = -1
			continue
		}
		rawActive++
		if prev >= 0 && mj[jx] == mj[prev] && equalInt32(byIv[jx], byIv[prev]) {
			c.supOf[jx] = int32(c.nSup - 1)
		} else {
			c.supOf[jx] = int32(c.nSup)
			c.supHead = append(c.supHead, int32(jx))
			c.nSup++
		}
		prev = jx
	}
	return rawActive
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i, v := range a {
		if v != b[i] {
			return false
		}
	}
	return true
}

// sumLens fills supLen[s] with the summed float64 length of run s's
// members, in member order (deterministic summation order keeps the
// derived capacities reproducible across solves).
func (c *contraction) sumLens(supLen []float64, ivLen []float64) []float64 {
	supLen = growFloats(supLen, c.nSup)
	for s := range supLen {
		supLen[s] = 0
	}
	for jx, s := range c.supOf {
		if s >= 0 {
			supLen[s] += ivLen[jx]
		}
	}
	return supLen
}

// sumLensRat is sumLens over exact rational lengths.
func (c *contraction) sumLensRat(supLen []*big.Rat, ivLen []*big.Rat) []*big.Rat {
	for len(supLen) < c.nSup {
		supLen = append(supLen, new(big.Rat))
	}
	supLen = supLen[:c.nSup]
	for _, r := range supLen {
		r.SetInt64(0)
	}
	for jx, s := range c.supOf {
		if s >= 0 {
			supLen[s].Add(supLen[s], ivLen[jx])
		}
	}
	return supLen
}
