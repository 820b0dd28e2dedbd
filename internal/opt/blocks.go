package opt

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"mpss/internal/job"
)

// Blocks split at their time gaps.
//
// The network G(J, m, s) is block-diagonal in time: at an interval
// boundary that no candidate's window strictly crosses, the candidates
// before it and those after it share no interval, so no phase moves work
// across it, and the phases of each side are those the side has on its
// own (DESIGN.md §14). runPhases therefore splits every block it pops at
// every such boundary and solves each piece as a block of its own. The
// first pop splits the whole instance at its zero-active boundaries;
// later pops split the blocks that rejected rounds excluded, which fall
// apart in time as often as not. Each phase's network then spans one
// piece, and the phases of different pieces, which touch disjoint
// intervals, are merged by speed once the solve ends (mergePhases).

// frame is one solve's instance-wide index, computed once per solve and
// shared by the driver and both engines (an exact fallback reuses it):
// the interval partition and each job's active run [lo[k], hi[k]) of
// intervals. It also holds the split's scratch.
type frame struct {
	in     *job.Instance
	ivs    []job.Interval
	lo, hi []int32

	piece []int32 // split: per span boundary, then per span interval
	count []int32 // split: jobs per piece
	tmp   []int   // split: the block in piece order
}

// reset indexes in. The partition is allocated afresh, because the
// Result keeps it.
func (f *frame) reset(in *job.Instance) {
	f.in = in
	f.ivs = job.Partition(in.Jobs)
	f.lo = growInt32s(f.lo, in.N())
	f.hi = growInt32s(f.hi, in.N())
	for k, j := range in.Jobs {
		lo, hi := activeRun(f.ivs, j)
		f.lo[k], f.hi[k] = int32(lo), int32(hi)
	}
}

// activeRun returns the run [lo, hi) of the intervals job j is active
// in. The partition is sorted with increasing starts and ends, so the
// intervals starting at or after the release form a suffix, those ending
// by the deadline a prefix, and j.ActiveIn holds exactly on their
// intersection.
func activeRun(ivs []job.Interval, j job.Job) (lo, hi int) {
	lo = sort.Search(len(ivs), func(x int) bool { return ivs[x].Start >= j.Release })
	hi = sort.Search(len(ivs), func(x int) bool { return ivs[x].End > j.Deadline })
	return lo, max(lo, hi)
}

// split cuts the top block of the stack, jobs[starts[len(starts)-1]:],
// at every interval boundary that no job of the block crosses (a job
// crosses the boundaries strictly inside its run), and returns the stack
// with one block per non-empty piece in its place: the latest piece
// lowest, the earliest on top, each in input order. A block that does
// not separate is left as it is. It costs O(block + span) on the
// frame's scratch.
func (f *frame) split(jobs, starts []int) []int {
	base := starts[len(starts)-1]
	block := jobs[base:]
	if len(block) < 2 {
		return starts
	}
	// Every run is non-empty: a job's release and deadline are distinct
	// event points, so the interval starting at its release is in it.
	lo, hi := f.lo[block[0]], f.hi[block[0]]
	for _, k := range block {
		lo, hi = min(lo, f.lo[k]), max(hi, f.hi[k])
	}
	span := int(hi - lo)
	// piece[x] first counts, as a difference array, the jobs crossing
	// the boundary between span intervals x-1 and x; the running sum
	// then turns it into the index of the piece that interval x lies in.
	piece := growInt32s(f.piece, span+1)
	f.piece = piece
	clear(piece)
	for _, k := range block {
		if a, b := f.lo[k]-lo, f.hi[k]-lo; b-a > 1 {
			piece[a+1]++
			piece[b]--
		}
	}
	open, n := int32(0), int32(0)
	for x := 1; x < span; x++ {
		open += piece[x]
		if open == 0 {
			n++
		}
		piece[x] = n
	}
	if n == 0 {
		return starts
	}
	// A stable counting sort by piece, latest first. Pieces over
	// intervals no job is active in stay empty.
	count := growInt32s(f.count, int(n)+2)
	f.count = count
	clear(count)
	for _, k := range block {
		count[n-piece[f.lo[k]-lo]+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	tmp := growInts(f.tmp, len(block))
	f.tmp = tmp
	for _, k := range block {
		key := n - piece[f.lo[k]-lo]
		tmp[count[key]] = k
		count[key]++
	}
	copy(block, tmp)
	at := 0
	for _, end := range count[:n+1] {
		if int(end) > at && at > 0 {
			starts = append(starts, base+at)
		}
		at = int(end)
	}
	return starts
}

// mergeScratch holds the accepted phases' jobs for mergePhases, and its
// working storage.
type mergeScratch struct {
	ks    []int     // the jobs of every accepted phase, instance indices
	at    []int     // accepted phase p ran ks[at[p]:at[p+1]]
	order []int32   // accepted phases by decreasing speed
	rank  []int32   // per accepted phase: its merged phase
	group []int32   // per job: its merged phase
	count []int32   // per merged phase: jobs, then their offsets
	work  []float64 // per merged phase: its jobs' work, in input order
}

// mergePhases turns res.Phases, the phases in the order they were
// accepted, into the solve's phase list: ordered by decreasing speed,
// stably, with each run of bit-equal speed coalesced into one phase.
// sc holds the jobs each accepted phase ran, and claims every positive
// m_ij by accepted phase.
//
// The phases of one piece come out fastest first, and phases of
// different pieces touch disjoint intervals, so the order only
// interleaves pieces. Two pieces at bit-equal speed are one phase of the
// whole instance: its job IDs are listed in input order, its m_ij are
// the pieces' side by side, and its speed is re-derived as a phase over
// their union computes it, from the work summed over its jobs in input
// order and the processor time summed over intervals in time order.
// Every phase lists its job IDs in input order. The segments keep the
// speed their piece was packed at.
func mergePhases(f *frame, res *Result, claims []claim, sc *mergeScratch) {
	in, nIv := f.in, len(f.ivs)
	acc := res.Phases
	sc.order = growInt32s(sc.order, len(acc))
	for p := range sc.order {
		sc.order[p] = int32(p)
	}
	slices.SortStableFunc(sc.order, func(a, b int32) int {
		return cmp.Compare(acc[b].Speed, acc[a].Speed)
	})
	sc.rank = growInt32s(sc.rank, len(acc))
	phases := make([]Phase, 0, len(acc))
	var coalesced []int // merged phases of more than one accepted phase
	for i, p := range sc.order {
		if i == 0 || acc[p].Speed != acc[sc.order[i-1]].Speed {
			phases = append(phases, Phase{Speed: acc[p].Speed})
		} else if g := len(phases) - 1; len(coalesced) == 0 || coalesced[len(coalesced)-1] != g {
			coalesced = append(coalesced, g)
		}
		sc.rank[p] = int32(len(phases) - 1)
	}

	sc.group = growInt32s(sc.group, in.N())
	for p := range acc {
		for _, k := range sc.ks[sc.at[p]:sc.at[p+1]] {
			sc.group[k] = sc.rank[p]
		}
	}
	sc.count = growInt32s(sc.count, len(phases)+1)
	clear(sc.count)
	sc.work = growFloats(sc.work, len(phases))
	clear(sc.work)
	for k, g := range sc.group {
		sc.count[g+1]++
		sc.work[g] += in.Jobs[k].Work
	}
	for g := 1; g <= len(phases); g++ {
		sc.count[g] += sc.count[g-1]
	}
	ids := make([]int, in.N())
	for g := range phases {
		phases[g].JobIDs = ids[sc.count[g]:sc.count[g+1]:sc.count[g+1]]
	}
	for k, g := range sc.group {
		ids[sc.count[g]] = in.Jobs[k].ID
		sc.count[g]++
	}

	procs := make([]int, len(phases)*nIv)
	for _, c := range claims {
		procs[int(sc.rank[c.phase])*nIv+int(c.iv)] += int(c.m)
	}
	for g := range phases {
		phases[g].Procs = procs[g*nIv : (g+1)*nIv : (g+1)*nIv]
	}
	for _, g := range coalesced {
		var time float64
		for jx, m := range phases[g].Procs {
			if m > 0 {
				time += float64(m) * f.ivs[jx].Len()
			}
		}
		if s := sc.work[g] / time; time > 0 && !math.IsInf(s, 0) {
			phases[g].Speed = s
		}
	}
	res.Phases = phases
	res.Stats.Phases = len(phases)
}
