package opt

import (
	"math"

	"mpss/internal/job"
	"mpss/internal/obs"
)

// phaseSet is the candidate bookkeeping both engines share: the phase's
// candidates and which of them the current round still conjectures,
// and, per interval of the phase's span, the free processors, the alive
// candidates active there and m_j. The arithmetic — totals, speed,
// capacities — stays in each engine.
//
// The span [lo, hi) is the union of the alive candidates' active runs:
// the phase's candidates' at its start, narrowed as rounds drop
// candidates. No alive candidate is active outside it, so m_j is zero
// there and nothing outside it is read or written: a round costs its
// candidates' windows, not the whole partition. mj is kept at full
// length, zero outside the span, because runPhases and emitPhase index
// it by raw interval.
type phaseSet struct {
	in *job.Instance
	// Per instance job: the run [jobLo, jobHi) of intervals it is active in.
	jobLo, jobHi []int32
	rawHeads     []int32 // identity: span interval r is its own node's head

	cand0       []int // the phase's candidates, instance job indices
	alive       []bool
	aliveCount  int
	lo, hi      int
	free        []int     // per interval: m - used, fixed for the phase
	activeCount []int     // per interval: alive candidates active in it
	byIv        [][]int32 // per interval: those candidates' positions, ascending
	mj          []int
	// The intervals [dirtyLo, dirtyHi) hold every list with a dropped
	// candidate that prune has not filtered out yet (none when dirtyLo >=
	// dirtyHi).
	dirtyLo, dirtyHi int

	con contraction // the round's super-interval partition of the span

	excluded []int // candidate positions the last rejected round excluded
	accepted []int
}

// prepare caches the solve's job windows and clears m_j once; begin
// then clears only the previous phase's span.
func (p *phaseSet) prepare(in *job.Instance, ivs []job.Interval) {
	p.in = in
	nIv := len(ivs)
	p.jobLo = growInt32s(p.jobLo, in.N())
	p.jobHi = growInt32s(p.jobHi, in.N())
	for k, j := range in.Jobs {
		lo, hi := activeRun(ivs, j)
		p.jobLo[k], p.jobHi[k] = int32(lo), int32(hi)
	}
	p.rawHeads = identity(p.rawHeads, nIv)
	p.free = growInts(p.free, nIv)
	p.activeCount = growInts(p.activeCount, nIv)
	p.mj = growInts(p.mj, nIv)
	clear(p.mj)
	p.byIv = growLists(p.byIv, nIv)
	p.lo, p.hi = 0, 0
}

// begin conjectures cand, a copy of which it keeps, on the processors
// used leaves free.
func (p *phaseSet) begin(used, cand []int) {
	p.cand0 = append(p.cand0[:0], cand...)
	p.alive = growBools(p.alive, len(cand))
	for pos := range p.alive {
		p.alive[pos] = true
	}
	p.aliveCount = len(cand)
	clear(p.mj[p.lo:p.hi])
	p.fit()
	p.dirtyLo, p.dirtyHi = len(p.mj), 0
	for jx := p.lo; jx < p.hi; jx++ {
		p.free[jx] = max(0, p.in.M-used[jx])
		p.activeCount[jx] = 0
		p.byIv[jx] = p.byIv[jx][:0]
	}
	for pos, k := range cand {
		for jx := p.jobLo[k]; jx < p.jobHi[k]; jx++ {
			p.byIv[jx] = append(p.byIv[jx], int32(pos))
			p.activeCount[jx]++
		}
	}
	for jx := p.lo; jx < p.hi; jx++ {
		p.mj[jx] = min(p.activeCount[jx], p.free[jx])
	}
}

// drop takes candidate pos out of the conjectured set and lowers the m_j
// of its intervals. Its interval lists keep it until prune.
func (p *phaseSet) drop(pos int) {
	p.alive[pos] = false
	p.aliveCount--
	k := p.cand0[pos]
	for jx := p.jobLo[k]; jx < p.jobHi[k]; jx++ {
		p.activeCount[jx]--
		p.mj[jx] = min(p.activeCount[jx], p.free[jx])
	}
	p.dirtyLo, p.dirtyHi = min(p.dirtyLo, int(p.jobLo[k])), max(p.dirtyHi, int(p.jobHi[k]))
}

// fit sets the span to the union of the alive candidates' runs.
func (p *phaseSet) fit() {
	lo, hi := len(p.mj), 0
	for pos, k := range p.cand0 {
		if p.alive[pos] {
			lo, hi = min(lo, int(p.jobLo[k])), max(hi, int(p.jobHi[k]))
		}
	}
	p.lo, p.hi = lo, max(lo, hi)
}

// prune narrows the span to the alive candidates and filters the lists
// in it that lost a candidate down to the alive ones, in place and in
// order, so every list, and the network and contraction built from the
// lists, depends only on the alive set. The span only shrinks, so a
// list left outside it is never read again in the phase.
func (p *phaseSet) prune() {
	p.fit()
	for jx := max(p.dirtyLo, p.lo); jx < min(p.dirtyHi, p.hi); jx++ {
		l := p.byIv[jx]
		if len(l) == p.activeCount[jx] {
			continue
		}
		w := 0
		for _, pos := range l {
			if p.alive[pos] {
				l[w] = pos
				w++
			}
		}
		p.byIv[jx] = l[:w]
	}
	p.dirtyLo, p.dirtyHi = len(p.mj), 0
}

// leastWork returns the alive candidate with the least work, the first
// in candidate order on ties.
func (p *phaseSet) leastWork() int {
	best := -1
	for pos, k := range p.cand0 {
		if p.alive[pos] && (best < 0 || p.in.Jobs[k].Work < p.in.Jobs[p.cand0[best]].Work) {
			best = pos
		}
	}
	return best
}

func (p *phaseSet) excludedJobs(dst []int) []int {
	for _, pos := range p.excluded {
		dst = append(dst, p.cand0[pos])
	}
	return dst
}

func (p *phaseSet) acceptedCand() []int {
	p.accepted = p.accepted[:0]
	for pos, k := range p.cand0 {
		if p.alive[pos] {
			p.accepted = append(p.accepted, k)
		}
	}
	return p.accepted
}

// partition decides the round's interval nodes: with contract, the
// super-intervals of the alive lists over the span (contract.go) when
// they merge anything, otherwise the span's intervals. It counts the
// merge.
func (p *phaseSet) partition(contract bool, rec *obs.Recorder) {
	p.con.on = false
	if !contract {
		return
	}
	raw := p.con.compute(p.byIv[p.lo:p.hi], p.mj[p.lo:p.hi])
	p.con.on = p.con.nSup < raw
	rec.Add("opt.intervals_raw", int64(raw))
	rec.Add("opt.intervals_contracted", int64(raw-p.con.nSup))
}

// heads returns the round's interval nodes: node i stands for span
// interval heads[i] (raw interval lo+heads[i]), whose list and m_j it
// takes.
func (p *phaseSet) heads() []int32 {
	if p.con.on {
		return p.con.supHead
	}
	return p.rawHeads[:p.hi-p.lo]
}

// node returns the node of raw interval jx, which must have m_j > 0.
func (p *phaseSet) node(jx int) int {
	if p.con.on {
		return int(p.con.supOf[jx-p.lo])
	}
	return jx - p.lo
}

// window returns job k's window [a, b] over the round's nodes: its raw
// run shifted to the span, or the super-intervals of the members in
// it, which are consecutive because a job is active in every member of
// a super-interval or in none (b < a when the run holds only m_j = 0
// intervals).
func (p *phaseSet) window(k int) (a, b int) {
	lo, hi := int(p.jobLo[k])-p.lo, int(p.jobHi[k])-p.lo
	if !p.con.on {
		return lo, hi - 1
	}
	a, b = 0, -1
	for r := lo; r < hi; r++ {
		if s := p.con.supOf[r]; s >= 0 {
			a = int(s)
			break
		}
	}
	for r := hi - 1; r >= lo; r-- {
		if s := p.con.supOf[r]; s >= 0 {
			b = int(s)
			break
		}
	}
	return a, b
}

// emit appends the accepted round's pieces to dst, interval by interval
// and in list order within an interval, as emitPhase requires.
// flow(node, i, pos) is the time that candidate pos, the i-th of the
// node's list, runs on that node;
// ivLen and supLen are the raw and super-interval lengths. Every
// positive time counts: dropping pieces at the slack threshold would
// lose work proportional to the edge count on large instances.
//
// A super-interval's times are cut over its members as McNaughton's
// rule would lay them out on the super-interval: the jobs end to end on
// its processors, each processor one copy of the run's length, each
// member the same stretch of every copy. A job's time in a member is
// then at most the member's length (it runs at most once at any
// point), the member's jobs fit its m_j processors, and the job's times
// over the members add up to its flow: the split is a flow of the raw
// network, so the phase is optimal (DESIGN.md §12). Unlike a
// proportional split, it puts most jobs in few members, so it adds few
// pieces. A one-member node emits its flow as it stands.
func (p *phaseSet) emit(dst []piece, ivLen, supLen []float64, flow func(node, i int, pos int32) float64) []piece {
	node, start := -1, 0.0
	for jx := p.lo; jx < p.hi; jx++ {
		if p.mj[jx] == 0 {
			continue // no vertex, or no alive candidate
		}
		if s := p.node(jx); s != node {
			node, start = s, 0
		}
		end, run := start+ivLen[jx], ivLen[jx]
		if p.con.on {
			run = supLen[node]
		}
		at := 0.0 // where the job starts on the processors laid end to end
		for i, pos := range p.byIv[jx] {
			f := flow(node, i, pos)
			t := f
			if start != 0 || end != run {
				t = cutShare(at, f, run, start, end)
			}
			if t > 1e-15 {
				dst = append(dst, piece{k: p.cand0[pos], ivIdx: jx, t: t})
			}
			at += f
		}
		start = end
	}
	return dst
}

// cutShare is the part of [at, at+f) that falls in [start, end) of a
// processor copy, where copy c covers [c·run, (c+1)·run): the time a job
// laid out at [at, at+f) spends in the member [start, end) of a run of
// length run. f ≤ run, so the job touches at most two copies.
func cutShare(at, f, run, start, end float64) float64 {
	c := math.Floor(at/run) * run
	return max(0, min(at+f, c+end)-max(at, c+start)) +
		max(0, min(at+f, c+run+end)-max(at, c+run+start))
}
