package opt

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"mpss/internal/job"
	"mpss/internal/obs"
)

// scriptEngine is a phaseEngine whose rounds exclude scripted job sets:
// round r of phase p excludes rounds[p][r] (instance job indices), and the
// first round past the script accepts the surviving candidates. It
// records what runPhases hands to every beginPhase, so the block
// stack of runPhases can be checked without any flow arithmetic.
type scriptEngine struct {
	rounds [][][]int

	in  *job.Instance
	ivs []job.Interval

	phase, round int
	cand         []int
	alive        map[int]bool
	excluded     []int

	gotCand [][]int // candidates of each beginPhase, in call order
	gotUsed [][]int // used vector at each beginPhase
	mjs     [][]int // m_ij each accept returned
	emitScratch
}

func (e *scriptEngine) prepare(f *frame, _ *Stats, _ *obs.Recorder) {
	e.in, e.ivs = f.in, f.ivs
}

func (e *scriptEngine) beginPhase(used, cand []int, _ *obs.Span) bool {
	e.cand = slices.Clone(cand)
	e.alive = make(map[int]bool, len(cand))
	for _, k := range cand {
		e.alive[k] = true
	}
	e.round = 0
	e.gotCand = append(e.gotCand, slices.Clone(cand))
	e.gotUsed = append(e.gotUsed, slices.Clone(used))
	return false
}

func (e *scriptEngine) solveRound() int {
	e.excluded = e.excluded[:0]
	if e.phase < len(e.rounds) && e.round < len(e.rounds[e.phase]) {
		drop := e.rounds[e.phase][e.round]
		for _, k := range e.cand {
			if e.alive[k] && slices.Contains(drop, k) {
				e.excluded = append(e.excluded, k)
			}
		}
	}
	e.round++
	return len(e.excluded)
}

func (e *scriptEngine) excludedJobs(dst []int) []int { return append(dst, e.excluded...) }

func (e *scriptEngine) removeExcluded() (bool, bool) {
	for _, k := range e.excluded {
		delete(e.alive, k)
	}
	return false, len(e.alive) == 0
}

func (e *scriptEngine) dropLeastWork() (bool, bool) { panic("scriptEngine: degenerate network") }

// accept gives every interval min(active survivors, free processors) and
// spreads that much time evenly over the survivors active in it, so each
// accepted phase occupies processors the next phase's used vector shows.
func (e *scriptEngine) accept() (float64, []int, []piece) {
	used := e.gotUsed[len(e.gotUsed)-1]
	mj := make([]int, len(e.ivs))
	var pieces []piece
	for jx, iv := range e.ivs {
		var active []int
		for _, k := range e.acceptedCand() {
			if e.in.Jobs[k].ActiveIn(iv.Start, iv.End) {
				active = append(active, k)
			}
		}
		mj[jx] = min(len(active), e.in.M-used[jx])
		if mj[jx] == 0 {
			continue
		}
		t := iv.Len() * float64(mj[jx]) / float64(len(active))
		for _, k := range active {
			pieces = append(pieces, piece{k: k, ivIdx: jx, t: t})
		}
	}
	e.mjs = append(e.mjs, mj)
	e.phase++
	return 1 / float64(e.phase), mj, pieces // each phase slower than the last
}

func (e *scriptEngine) acceptedCand() []int {
	var out []int
	for _, k := range e.cand {
		if e.alive[k] {
			out = append(out, k)
		}
	}
	return out
}

func (e *scriptEngine) spanName(phase int) string { return fmt.Sprintf("phase %d", phase) }
func (e *scriptEngine) emptyErr() error           { return errors.New("scriptEngine: emptied") }

// runPhases keeps excluded jobs as a stack of blocks: each phase starts
// from the block the most recent rejected round pushed, in input order,
// with the processors the earlier phases occupied; a phase that pushes
// nothing resumes the older blocks beneath. A block that falls apart in
// time is split when popped, its earliest piece first.
func TestRunPhasesSolvesExcludedBlocksLIFO(t *testing.T) {
	in := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 0, Release: 0, Deadline: 4, Work: 1},
		{ID: 1, Release: 0, Deadline: 2, Work: 1},
		{ID: 2, Release: 2, Deadline: 4, Work: 1},
		{ID: 3, Release: 1, Deadline: 3, Work: 1},
		{ID: 4, Release: 0, Deadline: 4, Work: 1},
		{ID: 5, Release: 3, Deadline: 4, Work: 1},
		{ID: 6, Release: 0, Deadline: 1, Work: 1},
	}}
	eng := &scriptEngine{rounds: [][][]int{
		{{5, 1, 4}, {3, 6}}, // phase 1 pushes {1,4,5}, then {3,6}; accepts {0,2}
		{},                  // phase 2 pops {3,6}, which splits at t=1: {6} on [0,1), then {3} on [1,3)
		{},                  // phase 3 takes {3}
		{{4}},               // phase 4 resumes {1,4,5}, pushes {4}; accepts {1,5}
	}}
	var f frame
	f.reset(in)
	res, err := runPhases(context.Background(), &f, eng, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1, 2, 3, 4, 5, 6}, {6}, {3}, {1, 4, 5}, {4}}
	if !slices.EqualFunc(eng.gotCand, want, slices.Equal[[]int]) {
		t.Fatalf("beginPhase candidates %v, want %v", eng.gotCand, want)
	}
	if len(res.Phases) != len(want) {
		t.Fatalf("%d phases, want %d", len(res.Phases), len(want))
	}
	used := make([]int, len(res.Intervals))
	for i, got := range eng.gotUsed {
		if !slices.Equal(got, used) {
			t.Errorf("phase %d: beginPhase used %v, want %v", i+1, got, used)
		}
		for jx, m := range eng.mjs[i] {
			used[jx] += m
		}
	}
	if res.Stats.Rounds != 5+3 {
		t.Errorf("rounds = %d, want 5 accepting + 3 rejecting", res.Stats.Rounds)
	}
}
