package opt

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"mpss/internal/job"
	"mpss/internal/workload"
)

// Concurrent Schedule and MinFeasibleCap calls draw from one arena
// pool. Per instance, three goroutines run at once: one walks the job
// set the way a streaming session's deltas do (remove the first job,
// add it back last), one solves the full set and one searches its cap.
// Every result must be bit-equal to the sequential solve of the same
// job set, both when it returns and after every other solve has
// finished: a result that still shared an arena's emission buffers
// would be overwritten by a later solve. `make race` runs it under the
// race detector.
func TestConcurrentSessionsShareArenaPool(t *testing.T) {
	const instances = 6
	ins := make([]*job.Instance, instances)
	// Sequential one-shot solves of the full job set, of it without the
	// first job, and of it with the first job moved last (re-added).
	full := make([]*Result, instances)
	shortRes := make([]*Result, instances)
	readded := make([]*Result, instances)
	caps := make([]float64, instances)
	for i := range ins {
		gen := workload.Bursty
		if i%2 == 1 {
			gen = workload.Uniform
		}
		in, err := gen(workload.Spec{N: 24, M: 3, Seed: int64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		ins[i] = in
		if full[i], err = Schedule(in); err != nil {
			t.Fatal(err)
		}
		if shortRes[i], err = Schedule(&job.Instance{M: in.M, Jobs: in.Jobs[1:]}); err != nil {
			t.Fatal(err)
		}
		moved := append(append([]job.Job(nil), in.Jobs[1:]...), in.Jobs[0])
		if readded[i], err = Schedule(&job.Instance{M: in.M, Jobs: moved}); err != nil {
			t.Fatal(err)
		}
		if caps[i], err = MinFeasibleCap(in, 0); err != nil {
			t.Fatal(err)
		}
	}
	type kept struct {
		label     string
		got, want *Result
	}
	var (
		mu   sync.Mutex
		keep []kept
		wg   sync.WaitGroup
	)
	check := func(label string, got, want *Result) {
		if d := resultDiff(got, want); d != "" {
			t.Errorf("%s: %s", label, d)
		}
		mu.Lock()
		keep = append(keep, kept{label, got, want})
		mu.Unlock()
	}
	const steps = 4
	for i, in := range ins {
		wg.Add(3)
		go func() { // the session walk: remove the first job, add it back
			defer wg.Done()
			short := &job.Instance{M: in.M, Jobs: in.Jobs[1:]}
			moved := &job.Instance{M: in.M, Jobs: append(append([]job.Job(nil), in.Jobs[1:]...), in.Jobs[0])}
			for step := range steps {
				cur, want := moved, readded[i]
				if step%2 == 0 {
					cur, want = short, shortRes[i]
				}
				got, err := Schedule(cur)
				if err != nil {
					t.Error(err)
					return
				}
				check(fmt.Sprintf("instance %d walk step %d", i, step), got, want)
			}
		}()
		go func() {
			defer wg.Done()
			for step := range steps {
				got, err := Schedule(in)
				if err != nil {
					t.Error(err)
					return
				}
				check(fmt.Sprintf("instance %d Schedule %d", i, step), got, full[i])
			}
		}()
		go func() {
			defer wg.Done()
			for range steps {
				c, err := MinFeasibleCap(in, 0)
				if err != nil {
					t.Error(err)
					return
				}
				if math.Float64bits(c) != math.Float64bits(caps[i]) {
					t.Errorf("instance %d: MinFeasibleCap %v, sequential %v", i, c, caps[i])
				}
			}
		}()
	}
	wg.Wait()
	for _, k := range keep {
		if d := resultDiff(k.got, k.want); d != "" {
			t.Errorf("%s, after every other solve: %s", k.label, d)
		}
	}
}
