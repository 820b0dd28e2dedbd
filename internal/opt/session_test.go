package opt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"mpss/internal/job"
	"mpss/internal/mpsserr"
	"mpss/internal/obs"
	"mpss/internal/workload"
)

// The session contract: a job set built by N arbitrary deltas resolves
// to exactly what a one-shot solve of the final instance produces —
// phase structure, speeds and schedule segments all bit-identical.
func TestSessionMatchesOneShotFloat(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed*977 + 11))
		sess, err := NewSession(in)
		if err != nil {
			t.Fatal(err)
		}
		jobs := append([]job.Job(nil), in.Jobs...)
		nextID := 10_000
		for step := 0; step < 8; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(jobs) > 2:
				i := rng.Intn(len(jobs))
				if err := sess.RemoveJob(jobs[i].ID); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs[:i], jobs[i+1:]...)
			case op == 1:
				r := rng.Float64() * 8
				j := job.Job{ID: nextID, Release: r, Deadline: r + 1 + rng.Float64()*4, Work: 0.5 + rng.Float64()*3}
				nextID++
				if err := sess.AddJob(j); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			default:
				// Retune the cap between two robustly-classifiable
				// values; the near-threshold verdict is probed by
				// TestSessionCapFeasibleMatchesProbe instead.
				c := 1000.0
				if step%2 == 1 {
					c = 1e-6
				}
				if err := sess.SetCap(c); err != nil {
					t.Fatal(err)
				}
			}
			got, err := sess.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			cur := &job.Instance{M: in.M, Jobs: jobs}
			want, err := Schedule(cur)
			if err != nil {
				t.Fatal(err)
			}
			comparePhases(t, seed*100+int64(step), got.Res, want)
			if got.Cap > 0 {
				wantFeas, err := FeasibleAtSpeed(cur, got.Cap, WithContext(context.Background()))
				if err != nil {
					t.Fatal(err)
				}
				if got.CapFeasible != wantFeas {
					t.Fatalf("seed %d step %d: cap %v verdict %v, probe says %v",
						seed, step, got.Cap, got.CapFeasible, wantFeas)
				}
			}
		}
	}
}

// Same differential through the exact rational engine.
func TestSessionMatchesOneShotExact(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 12, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed*31 + 5))
		sess, err := NewSession(in, Exact())
		if err != nil {
			t.Fatal(err)
		}
		jobs := append([]job.Job(nil), in.Jobs...)
		nextID := 20_000
		for step := 0; step < 4; step++ {
			if step%2 == 0 && len(jobs) > 2 {
				i := rng.Intn(len(jobs))
				if err := sess.RemoveJob(jobs[i].ID); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs[:i], jobs[i+1:]...)
			} else {
				r := rng.Float64() * 6
				j := job.Job{ID: nextID, Release: r, Deadline: r + 1 + rng.Float64()*3, Work: 0.5 + rng.Float64()*2}
				nextID++
				if err := sess.AddJob(j); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			}
			got, err := sess.Resolve(nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := Schedule(&job.Instance{M: in.M, Jobs: jobs}, Exact())
			if err != nil {
				t.Fatal(err)
			}
			comparePhases(t, seed*100+int64(step), got.Res, want)
		}
	}
}

// Sessions address jobs by ID, so the instance check at NewSession must
// reject duplicate IDs as invalid input.
func TestNewSessionRejectsDuplicateIDs(t *testing.T) {
	in := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 7, Release: 0, Deadline: 1, Work: 1},
		{ID: 7, Release: 0, Deadline: 2, Work: 1},
	}}
	if _, err := NewSession(in); !errors.Is(err, mpsserr.ErrInvalidInstance) {
		t.Fatalf("NewSession with duplicate IDs: err = %v, want ErrInvalidInstance", err)
	}
}

// flatSession builds an instance whose jobs all share the window
// [0, 10]: the event-point partition is a single interval and survives
// any removal.
func flatSession(n int) *job.Instance {
	jobs := make([]job.Job, n)
	for i := range jobs {
		jobs[i] = job.Job{ID: i + 1, Release: 0, Deadline: 10, Work: 1 + 0.1*float64(i%5)}
	}
	return &job.Instance{M: 3, Jobs: jobs}
}

// sessionCostCounters are the solver work counters a resolve and a
// one-shot solve must agree on.
var sessionCostCounters = []string{
	"opt.rounds", "opt.phases", "opt.graph_rebuilds", "opt.emit_rebuilds",
	"flow.solves", "flow.dinic.aug_paths", "flow.dinic.bfs_passes", "flow.dinic.edges_scanned",
}

// checkResolveMatchesOneShot resolves the session and compares it with
// a one-shot solve of jobs on a fresh solver and recorder: phases and
// segments bit-equal, the cap verdict equal to FeasibleAtSpeed's,
// and, when rec is the session's recorder, the resolve's counter deltas
// equal to the one-shot's.
func checkResolveMatchesOneShot(t *testing.T, label string, sess *Session, rec *obs.Recorder, m int, jobs []job.Job) {
	t.Helper()
	before := rec.Snapshot().Counters
	got, err := sess.Resolve(nil)
	if err != nil {
		t.Fatalf("%s: resolve: %v", label, err)
	}
	after := rec.Snapshot().Counters

	oneRec := obs.New()
	cur := &job.Instance{M: m, Jobs: append([]job.Job(nil), jobs...)}
	want, err := Schedule(cur, WithRecorder(oneRec))
	if err != nil {
		t.Fatalf("%s: one-shot: %v", label, err)
	}
	if d := resultDiff(got.Res, want); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
	if got.Cap != sess.Cap() {
		t.Fatalf("%s: cap %v echoed, session holds %v", label, got.Cap, sess.Cap())
	}
	if got.Cap > 0 {
		wantFeas, err := FeasibleAtSpeed(cur, got.Cap, WithContext(context.Background()), WithRecorder(oneRec))
		if err != nil {
			t.Fatal(err)
		}
		if got.CapFeasible != wantFeas {
			t.Fatalf("%s: cap %v verdict %v, probe says %v", label, got.Cap, got.CapFeasible, wantFeas)
		}
	}
	if rec == nil {
		return
	}
	one := oneRec.Snapshot().Counters
	for _, k := range sessionCostCounters {
		if d := after[k] - before[k]; d != one[k] {
			t.Fatalf("%s: resolve added %s %d, one-shot %d", label, k, d, one[k])
		}
	}
}

// A resolve costs what a one-shot solve of the same job set costs, op
// for op, over a random walk of add, remove and cap deltas. The first
// walk starts by removing a job whose window endpoints no other job
// shares, so the event-point partition changes under the session.
func TestSessionResolveCountsMatchOneShot(t *testing.T) {
	partition := &job.Instance{M: 2, Jobs: []job.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 3},
		{ID: 2, Release: 1, Deadline: 5, Work: 2},
		{ID: 3, Release: 2, Deadline: 9, Work: 4},
		{ID: 4, Release: 0, Deadline: 9, Work: 1},
	}}
	instances := []*job.Instance{partition, flatSession(12)}
	for seed := int64(0); seed < 4; seed++ {
		in, err := workload.Bursty(workload.Spec{N: 24, M: 3, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		instances = append(instances, in)
	}
	for x, in := range instances {
		rng := rand.New(rand.NewSource(int64(x)*131 + 7))
		rec := obs.New()
		sess, err := NewSession(in, WithRecorder(rec))
		if err != nil {
			t.Fatal(err)
		}
		jobs := append([]job.Job(nil), in.Jobs...)
		label := func(step int) string { return fmt.Sprintf("instance %d step %d", x, step) }
		checkResolveMatchesOneShot(t, label(0), sess, rec, in.M, jobs)
		if x == 0 {
			// Job 2's endpoints 1 and 5 are not shared with any other job.
			if err := sess.RemoveJob(2); err != nil {
				t.Fatal(err)
			}
			jobs = append(jobs[:1:1], jobs[2:]...)
			checkResolveMatchesOneShot(t, label(1), sess, rec, in.M, jobs)
		}
		nextID := 10_000
		for step := 2; step < 10; step++ {
			switch op := rng.Intn(3); {
			case op == 0 && len(jobs) > 1:
				i := rng.Intn(len(jobs))
				if err := sess.RemoveJob(jobs[i].ID); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs[:i], jobs[i+1:]...)
			case op == 1:
				r := rng.Float64() * 8
				j := job.Job{ID: nextID, Release: r, Deadline: r + 1 + rng.Float64()*4, Work: 0.5 + rng.Float64()*3}
				nextID++
				if err := sess.AddJob(j); err != nil {
					t.Fatal(err)
				}
				jobs = append(jobs, j)
			default:
				if err := sess.SetCap([]float64{0, 0.3, 2, 1000}[rng.Intn(4)]); err != nil {
					t.Fatal(err)
				}
			}
			checkResolveMatchesOneShot(t, label(step), sess, rec, in.M, jobs)
		}
	}
}

// FuzzSessionDeltas decodes the fuzz bytes into batches of add, remove
// and cap deltas over a generated instance. Initially and after every
// batch the resolve must match a one-shot Schedule of the session's job set,
// phases and segments bit-equal, and its cap verdict must be
// FeasibleAtSpeed's.
//
// Byte stream: each op byte selects, by its value mod 4, a removal (next
// byte: which job), an add (next three bytes: release, window, work), a
// cap retune (next byte: which cap) or the end of the batch. A removal
// that would empty the session is skipped.
func FuzzSessionDeltas(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), []byte{0, 3, 3, 1, 9, 40, 7, 3, 2, 1, 3})
	f.Add(int64(2), uint8(3), uint8(1), []byte{0, 0, 0, 0, 0, 0, 3, 2, 2, 3})
	f.Add(int64(3), uint8(10), uint8(3), []byte{2, 3, 3, 1, 200, 255, 1, 1, 0, 0, 0, 0, 3})
	f.Add(int64(-4), uint8(1), uint8(4), []byte{1, 17, 5, 99, 0, 0, 2, 4, 3, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawM uint8, ops []byte) {
		m := 1 + int(rawM%4)
		jobs := fuzzJobs(seed, 1+int(rawN%12))
		sess, err := NewSession(&job.Instance{M: m, Jobs: jobs})
		if err != nil {
			t.Fatalf("generator produced invalid instance: %v", err)
		}
		caps := []float64{0, 1e-6, 0.05, 0.5, 1, 3, 1000}
		next := func() byte {
			if len(ops) == 0 {
				return 3
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		checkResolveMatchesOneShot(t, "initial", sess, nil, m, jobs)
		nextID := 1000
		for batch := 0; batch < 8 && len(ops) > 0; batch++ {
			for op := next(); op%4 != 3; op = next() {
				switch op % 4 {
				case 0:
					i := int(next()) % len(jobs)
					if len(jobs) == 1 {
						continue
					}
					if err := sess.RemoveJob(jobs[i].ID); err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs[:i], jobs[i+1:]...)
				case 1:
					r := float64(next()) / 8
					j := job.Job{ID: nextID, Release: r, Deadline: r + 0.05 + float64(next())/16, Work: 0.05 + float64(next())/32}
					nextID++
					if err := sess.AddJob(j); err != nil {
						t.Fatal(err)
					}
					jobs = append(jobs, j)
				case 2:
					if err := sess.SetCap(caps[int(next())%len(caps)]); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkResolveMatchesOneShot(t, fmt.Sprintf("batch %d", batch), sess, nil, m, jobs)
		}
	})
}

// The cap verdict must be FeasibleAtSpeed's for every cap retune and
// across removals.
func TestSessionCapFeasibleMatchesProbe(t *testing.T) {
	in := flatSession(12)
	sess, err := NewSession(in)
	if err != nil {
		t.Fatal(err)
	}
	jobs := append([]job.Job(nil), in.Jobs...)
	caps := []float64{1000, 0.1, 2, 0.3, 50}
	for i, c := range caps {
		if i == 2 {
			// A removal between retunes.
			if err := sess.RemoveJob(jobs[0].ID); err != nil {
				t.Fatal(err)
			}
			jobs = jobs[1:]
		}
		if err := sess.SetCap(c); err != nil {
			t.Fatal(err)
		}
		got, err := sess.Resolve(nil)
		if err != nil {
			t.Fatal(err)
		}
		cur := &job.Instance{M: in.M, Jobs: jobs}
		want, err := FeasibleAtSpeed(cur, c, WithContext(context.Background()))
		if err != nil {
			t.Fatal(err)
		}
		if got.CapFeasible != want {
			t.Fatalf("cap %v: session verdict %v, probe says %v", c, got.CapFeasible, want)
		}
	}
}

// Sessions hold no solver scratch, so any number of them resolve
// concurrently while one-shot Schedule and MinFeasibleCap calls draw
// from the same arena pool. Every result must be bit-equal to the
// sequential one-shot solve of the same job set, both when it returns
// and after every other solve has finished: a result that still shared
// an arena's emission buffers would be overwritten by a later solve.
// `make race` runs it under the race detector.
func TestConcurrentSessionsShareArenaPool(t *testing.T) {
	const instances = 6
	ins := make([]*job.Instance, instances)
	// Sequential one-shot solves of the full job set, of it without the
	// first job, and of it with the first job moved last (re-added).
	full := make([]*Result, instances)
	short := make([]*Result, instances)
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
		if short[i], err = Schedule(&job.Instance{M: in.M, Jobs: in.Jobs[1:]}); err != nil {
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
		go func() { // a session: remove the first job, add it back
			defer wg.Done()
			sess, err := NewSession(in)
			if err != nil {
				t.Error(err)
				return
			}
			for step := range steps {
				want := readded[i]
				if step%2 == 0 {
					if err := sess.RemoveJob(in.Jobs[0].ID); err != nil {
						t.Error(err)
						return
					}
					want = short[i]
				} else if err := sess.AddJob(in.Jobs[0]); err != nil {
					t.Error(err)
					return
				}
				got, err := sess.Resolve(nil)
				if err != nil {
					t.Error(err)
					return
				}
				check(fmt.Sprintf("instance %d session step %d", i, step), got.Res, want)
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
