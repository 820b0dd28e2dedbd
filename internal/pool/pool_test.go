package pool

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestMapOrder(t *testing.T) {
	out, err := Map(100, 8, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	out, err := Map(0, 4, func(int) (int, error) { return 0, nil })
	if err != nil || out != nil {
		t.Errorf("Map(0) = %v, %v", out, err)
	}
}

func TestMapErrors(t *testing.T) {
	if _, err := Map(-1, 1, func(int) (int, error) { return 0, nil }); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := Map[int](3, 1, nil); err == nil {
		t.Error("nil fn accepted")
	}
	sentinel := errors.New("boom")
	_, err := Map(50, 4, func(i int) (int, error) {
		if i == 17 {
			return 0, sentinel
		}
		return i, nil
	})
	if err == nil || !errors.Is(err, sentinel) {
		t.Errorf("error not propagated: %v", err)
	}
}

// Map's early stop, asserted without timing: a worker whose task fails
// starts no further task, and the error returned is a failed task's.
// How many tasks another worker starts before the failure is visible to
// it depends on scheduling, so no test bounds that count.
func TestMapStopsEarlyAfterError(t *testing.T) {
	fail := errors.New("fail fast")
	var calls atomic.Int64
	_, err := Map(10000, 1, func(i int) (int, error) {
		calls.Add(1)
		if i == 0 {
			return 0, fail
		}
		return i, nil
	})
	if !errors.Is(err, fail) || calls.Load() != 1 {
		t.Fatalf("one worker, failing task 0: err %v after %d calls, want %v after 1", err, calls.Load(), fail)
	}

	// Two workers, each holding one of the first two tasks (each waits
	// until the other has started), and both tasks fail: no third starts.
	errs := []error{errors.New("task 0"), errors.New("task 1")}
	var started sync.WaitGroup
	started.Add(2)
	calls.Store(0)
	_, err = Map(10000, 2, func(i int) (int, error) {
		if calls.Add(1) > 2 {
			return i, nil
		}
		started.Done()
		started.Wait()
		return 0, errs[i]
	})
	if !errors.Is(err, errs[0]) && !errors.Is(err, errs[1]) {
		t.Fatalf("two failing workers: err %v, want one of %v", err, errs)
	}
	if calls.Load() != 2 {
		t.Fatalf("two failing workers: %d calls, want 2", calls.Load())
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(100, 0, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Errorf("sum = %d", sum.Load())
	}
	if err := ForEach(1, 1, nil); err == nil {
		t.Error("nil fn accepted")
	}
}

// Property: results match the sequential computation for any worker count.
func TestMapMatchesSequentialProperty(t *testing.T) {
	f := func(rawN, rawW uint8) bool {
		n := int(rawN % 64)
		w := int(rawW%8) + 1
		out, err := Map(n, w, func(i int) (int, error) { return 3*i + 1, nil })
		if err != nil {
			return false
		}
		for i, v := range out {
			if v != 3*i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroupCoalesces(t *testing.T) {
	var g Group[int]
	lead, leader := g.Join("k")
	follow, again := g.Join("k")
	if !leader || again || follow != lead {
		t.Fatalf("join: leader=%v again=%v same=%v", leader, again, follow == lead)
	}
	if other, ok := g.Join("other"); !ok || other == lead {
		t.Fatal("a second key must lead its own call")
	}
	g.Finish("k", lead, 7)
	<-follow.Done()
	if follow.Val() != 7 {
		t.Fatalf("follower got %d, want 7", follow.Val())
	}
	if _, ok := g.Join("k"); !ok {
		t.Fatal("join after finish must lead a fresh call")
	}
}
