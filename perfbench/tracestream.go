package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"time"

	"mpss"
)

const (
	// traceJobs is the size of one streamed trace: diurnal waves of ~64
	// jobs, about 44 components. A trace is one operation, so each
	// operation averages over many components and its time varies little
	// from trace to trace.
	traceJobs = 2048
	// tracePool traces are generated at set-up and streamed in turn; the
	// check replays each once, so the pool also bounds the check's cost.
	tracePool = 8
	traceM    = 8
	// traceWorkers is the component worker count. One worker keeps an
	// operation's time independent of how the host schedules the VM's
	// second CPU.
	traceWorkers = 1
)

var traceStream = workload{
	primary: classTrace,
	// At most tracePool, so every traced operation streams a distinct
	// trace and the check replays each exactly once.
	traceOps: 4,
	setup:    setupTraceStream,
}

var alpha3 = mpss.MustAlpha(3)

// traceEnv holds the generated traces and what the last run returned.
type traceEnv struct {
	traces [][]byte
	rec    *mpss.Recorder // attached only in traced runs
	// done[i] is the trace index of run operation i, got[i] its summary.
	done    []int
	got     []mpss.TraceSolveSummary
	maxComp int
}

func setupTraceStream(seed int64) (env, error) {
	rng := rand.New(rand.NewSource(seed))
	e := &traceEnv{}
	for i := 0; i < tracePool; i++ {
		var buf bytes.Buffer
		w, err := mpss.NewTraceWriter(&buf, traceM)
		if err != nil {
			return nil, err
		}
		if err := mpss.GenerateTrace(w, mpss.WorkloadSpec{N: traceJobs, M: traceM, Seed: rng.Int63()}); err != nil {
			return nil, err
		}
		if err := w.Flush(); err != nil {
			return nil, err
		}
		e.traces = append(e.traces, buf.Bytes())
	}
	// Warm-up: one untimed stream, so the first timed trace does not pay
	// for first-use allocation.
	if _, err := e.stream(0); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *traceEnv) stream(i int) (*mpss.TraceSolveSummary, error) {
	return mpss.SolveTraceStream(bytes.NewReader(e.traces[i%len(e.traces)]), alpha3,
		mpss.WithParallelism(traceWorkers), mpss.WithRecorder(e.rec))
}

func (e *traceEnv) run(stop func(int) bool, tr *tracer) (*window, error) {
	if tr != nil {
		e.rec = mpss.NewRecorder()
	}
	e.done, e.got, e.maxComp = nil, nil, 0
	w := newWindow()
	for i := 0; !stop(i); i++ {
		idx := i % len(e.traces)
		op := tr.start(spanOp, 0, i)
		st := tr.start(spanStream, op, i)
		t0 := time.Now()
		sum, err := e.stream(idx)
		d := time.Since(t0)
		tr.end(st)
		tr.end(op)
		if err != nil {
			return nil, fmt.Errorf("trace %d: %w", idx, err)
		}
		w.record(classTrace, d, sum.Jobs, true)
		e.done = append(e.done, idx)
		e.got = append(e.got, *sum)
		e.maxComp = max(e.maxComp, sum.MaxComponentJobs)
	}
	return w, nil
}

// decodeOnly reads every job of a trace and does nothing else.
func decodeOnly(data []byte) error {
	r, err := mpss.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		if _, err := r.Next(); err == io.EOF {
			return nil
		} else if err != nil {
			return err
		}
	}
}

// replay recomputes a trace's summary independently of SolveTraceStream:
// the benchmark cuts the components itself (a component closes when a
// release reaches the latest deadline seen), solves each with
// Solver.Solve and verifies each schedule with mpss.Verify.
func replay(data []byte, tr *tracer, op int) (*mpss.TraceSolveSummary, error) {
	r, err := mpss.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	sum := &mpss.TraceSolveSummary{M: r.M()}
	solver := mpss.NewSolver()
	var buf []mpss.Job
	var horizon float64
	flush := func() error {
		in := &mpss.Instance{M: sum.M, Jobs: buf}
		sp := tr.start(spanComponent, 0, op)
		res, err := solver.Solve(in)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("replaying component %d: %w", sum.Components, err)
		}
		sp = tr.start(spanVerify, 0, op)
		err = mpss.Verify(res.Schedule, in)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("component %d: %w", sum.Components, err)
		}
		sum.Components++
		sum.MaxComponentJobs = max(sum.MaxComponentJobs, len(buf))
		sum.Phases += res.Stats.Phases
		sum.Rounds += res.Stats.Rounds
		sum.Energy += res.Schedule.Energy(alpha3)
		buf = nil
		return nil
	}
	for {
		j, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if len(buf) > 0 && j.Release >= horizon {
			if err := flush(); err != nil {
				return nil, err
			}
		}
		buf = append(buf, j)
		sum.Jobs++
		horizon = max(horizon, j.Deadline)
	}
	if len(buf) > 0 {
		if err := flush(); err != nil {
			return nil, err
		}
	}
	return sum, nil
}

// check compares every summary of the last run with the replay of its
// trace; a trace whose replay fails fails every operation that streamed
// it. Untraced, the replays run on two goroutines. Traced, they run one
// at a time, each after a decode-only pass over the same bytes, so their
// spans split an operation's time into layers without contending.
func (e *traceEnv) check(tr *tracer) int {
	seen := map[int]bool{}
	var todo []int
	for _, idx := range e.done {
		if !seen[idx] {
			seen[idx] = true
			todo = append(todo, idx)
		}
	}
	workers := 2
	if tr != nil {
		workers = 1
	}
	want := map[int]*mpss.TraceSolveSummary{}
	out := make([]*mpss.TraceSolveSummary, len(todo))
	parallel(len(todo), workers, func(k int) {
		data := e.traces[todo[k]]
		sp := tr.start(spanDecode, 0, k)
		err := decodeOnly(data)
		tr.end(sp)
		if err == nil {
			out[k], err = replay(data, tr, k)
		}
		if err != nil {
			fmt.Printf("check: trace %d: %v\n", todo[k], err)
		}
	})
	for k, idx := range todo {
		want[idx] = out[k]
	}
	failed := 0
	for i, idx := range e.done {
		if want[idx] == nil || e.got[i] != *want[idx] {
			fmt.Printf("check: trace %d: summary %+v, replay %+v\n", idx, e.got[i], want[idx])
			failed++
		}
	}
	return failed
}

func (e *traceEnv) counters() map[string]float64 {
	c := map[string]float64{"opt.component_jobs_max": float64(e.maxComp)}
	addRecorder(c, e.rec)
	addRuntime(c)
	return c
}

func (e *traceEnv) close() {}
