package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"mpss/api"
	"net/http"
	"slices"
	"testing"

	"mpss"
)

// fuzzJobs draws n valid jobs with short windows inside [0, 10].
func fuzzJobs(seed int64, n int) []mpss.Job {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]mpss.Job, n)
	for i := range jobs {
		r := rng.Float64() * 8
		jobs[i] = mpss.Job{ID: i + 1, Release: r, Deadline: r + 0.1 + rng.Float64()*2, Work: 0.05 + rng.Float64()*2}
	}
	return jobs
}

// FuzzSessionDeltas decodes the fuzz bytes into api.SessionDeltaRequest
// batches of add, remove and cap mutations over a generated instance
// and posts each, as JSON, through the handler. The initial reply and
// every accepted batch's reply must be the one-shot answer for the job
// set the batch leaves (/v1/solve/optimal, phases and segments bit for
// bit) and carry /v1/feasible's cap verdict. A faulty batch must be
// rejected with 400 and leave the session as it was.
//
// Byte stream: each op byte selects, by its value mod 4, a removal (next
// byte: which job), an add (next three bytes: release, window, work), a
// cap retune (next byte: which cap) or the end of the batch. A removal
// or add op byte of 128 or more makes the mutation faulty instead — a
// removal of an unknown ID, or an add repeating the batch's last added
// ID (a job whose deadline is its release when there is none) — and
// with it the whole batch. A removal that would empty the session is skipped. rawN's top
// bit opens an exact session.
func FuzzSessionDeltas(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(2), []byte{0, 3, 3, 1, 9, 40, 7, 3, 2, 1, 3})
	f.Add(int64(2), uint8(3), uint8(1), []byte{0, 0, 0, 0, 0, 0, 3, 2, 2, 3})
	f.Add(int64(3), uint8(10), uint8(3), []byte{2, 3, 3, 1, 200, 255, 1, 1, 0, 0, 0, 0, 3})
	f.Add(int64(-4), uint8(1), uint8(4), []byte{1, 17, 5, 99, 0, 0, 2, 4, 3, 0, 1})
	f.Add(int64(5), uint8(0x85), uint8(2), []byte{129, 2, 3, 0, 1, 1, 20, 30, 40, 3, 128, 9, 3, 2, 5})
	s := New(Config{Workers: 1, CacheEntries: -1})
	shutdown(f, s)
	caps := []float64{0, 1e-6, 0.05, 0.5, 1, 3, 1000}
	f.Fuzz(func(t *testing.T, seed int64, rawN, rawM uint8, ops []byte) {
		next := func() byte {
			if len(ops) == 0 {
				return 3
			}
			b := ops[0]
			ops = ops[1:]
			return b
		}
		w := openWalk(t, s, sessionModel{m: 1 + int(rawM%4), exact: rawN&0x80 != 0, jobs: fuzzJobs(seed, 1+int(rawN&0x7f)%12)})
		defer serve(t, s, http.MethodDelete, w.base, nil)
		nextID := 1000
		for batch := 0; batch < 8 && len(ops) > 0; batch++ {
			var req api.SessionDeltaRequest
			faulty := false
			left := len(w.jobs)
			for op := next(); op%4 != 3; op = next() {
				faulty = faulty || op >= 128 && op%4 < 2
				switch op % 4 {
				case 0:
					b := int(next())
					switch {
					case op >= 128:
						req.RemoveIDs = append(req.RemoveIDs, 1<<20)
					case left > 1:
						var alive []int
						for _, j := range w.jobs {
							if !slices.Contains(req.RemoveIDs, j.ID) {
								alive = append(alive, j.ID)
							}
						}
						if len(alive) > 0 {
							req.RemoveIDs = append(req.RemoveIDs, alive[b%len(alive)])
							left--
						}
					}
				case 1:
					r := float64(next()) / 8
					j := mpss.Job{ID: nextID, Release: r, Deadline: r + 0.05 + float64(next())/16, Work: 0.05 + float64(next())/32}
					nextID++
					if op >= 128 {
						if n := len(req.AddJobs); n > 0 {
							j.ID = req.AddJobs[n-1].ID
						} else {
							j.Deadline = j.Release
						}
					}
					req.AddJobs = append(req.AddJobs, j)
					left++
				case 2:
					c := caps[int(next())%len(caps)]
					req.Cap = &c
				}
			}
			label := fmt.Sprintf("batch %d", batch)
			code, body := serve(t, s, http.MethodPost, w.base+"/delta", req)
			if !faulty {
				w.accept(t, label, req, code, body)
				continue
			}
			var eb api.ErrorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("%s: %v (%.300s)", label, err, body)
			}
			if code != http.StatusBadRequest || eb.Error.Kind != "invalid_instance" {
				t.Fatalf("%s: faulty batch %+v: status %d kind %q, want 400 invalid_instance", label, req, code, eb.Error.Kind)
			}
			code, body = serve(t, s, http.MethodGet, w.base, nil)
			if code != http.StatusOK {
				t.Fatalf("%s: get: status %d (%.300s)", label, code, body)
			}
			if sr := w.check(t, s, label+" rejected", body); sr.Seq != w.seq {
				t.Fatalf("%s: seq %d after a rejected batch, want %d", label, sr.Seq, w.seq)
			}
		}
	})
}
