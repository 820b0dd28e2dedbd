package api

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"

	"mpss/internal/flow"
)

// RequestKey computes the canonical key of a solve request: a sha256
// over the endpoint kind, the solve parameters and the instance. It is
// the result-cache key inside each replica AND the consistent-hash
// routing key of the front tier — routing by it is what keeps each
// replica's LRU hot, because every repetition of an instance lands on
// the replica that already solved it. Jobs are hashed in the order
// given — the solver's output (though not its optimality) depends on
// input order, so two permutations of the same job set are distinct
// requests. Float fields are hashed by their IEEE-754 bits: the solver
// is bit-deterministic, so bit-equal inputs are exactly the requests
// with bit-equal responses.
//
// Defaultable knobs are normalized before hashing: alpha 0 means the
// server default 3, rel <= 0 means the solver's default tolerance, and
// the solve path resolves them to the same values — so the spelled-out
// and elided forms of one request share a cache entry and a flight.
//
// The decompose knob is deliberately EXCLUDED: decomposition produces
// the monolithic solve's schedule bit for bit on every tested
// distribution (the differential suite in internal/opt pins this), so
// a decomposed and a monolithic solve of the same instance are one
// logical request and share a cache entry and a flight. The exception
// is a float phase-density tie within one ulp: on the adversarial
// instance kept as fuzz seed decompose-ulp-tie the two differ by one
// ulp in one phase speed (internal/opt/decompose.go), and the cache
// answers with whichever was solved first. (The telemetry "rounds"
// field of the body also depends on the strategy; see
// OptimalResponse.)
func RequestKey(kind string, req *SolveRequest) string {
	alpha := req.Alpha
	if alpha == 0 {
		alpha = 3
	}
	rel := req.Rel
	if rel <= 0 {
		rel = flow.SolveTolerance
	}
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }

	h.Write([]byte(kind))
	h.Write([]byte{0})
	u64(uint64(req.M))
	f64(alpha)
	if req.Exact {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	f64(req.Cap)
	f64(rel)
	u64(uint64(len(req.Jobs)))
	for _, j := range req.Jobs {
		u64(uint64(j.ID))
		f64(j.Release)
		f64(j.Deadline)
		f64(j.Work)
	}
	return hex.EncodeToString(h.Sum(nil))
}
