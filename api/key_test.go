package api

import (
	"testing"

	"mpss"
	"mpss/internal/flow"
)

func testInstance() ([]mpss.Job, int) {
	return []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 1, Deadline: 5, Work: 6},
		{ID: 3, Release: 2, Deadline: 8, Work: 4},
	}, 2
}

// The request key must not distinguish a request that spells out a
// default from one that elides it: alpha 0 means 3, rel <= 0 means the
// solver's default tolerance, and the solve path resolves both the same
// way — distinct keys would split one logical request across cache
// entries, flights and ring positions.
func TestRequestKeyNormalizesDefaults(t *testing.T) {
	jobs, m := testInstance()
	base := SolveRequest{M: m, Jobs: jobs}

	withAlpha := base
	withAlpha.Alpha = 3
	if RequestKey("optimal", &base) != RequestKey("optimal", &withAlpha) {
		t.Error("alpha elided vs alpha:3 produced different keys")
	}

	withRel := base
	withRel.Rel = flow.SolveTolerance
	if RequestKey("mincap", &base) != RequestKey("mincap", &withRel) {
		t.Error("rel elided vs rel:default produced different keys")
	}

	negRel := base
	negRel.Rel = -1
	if RequestKey("mincap", &base) != RequestKey("mincap", &negRel) {
		t.Error("rel:-1 did not normalize to the default tolerance")
	}

	otherAlpha := base
	otherAlpha.Alpha = 2
	if RequestKey("optimal", &base) == RequestKey("optimal", &otherAlpha) {
		t.Error("alpha:2 collided with the default alpha")
	}

	otherRel := base
	otherRel.Rel = 0.5
	if RequestKey("mincap", &base) == RequestKey("mincap", &otherRel) {
		t.Error("rel:0.5 collided with the default rel")
	}
}
