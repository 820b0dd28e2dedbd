package api

import (
	"encoding/json"
	"testing"

	"mpss"
)

func testInstance() ([]mpss.Job, int) {
	return []mpss.Job{
		{ID: 1, Release: 0, Deadline: 4, Work: 8},
		{ID: 2, Release: 1, Deadline: 5, Work: 6},
		{ID: 3, Release: 2, Deadline: 8, Work: 4},
	}, 2
}

// The request key must not distinguish a request that spells out a
// default from one that elides it: alpha 0 means 3, and the solve path
// resolves both the same way — distinct keys would split one logical
// request across cache entries, flights and ring positions. A body that
// still sends the removed mincap tolerance "rel" decodes without it and
// shares the key.
func TestRequestKeyNormalizesDefaults(t *testing.T) {
	jobs, m := testInstance()
	base := SolveRequest{M: m, Jobs: jobs}

	withAlpha := base
	withAlpha.Alpha = 3
	if RequestKey("optimal", &base) != RequestKey("optimal", &withAlpha) {
		t.Error("alpha elided vs alpha:3 produced different keys")
	}

	otherAlpha := base
	otherAlpha.Alpha = 2
	if RequestKey("optimal", &base) == RequestKey("optimal", &otherAlpha) {
		t.Error("alpha:2 collided with the default alpha")
	}

	body, err := json.Marshal(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"0.5", "-1", "1e-9"} {
		var withRel SolveRequest
		if err := json.Unmarshal(append(body[:len(body)-1:len(body)-1], `,"rel":`+rel+`}`...), &withRel); err != nil {
			t.Fatal(err)
		}
		if RequestKey("mincap", &base) != RequestKey("mincap", &withRel) {
			t.Errorf("rel:%s changed the mincap key", rel)
		}
	}
}

// TestRequestKeyBytesPinned pins the key bytes: a cache or ring keyed by
// an earlier build keeps finding its entries. The mincap tolerance the
// key once hashed survives as the constant flow.SolveTolerance.
func TestRequestKeyBytesPinned(t *testing.T) {
	jobs, m := testInstance()
	base := SolveRequest{M: m, Jobs: jobs}
	atcap := base
	atcap.Cap, atcap.Exact, atcap.Alpha = 10, true, 2
	for _, c := range []struct {
		kind string
		req  *SolveRequest
		want string
	}{
		{"mincap", &base, "fafd0d3e049e5248428d549083fa78c1c1f88cf1e3a9f9cd99dcdc97e533c5f0"},
		{"optimal", &base, "69e012f1ff828faa54f3fafee46b6a4804079649e84f41598b4039bbd50762b1"},
		{"atcap", &atcap, "d7a0b5c76a8f7a6f62abf511e59e57c549c3345441513b5c275bd77c5211c5a2"},
	} {
		if got := RequestKey(c.kind, c.req); got != c.want {
			t.Errorf("%s key %s, pinned %s", c.kind, got, c.want)
		}
	}
}
