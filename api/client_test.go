package api_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"testing"

	"mpss"
	"mpss/api"
	"mpss/internal/server"
)

func newTestServer(t *testing.T) *api.Client {
	t.Helper()
	srv := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Shutdown(context.Background())
	})
	return api.NewClient(ts.URL)
}

func testRequest() *api.SolveRequest {
	return &api.SolveRequest{
		M: 2,
		Jobs: []mpss.Job{
			{ID: 1, Release: 0, Deadline: 4, Work: 8},
			{ID: 2, Release: 1, Deadline: 5, Work: 3},
			{ID: 3, Release: 2, Deadline: 8, Work: 6},
		},
	}
}

func TestClientSolveRoundtrip(t *testing.T) {
	c := newTestServer(t)
	res, err := c.Solve(context.Background(), testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Errorf("energy = %v, want > 0", res.Energy)
	}
	if res.Alpha != 3 {
		t.Errorf("alpha = %v, want default 3", res.Alpha)
	}
	if len(res.Phases) == 0 {
		t.Error("no phases in optimal response")
	}
}

func TestClientTypedError(t *testing.T) {
	c := newTestServer(t)
	req := testRequest()
	req.Cap = 0.001 // far below the minimum feasible speed
	_, err := c.AtCap(context.Background(), req)
	var apiErr *api.Error
	if !errors.As(err, &apiErr) {
		t.Fatalf("error type %T, want *api.Error", err)
	}
	if apiErr.Status != 422 || apiErr.Kind != "infeasible" {
		t.Errorf("got status %d kind %q, want 422 infeasible", apiErr.Status, apiErr.Kind)
	}
	if apiErr.RequestID == "" {
		t.Error("error carries no request ID")
	}
}

func TestClientRequestIDPinned(t *testing.T) {
	c := newTestServer(t)
	ctx := api.WithRequestID(context.Background(), "pinned-id-1")
	res, err := c.DoRaw(ctx, "GET", "/v1/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RequestID != "pinned-id-1" {
		t.Errorf("echoed request ID %q, want pinned-id-1", res.RequestID)
	}
}

func TestClientMinCapAndFeasible(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	mc, err := c.MinCap(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if mc.Cap <= 0 {
		t.Fatalf("min cap = %v, want > 0", mc.Cap)
	}
	req := testRequest()
	req.Cap = mc.Cap * 2
	fr, err := c.Feasible(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !fr.Feasible {
		t.Errorf("cap %v (2x min cap) reported infeasible", req.Cap)
	}
}

func TestClientSessionLifecycle(t *testing.T) {
	c := newTestServer(t)
	ctx := context.Background()
	sess, err := c.SessionCreate(ctx, testRequest())
	if err != nil {
		t.Fatal(err)
	}
	if sess.SessionID == "" {
		t.Fatal("empty session ID")
	}
	upd, err := c.SessionDelta(ctx, sess.SessionID, &api.SessionDeltaRequest{
		AddJobs: []mpss.Job{{ID: 9, Release: 0, Deadline: 10, Work: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if upd.Jobs != 4 {
		t.Errorf("jobs after delta = %d, want 4", upd.Jobs)
	}
	if err := c.SessionDelete(ctx, sess.SessionID); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SessionPoll(ctx, sess.SessionID, 0, 0); err == nil {
		t.Error("poll after delete succeeded, want error")
	}
}

// An error body's only top-level key is "error", and DecodeError reads
// the envelope back into the typed error.
func TestErrorBodyEnvelopeOnly(t *testing.T) {
	data, err := json.Marshal(api.NewErrorBody("infeasible", "no schedule", "req-1"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatal(err)
	}
	if _, ok := top["error"]; !ok || len(top) != 1 {
		t.Errorf("top-level keys of %s: want exactly \"error\"", data)
	}
	e := api.DecodeError(422, "", data)
	if e.Kind != "infeasible" || e.Message != "no schedule" || e.RequestID != "req-1" {
		t.Errorf("decoded %+v", e)
	}
}
