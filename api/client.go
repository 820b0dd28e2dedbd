package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// Client is a typed HTTP client for the mpss service API. It speaks to
// one base URL — a single mpss-served replica or an mpss-front cluster
// tier, which expose the same /v1/* surface — and gives every call
// request-ID plumbing, a default deadline, bounded response reading and
// the uniform error mapping (non-2xx bodies decode into *Error).
//
// The zero value is not usable; construct with NewClient. A Client is
// safe for concurrent use.
type Client struct {
	base string
	http *http.Client
	// timeout applies when the caller's context has no deadline.
	timeout time.Duration
	// newID mints request IDs for calls whose context carries none.
	newID func() string
	// maxBody bounds how much of a response body is read.
	maxBody int64
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (connection
// pool limits, transports, test doubles).
func WithHTTPClient(h *http.Client) ClientOption {
	return func(c *Client) { c.http = h }
}

// WithClientTimeout sets the default per-call deadline applied when the
// caller's context has none (default 30s; 0 disables).
func WithClientTimeout(d time.Duration) ClientOption {
	return func(c *Client) { c.timeout = d }
}

// WithRequestIDs substitutes the request-ID generator (e.g. a sequence
// for deterministic tests).
func WithRequestIDs(f func() string) ClientOption {
	return func(c *Client) { c.newID = f }
}

// NewClient returns a client for the service at base, e.g.
// "http://127.0.0.1:8080".
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{
		base:    trimTrailingSlash(base),
		http:    &http.Client{},
		timeout: 30 * time.Second,
		newID:   NewRequestID,
		maxBody: 32 << 20,
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Base returns the base URL the client targets.
func (c *Client) Base() string { return c.base }

func trimTrailingSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// ctxKey is the private context-key namespace of this package.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// WithRequestID pins the X-Request-ID the client sends for calls made
// under this context (load generators stamp their own sequence IDs;
// proxies forward the inbound one).
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// RequestIDFrom returns the request ID pinned by WithRequestID ("" if
// none).
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// Result is the transport-level outcome of one call: the HTTP status,
// the echoed request ID, and the raw body. Typed helpers decode Body
// further; raw callers (load generators, proxies) consume it directly.
type Result struct {
	Status    int
	RequestID string
	Body      []byte
	Header    http.Header
}

// DoRaw issues one request with the client's plumbing — request ID
// (from WithRequestID or freshly minted), default deadline, JSON
// content type, bounded body read — and returns the transport-level
// result without interpreting the status. The error is non-nil only
// for transport failures (connection, deadline, oversized body).
func (c *Client) DoRaw(ctx context.Context, method, path string, body []byte) (*Result, error) {
	if _, ok := ctx.Deadline(); !ok && c.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.timeout)
		defer cancel()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, fmt.Errorf("api: building request: %w", err)
	}
	id := RequestIDFrom(ctx)
	if id == "" {
		id = c.newID()
	}
	req.Header.Set(HeaderRequestID, id)
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, c.maxBody))
	if err != nil {
		return nil, fmt.Errorf("api: reading response: %w", err)
	}
	echoed := resp.Header.Get(HeaderRequestID)
	if echoed == "" {
		echoed = id
	}
	return &Result{Status: resp.StatusCode, RequestID: echoed, Body: data, Header: resp.Header}, nil
}

// Do issues one JSON call: in (when non-nil) is marshaled as the body,
// a 2xx response body is unmarshaled into out (when non-nil), and a
// non-2xx response decodes into a returned *Error.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return fmt.Errorf("api: encoding request: %w", err)
		}
	}
	res, err := c.DoRaw(ctx, method, path, body)
	if err != nil {
		return err
	}
	if res.Status < 200 || res.Status > 299 {
		return DecodeError(res.Status, res.RequestID, res.Body)
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(res.Body, out); err != nil {
		return fmt.Errorf("api: decoding %s response: %w", path, err)
	}
	return nil
}

// DecodeError turns a non-2xx body into the typed *Error, falling back
// to the bare status when the envelope is missing or malformed.
func DecodeError(status int, requestID string, body []byte) *Error {
	e := &Error{Status: status, Kind: "http_" + strconv.Itoa(status), Message: statusText(status), RequestID: requestID}
	var eb ErrorBody
	if json.Unmarshal(body, &eb) != nil || eb.Error.Kind == "" {
		return e
	}
	e.Kind, e.Message = eb.Error.Kind, eb.Error.Message
	if eb.Error.RequestID != "" {
		e.RequestID = eb.Error.RequestID
	}
	return e
}

// Solve posts req to /v1/solve/optimal.
func (c *Client) Solve(ctx context.Context, req *SolveRequest) (*OptimalResponse, error) {
	var out OptimalResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/solve/optimal", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// OA posts req to /v1/solve/oa.
func (c *Client) OA(ctx context.Context, req *SolveRequest) (*OnlineResponse, error) {
	var out OnlineResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/solve/oa", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AVR posts req to /v1/solve/avr.
func (c *Client) AVR(ctx context.Context, req *SolveRequest) (*OnlineResponse, error) {
	var out OnlineResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/solve/avr", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// AtCap posts req to /v1/solve/atcap.
func (c *Client) AtCap(ctx context.Context, req *SolveRequest) (*AtCapResponse, error) {
	var out AtCapResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/solve/atcap", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Feasible posts req to /v1/feasible.
func (c *Client) Feasible(ctx context.Context, req *SolveRequest) (*FeasibleResponse, error) {
	var out FeasibleResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/feasible", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// MinCap posts req to /v1/mincap.
func (c *Client) MinCap(ctx context.Context, req *SolveRequest) (*MinCapResponse, error) {
	var out MinCapResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/mincap", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionCreate opens a streaming session.
func (c *Client) SessionCreate(ctx context.Context, req *SolveRequest) (*SessionResponse, error) {
	var out SessionResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/session", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionDelta applies one mutation batch to the session and returns
// the incremental resolve.
func (c *Client) SessionDelta(ctx context.Context, id string, req *SessionDeltaRequest) (*SessionResponse, error) {
	var out SessionResponse
	if err := c.Do(ctx, http.MethodPost, "/v1/session/"+url.PathEscape(id)+"/delta", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionPoll fetches the session's latest resolve. waitSeq >= 0
// long-polls until a resolve newer than waitSeq exists or timeoutMS
// passes (0 = server default).
func (c *Client) SessionPoll(ctx context.Context, id string, waitSeq int64, timeoutMS int64) (*SessionResponse, error) {
	path := "/v1/session/" + url.PathEscape(id)
	q := url.Values{}
	if waitSeq >= 0 {
		q.Set("wait_seq", strconv.FormatInt(waitSeq, 10))
	}
	if timeoutMS > 0 {
		q.Set("timeout_ms", strconv.FormatInt(timeoutMS, 10))
	}
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out SessionResponse
	if err := c.Do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SessionDelete tears the session down.
func (c *Client) SessionDelete(ctx context.Context, id string) error {
	return c.Do(ctx, http.MethodDelete, "/v1/session/"+url.PathEscape(id), nil, nil)
}

// Healthz answers the liveness probe.
func (c *Client) Healthz(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.Do(ctx, http.MethodGet, "/v1/healthz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Readyz answers the readiness probe. A draining or saturated server
// answers 503, surfaced as *Error with the decoded status in the body;
// use ReadyState when the state string matters more than the error.
func (c *Client) Readyz(ctx context.Context) (*HealthResponse, error) {
	var out HealthResponse
	if err := c.Do(ctx, http.MethodGet, "/v1/readyz", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ReadyState fetches /v1/readyz and reports the state string
// ("ready"/"draining"/"saturated") regardless of the HTTP status, with
// ready=true exactly for a 200.
func (c *Client) ReadyState(ctx context.Context) (state string, ready bool, err error) {
	res, err := c.DoRaw(ctx, http.MethodGet, "/v1/readyz", nil)
	if err != nil {
		return "", false, err
	}
	var h HealthResponse
	if err := json.Unmarshal(res.Body, &h); err != nil {
		return "", false, fmt.Errorf("api: decoding readyz: %w", err)
	}
	return h.Status, res.Status == http.StatusOK, nil
}

// ReplicaStatus fetches the replica introspection surface /v1/status.
func (c *Client) ReplicaStatus(ctx context.Context) (*ReplicaStatusResponse, error) {
	var out ReplicaStatusResponse
	if err := c.Do(ctx, http.MethodGet, "/v1/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ClusterStatus fetches the front tier's /v1/cluster/status.
func (c *Client) ClusterStatus(ctx context.Context) (*ClusterStatusResponse, error) {
	var out ClusterStatusResponse
	if err := c.Do(ctx, http.MethodGet, "/v1/cluster/status", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CachePeek asks the server whether its result cache holds the
// canonical request key (see RequestKey). On a hit it returns the
// cached response verbatim — Status is the originally cached status
// (200 or 422) and the HeaderCache header is "peek". On a miss it
// returns nil and found=false. Transport failures return an error.
func (c *Client) CachePeek(ctx context.Context, key string) (res *Result, found bool, err error) {
	r, err := c.DoRaw(ctx, http.MethodGet, "/v1/cache/"+url.PathEscape(key), nil)
	if err != nil {
		return nil, false, err
	}
	if r.Header.Get(HeaderCache) != "peek" {
		return nil, false, nil
	}
	return r, true, nil
}
