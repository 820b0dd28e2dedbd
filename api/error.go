package api

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
)

// ErrorDetail is the canonical error object nested under "error" in
// every non-2xx body.
type ErrorDetail struct {
	// Kind is the stable machine-readable error class: one of
	// "bad_json", "bad_query", "invalid_instance", "infeasible",
	// "canceled", "overloaded", "session_too_large", "unknown_session",
	// "cache_miss", "no_replica", "method_not_allowed",
	// "unknown_endpoint" or "internal".
	Kind string `json:"kind"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RequestID echoes the X-Request-ID of the failing request so an
	// error seen by a client can be joined against the access log and
	// the flight-recorder trace.
	RequestID string `json:"request_id,omitempty"`
}

// ErrorBody is the body of every non-2xx response, and "error" is its
// only top-level key:
//
//	{"error":{"kind":"...","message":"...","request_id":"..."}}
type ErrorBody struct {
	Error ErrorDetail `json:"error"`
}

// NewErrorBody builds the envelope.
func NewErrorBody(kind, message, requestID string) ErrorBody {
	return ErrorBody{Error: ErrorDetail{Kind: kind, Message: message, RequestID: requestID}}
}

// Error is the typed client-side form of a non-2xx response.
type Error struct {
	// Status is the HTTP status code.
	Status int
	// Kind, Message and RequestID are the ErrorDetail fields.
	Kind      string
	Message   string
	RequestID string
}

// Error implements the error interface.
func (e *Error) Error() string {
	if e.Message != "" {
		return fmt.Sprintf("api: %s (%s, status %d)", e.Message, e.Kind, e.Status)
	}
	return fmt.Sprintf("api: %s (status %d)", e.Kind, e.Status)
}

// StatusClientClosedRequest is the (nginx-convention) status a server
// records when the client went away mid-solve; the client never sees
// it, but it keeps the canceled case distinct from 504 in logs/tests.
const StatusClientClosedRequest = 499

// HeaderRequestID is the canonical request-identity header, honored
// inbound and echoed on every response by replicas and the front tier.
const HeaderRequestID = "X-Request-ID"

// HeaderReplica is set by the front tier on proxied responses to name
// the replica that answered.
const HeaderReplica = "X-Mpss-Replica"

// HeaderCache marks responses served from a result cache: replicas set
// it to "hit" when replaying a cached solve, to "peek" on
// /v1/cache/{hash} hits; the front forwards whichever value it saw.
const HeaderCache = "X-Mpss-Cache"

// NewRequestID generates a 16-hex-char random request ID.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is effectively fatal elsewhere; degrade to
		// a constant rather than take the serving path down.
		return "00000000deadbeef"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID accepts inbound IDs that are printable, reasonably
// short and free of characters that could corrupt log lines or headers.
func ValidRequestID(id string) bool {
	if len(id) == 0 || len(id) > 64 {
		return false
	}
	for _, r := range id {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
		case r == '-', r == '_', r == '.', r == ':':
		default:
			return false
		}
	}
	return true
}

// statusText maps a few non-standard statuses this API uses.
func statusText(code int) string {
	if code == StatusClientClosedRequest {
		return "client closed request"
	}
	return http.StatusText(code)
}
