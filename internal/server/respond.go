package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"mpss"
	"mpss/api"
)

// errToStatus maps the library's typed error taxonomy onto HTTP status
// codes: malformed input 400, well-formed but unsatisfiable 422,
// canceled/timed-out solves 504 (or 499 when the client itself hung
// up), everything else — numeric exhaustion, contained solver bugs —
// 500.
func errToStatus(err error, clientGone bool) (int, string) {
	switch {
	case errors.Is(err, mpss.ErrInvalidInstance):
		return http.StatusBadRequest, "invalid_instance"
	case errors.Is(err, mpss.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, mpss.ErrCanceled):
		if clientGone {
			return api.StatusClientClosedRequest, "canceled"
		}
		return http.StatusGatewayTimeout, "canceled"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// response is an HTTP answer: what the worker produces, what the cache
// stores. Success bodies are rendered eagerly (they are cached and
// byte-replayed — the determinism the cache test pins). Error answers
// keep kind/message and render at write time, so every error body —
// including a cache-replayed 422 — carries the request ID of the
// request actually being answered.
type response struct {
	code    int
	body    []byte
	errKind string
	errMsg  string
}

// decodeRequest decodes r's JSON body into v, reading at most
// api.MaxRequestBytes of it. On failure it returns the answer to send:
// 413 body_too_large for a longer body, 400 bad_json otherwise.
func decodeRequest(w http.ResponseWriter, r *http.Request, v any) (response, bool) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return response{}, true
	case errors.As(err, &tooLarge):
		return errorResponse(http.StatusRequestEntityTooLarge, "body_too_large", err.Error()), false
	default:
		return errorResponse(http.StatusBadRequest, "bad_json", fmt.Sprintf("decoding request: %v", err)), false
	}
}

// jsonResponse marshals v; a marshal failure (cannot happen for the
// wire types in mpss/api) degrades to a 500.
func jsonResponse(code int, v any) response {
	body, err := json.Marshal(v)
	if err != nil {
		return errorResponse(http.StatusInternalServerError, "internal", fmt.Sprintf("encoding response: %v", err))
	}
	return response{code: code, body: body}
}

// errorResponse builds the uniform error answer (rendered at write
// time).
func errorResponse(code int, kind, msg string) response {
	return response{code: code, errKind: kind, errMsg: msg}
}

// cacheable reports whether a response may be served from the result
// cache: successful solves and deterministic domain rejections. 400s
// are cheap to recompute and 5xx/504 must never be replayed.
func (r response) cacheable() bool {
	return r.code == http.StatusOK || r.code == http.StatusUnprocessableEntity
}

// write sends the response, stamping the request ID into error bodies
// (the api.ErrorBody envelope). The JSON content type matches every
// body this server produces.
func (r response) write(w http.ResponseWriter, reqID string) {
	body := r.body
	if r.errKind != "" {
		body, _ = json.Marshal(api.NewErrorBody(r.errKind, r.errMsg, reqID))
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(r.code)
	w.Write(body)
}
