package server

// This file is the HTTP middleware: per-request identity, structured
// access logging, and the labeled per-endpoint telemetry series. Every
// route is wrapped by Server.instrument with a static endpoint name, so
// the label cardinality is bounded by the route table no matter what
// clients send (DESIGN.md §11).

import (
	"log/slog"
	"mpss/api"
	"net/http"
	"strconv"
	"time"

	"mpss/internal/obs"
)

// statusWriter captures the status code and body size a handler wrote.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// instrument wraps one route with the full request pipeline: request-ID
// assignment (inbound X-Request-ID honored when well-formed), response
// header echo, per-endpoint × per-status labeled counters, per-endpoint
// latency histograms, the structured access log, and the flight
// recorder entry with its span tree.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(api.HeaderRequestID)
		if !api.ValidRequestID(id) {
			id = api.NewRequestID()
		}
		w.Header().Set(api.HeaderRequestID, id)

		span := s.flight.startSpan("request " + endpoint)
		span.SetTag("request_id", id)
		span.SetTag("endpoint", endpoint)

		ctx := obs.ContextWithSpan(api.WithRequestID(r.Context(), id), span)

		sw := &statusWriter{ResponseWriter: w}
		h(sw, r.WithContext(ctx))
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		span.End()

		elapsed := time.Since(start)
		endpointL := obs.Label{Key: "endpoint", Value: endpoint}
		s.rec.AddL("server.http_requests", 1,
			endpointL, obs.Label{Key: "code", Value: strconv.Itoa(sw.status)})
		s.rec.ObserveL("server.http_request_seconds", elapsed.Seconds(), endpointL)

		s.flight.record(TraceEntry{
			RequestID: id,
			Endpoint:  endpoint,
			Status:    sw.status,
			Start:     start.UTC(),
			Seconds:   elapsed.Seconds(),
		}, span)

		s.log.LogAttrs(ctx, slog.LevelInfo, "request",
			slog.String("request_id", id),
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.String("endpoint", endpoint),
			slog.Int("status", sw.status),
			slog.Int("bytes", sw.bytes),
			slog.Float64("duration_ms", float64(elapsed)/float64(time.Millisecond)),
			slog.String("remote", r.RemoteAddr),
		)
	}
}
