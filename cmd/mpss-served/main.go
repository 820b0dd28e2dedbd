// Command mpss-served runs the scheduling service: a long-lived HTTP
// daemon exposing the paper's offline optimum, the OA/AVR online
// simulations, the speed-bounded feasibility queries and streaming
// sessions (mutable job sets re-solved per delta over /v1/session) as a
// JSON API (see internal/server for the endpoint list and DESIGN.md
// §10–§13 for the architecture and the telemetry layer).
//
// Usage:
//
//	mpss-served -addr :8080 -workers 4 -queue 128 -timeout 30s
//	curl -s localhost:8080/v1/solve/optimal -d '{"m":2,"jobs":[{"id":1,"release":0,"deadline":4,"work":8}]}'
//	curl -s localhost:8080/v1/metrics       # JSON snapshot
//	curl -s localhost:8080/metrics          # Prometheus exposition
//	curl -s localhost:8080/v1/debug/traces  # request span trees, down to the solver's phases
//
// The daemon logs structured records (slog; JSON by default) to stderr:
// one "listening" record at startup — the readiness sentinel
// scripts/serve_smoke.sh waits for — one access-log record per request,
// and "draining"/"drained" records around shutdown. Spans live only in
// the flight recorder's per-request trees; the metrics carry none.
// -debug-addr starts a second listener with net/http/pprof and the
// flight recorder, meant to stay private.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops
// accepting, in-flight solves run to completion (bounded by
// -drain-timeout), then the process exits 0. Exit codes follow the
// repository convention: 0 clean shutdown, 1 runtime failure, 2 usage
// error.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mpss/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		workers      = flag.Int("workers", 0, "solver worker pool size (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "admission queue depth (0 = default 64)")
		timeout      = flag.Duration("timeout", 30*time.Second, "per-request solve deadline")
		cache        = flag.Int("cache", 0, "result cache entries (0 = default 1024, negative disables)")
		flight       = flag.Int("flight", 0, "flight recorder size: retain N most recent + N slowest request traces (0 = default 64)")
		sessionTTL   = flag.Duration("session-ttl", 10*time.Minute, "evict streaming sessions idle longer than this (negative disables)")
		maxSessions  = flag.Int("max-sessions", 0, "max concurrently open streaming sessions (0 = default 256)")
		sessionJobs  = flag.Int("session-max-jobs", 0, "max jobs per streaming session (0 = default 100000)")
		replica      = flag.String("replica", "", "replica name reported in /v1/status and cluster views (empty = standalone)")
		debugAddr    = flag.String("debug-addr", "", "optional second listen address for pprof + debug endpoints (empty = disabled)")
		logFormat    = flag.String("log-format", "json", "log encoding: json or text")
		logLevel     = flag.String("log-level", "info", "log level: debug, info, warn, error")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight solves on shutdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpss-served: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-served:", err)
		os.Exit(2)
	}

	srv := server.New(server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		DefaultTimeout: *timeout,
		CacheEntries:   *cache,
		FlightEntries:  *flight,
		SessionTTL:     *sessionTTL,
		MaxSessions:    *maxSessions,
		SessionMaxJobs: *sessionJobs,
		ReplicaName:    *replica,
		Logger:         logger,
	})
	cfg := srv.Config() // resolved defaults, for honest startup logging
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(2)
	}
	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			logger.Error("debug listen failed", "addr", *debugAddr, "error", err.Error())
			os.Exit(2)
		}
		debugSrv = &http.Server{Handler: srv.DebugHandler()}
		go debugSrv.Serve(dln)
		logger.Info("debug listening", "addr", dln.Addr().String())
	}
	// The "listening" record is the readiness signal scripts wait for
	// (scripts/serve_smoke.sh and loadgen_smoke.sh extract the address
	// from its "addr" attribute before issuing requests).
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"workers", cfg.Workers,
		"queue", cfg.QueueDepth,
		"cache", cfg.CacheEntries,
		"timeout", cfg.DefaultTimeout.String(),
		"flight", cfg.FlightEntries,
		"session_ttl", cfg.SessionTTL.String(),
		"max_sessions", cfg.MaxSessions,
	)

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-serveErr:
		logger.Error("serve failed", "error", err.Error())
		os.Exit(1)
	case s := <-sig:
		logger.Info("draining", "signal", s.String())
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop the listener and wait for active handlers first, then drain
	// the worker pool (handlers block on their workers, so by the time
	// http shutdown returns, the queue is quiescing).
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("http shutdown failed", "error", err.Error())
		os.Exit(1)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Error("drain failed", "error", err.Error())
		os.Exit(1)
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	logger.Info("drained")
}

// buildLogger assembles the stderr slog logger from the CLI knobs.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch strings.ToLower(format) {
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("unknown -log-format %q", format)
	}
}
