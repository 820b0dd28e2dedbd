// Command mpss-front runs the cluster front tier: one public /v1
// endpoint fanned out over mpss-served replicas (see internal/cluster
// and DESIGN.md §15). Solve requests route by consistent hash on the
// canonical request key, so repeats of an instance land on the replica
// whose LRU already holds the answer, and identical concurrent requests
// meet on the one replica whose singleflight solves them once; dead
// replicas are detected and routed around; and the autoscaler sizes
// the fleet by asking the solver itself how many replica-processors the
// observed demand needs. The front keeps no answers of its own.
//
// Two modes:
//
//	mpss-front -addr :8080 -min 2 -max 6 -served-bin ./bin/mpss-served
//	    spawns and owns mpss-served child processes, autoscaling
//	    between -min and -max;
//	mpss-front -addr :8080 -targets http://10.0.0.1:8081,http://10.0.0.2:8081
//	    fronts an existing fixed fleet (no spawning, no autoscaling).
//
// The daemon follows the mpss-served conventions: slog JSON records to
// stderr with a "listening" readiness line, SIGINT/SIGTERM graceful
// drain (child replicas get SIGTERM and finish in-flight solves), exit
// 0/1/2 for clean/runtime/usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"mpss/internal/cluster"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		targets       = flag.String("targets", "", "comma-separated base URLs of existing replicas (static mode: no spawning, no autoscaling)")
		servedBin     = flag.String("served-bin", "mpss-served", "mpss-served binary to spawn replicas from")
		servedFlags   = flag.String("served-flags", "", "extra flags passed to every spawned replica (space-separated)")
		minReplicas   = flag.Int("min", 1, "minimum replica count")
		maxReplicas   = flag.Int("max", 4, "maximum replica count")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "replica health probe period")
		autoscale     = flag.Bool("autoscale", true, "enable the solver-driven autoscaler (ignored with -targets)")
		scaleInterval = flag.Duration("scale-interval", 2*time.Second, "autoscaler tick period and demand window")
		workersPer    = flag.Int("workers-per-replica", 0, "per-replica solve parallelism assumed by the autoscaler (0 = GOMAXPROCS of this process)")
		targetUtil    = flag.Float64("target-util", 0.7, "per-replica utilization the autoscaler plans for")
		scaleDown     = flag.Int("scale-down-after", 3, "consecutive low-demand windows before scaling down")
		logFormat     = flag.String("log-format", "json", "log encoding: json or text")
		logLevel      = flag.String("log-level", "info", "log level: debug, info, warn, error")
		drainTimeout  = flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight work and replica drains on shutdown")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "mpss-front: unexpected arguments: %v\n", flag.Args())
		os.Exit(2)
	}
	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpss-front:", err)
		os.Exit(2)
	}

	cfg := cluster.Config{
		MinReplicas:   *minReplicas,
		MaxReplicas:   *maxReplicas,
		ProbeInterval: *probeInterval,
		Logger:        logger,
	}
	if *targets != "" {
		urls := splitTargets(*targets)
		cfg.Spawner = &cluster.StaticSpawner{URLs: urls}
		cfg.MinReplicas = len(urls)
		cfg.MaxReplicas = len(urls)
	} else {
		cfg.Spawner = &cluster.ExecSpawner{
			Bin:    *servedBin,
			Args:   strings.Fields(*servedFlags),
			Logger: logger,
		}
		if *autoscale {
			cfg.Autoscale = cluster.AutoscaleConfig{
				Enabled:           true,
				Interval:          *scaleInterval,
				WorkersPerReplica: *workersPer,
				TargetUtil:        *targetUtil,
				ScaleDownAfter:    *scaleDown,
			}
			if cfg.Autoscale.WorkersPerReplica <= 0 {
				// Match what a spawned replica defaults its pool to.
				cfg.Autoscale.WorkersPerReplica = workerDefault(*servedFlags)
			}
		}
	}

	front, err := cluster.New(cfg)
	if err != nil {
		logger.Error("cluster start failed", "error", err.Error())
		os.Exit(1)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "error", err.Error())
		os.Exit(2)
	}
	// The "listening" record is the readiness sentinel the cluster smoke
	// script waits for, same contract as mpss-served.
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"min", cfg.MinReplicas,
		"max", cfg.MaxReplicas,
		"autoscale", cfg.Autoscale.Enabled,
	)

	httpSrv := &http.Server{Handler: front}
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
	if err := httpSrv.Shutdown(ctx); err != nil {
		logger.Error("http shutdown failed", "error", err.Error())
	}
	if err := front.Shutdown(ctx); err != nil {
		logger.Error("cluster shutdown", "error", err.Error())
		os.Exit(1)
	}
	logger.Info("drained")
}

// splitTargets parses the -targets list, trimming blanks.
func splitTargets(s string) []string {
	var out []string
	for _, t := range strings.Split(s, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, strings.TrimRight(t, "/"))
		}
	}
	return out
}

// workerDefault extracts -workers from the spawned replicas' flag list,
// falling back to this process's GOMAXPROCS (children inherit the same
// default when the flag is absent).
func workerDefault(servedFlags string) int {
	fields := strings.Fields(servedFlags)
	for i, f := range fields {
		if (f == "-workers" || f == "--workers") && i+1 < len(fields) {
			var n int
			if _, err := fmt.Sscanf(fields[i+1], "%d", &n); err == nil && n > 0 {
				return n
			}
		}
	}
	return runtime.GOMAXPROCS(0)
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
