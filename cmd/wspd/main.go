// Command wspd is the long-running WSP solve service: an HTTP+JSON daemon
// over the wsp facade with admission control, deadline policy, graceful
// degradation, panic isolation, and drain-clean shutdown. See
// internal/server for the service semantics and DESIGN.md for the
// rationale.
//
// Usage:
//
//	wspd [-addr :8080] [-max-inflight N] [-deadline 30s] [-drain 30s]
//	     [-strategy route|flows|contract] [-exact]
//	     [-no-degrade] [-config wspd.json]
//
// Every flag can also come from a JSON config file (-config; keys are the
// flag names with dashes as underscores, e.g. {"max_inflight": 16}) or
// from the environment (WSPD_ prefix, e.g. WSPD_MAX_INFLIGHT=16), so
// admission and strategy knobs are deployable without rebuilding command
// lines. Precedence: explicit flag > WSPD_* environment > config file >
// built-in default.
//
// Endpoints:
//
//	POST /v1/solve    one instance  (builtin map or inline JSON instance)
//	POST /v1/batch    many instances, one admission decision
//	POST /v1/sweep    the Fig. 5 co-design grid
//	POST /v1/lifelong batches released over time, streamed as NDJSON
//	                  (one "epoch" line per epoch, terminal "report" line)
//	GET  /healthz     liveness  (200 while the process runs)
//	GET  /readyz      readiness (503 once draining)
//	GET  /debug/vars  service counters as JSON (+ per-client ledgers)
//	GET  /metrics     the same counters in Prometheus text exposition
//
// SIGINT/SIGTERM start a drain: admission stops, in-flight solves finish
// (bounded by -drain), and the process exits 0 on a clean drain or 1 when
// the drain deadline forces connections closed. A second signal kills the
// process immediately via the restored default handler.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
	"repro/wsp"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("wspd", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	maxInFlight := fs.Int("max-inflight", 0, "max concurrent solves (0 = 2×GOMAXPROCS)")
	deadline := fs.Duration("deadline", 0, "default per-solve deadline (0 = 30s)")
	maxDeadline := fs.Duration("max-deadline", 0, "clamp on client deadlines (0 = 2m)")
	drain := fs.Duration("drain", 0, "shutdown drain budget (0 = 30s)")
	strategy := fs.String("strategy", "contract", "base strategy: route|flows|contract")
	var base wsp.Config
	fs.BoolVar(&base.Exact, "exact", false, "base config: exact rational ILP arithmetic")
	noDegrade := fs.Bool("no-degrade", false, "disable the graceful-degradation ladder")
	clientRate := fs.Int64("client-rate", 0, "per-client budget refill, work units/sec (0 = default)")
	configPath := fs.String("config", "", "JSON config file (flag names with dashes as underscores); explicit flags and WSPD_* env vars override it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := applyOverrides(fs, *configPath); err != nil {
		fmt.Fprintln(os.Stderr, "wspd:", err)
		return 2
	}
	st, err := wsp.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wspd:", err)
		return 2
	}
	base.Strategy = st

	logger := log.New(os.Stderr, "", log.LstdFlags)
	srv := server.New(server.Config{
		Solver:          base,
		MaxInFlight:     *maxInFlight,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		DrainTimeout:    *drain,
		NoDegrade:       *noDegrade,
		ClientRate:      *clientRate,
		Logf:            logger.Printf,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wspd:", err)
		return 1
	}

	// First SIGINT/SIGTERM starts the drain; a second one restores the
	// default handler and kills the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()

	select {
	case err := <-serveErr:
		// Listener failed before any signal.
		fmt.Fprintln(os.Stderr, "wspd:", err)
		return 1
	case <-ctx.Done():
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drainBudget(*drain))
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "wspd: drain incomplete:", err)
		return 1
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "wspd:", err)
		return 1
	}
	return 0
}

// applyOverrides back-fills flags the command line left at their defaults
// from WSPD_* environment variables first, then from the JSON config file,
// so the precedence is: explicit flag > environment > config file >
// built-in default. Config keys are flag names with dashes as underscores;
// unknown keys are rejected (a typo must not silently deploy a default).
func applyOverrides(fs *flag.FlagSet, configPath string) error {
	var file map[string]any
	if configPath != "" {
		data, err := os.ReadFile(configPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("config %s: %w", configPath, err)
		}
	}
	known := map[string]bool{}
	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	var applyErr error
	fs.VisitAll(func(f *flag.Flag) {
		key := strings.ReplaceAll(f.Name, "-", "_")
		known[key] = true
		if f.Name == "config" || explicit[f.Name] || applyErr != nil {
			return
		}
		if v, ok := os.LookupEnv("WSPD_" + strings.ToUpper(key)); ok {
			if err := fs.Set(f.Name, v); err != nil {
				applyErr = fmt.Errorf("WSPD_%s: %w", strings.ToUpper(key), err)
			}
			return
		}
		if v, ok := file[key]; ok {
			// JSON numbers arrive as float64; fmt.Sprint renders integral
			// ones without a fraction, which is what the int flags parse.
			if err := fs.Set(f.Name, fmt.Sprint(v)); err != nil {
				applyErr = fmt.Errorf("config %s: key %q: %w", configPath, key, err)
			}
		}
	})
	if applyErr != nil {
		return applyErr
	}
	for key := range file {
		if !known[key] || key == "config" {
			return fmt.Errorf("config %s: unknown key %q", configPath, key)
		}
	}
	return nil
}

func drainBudget(d time.Duration) time.Duration {
	if d <= 0 {
		return 30 * time.Second
	}
	return d
}
