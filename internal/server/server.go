// Package server implements wspd, the fault-tolerant long-running WSP
// solve service: an HTTP+JSON front over the wsp facade with admission
// control (bounded in-flight slots + per-client work budgets), a merged
// server/client deadline policy, a graceful-degradation ladder, per-request
// panic isolation, a warm-scratch cache keyed by topology signature, and
// drain-clean shutdown.
//
// The four solve endpoints share one request path. Each handler parses and
// builds its input, then admit resolves the configuration, charges the
// admission gate and sets the deadline and the degradation; guard runs the
// fault hook and the work under the package's one recover; /v1/sweep and
// /v1/lifelong stream through one NDJSON writer.
//
// The service's contract with the solver library is deliberately thin:
// every admitted, undegraded, undisturbed request is answered by exactly
// the same wsp.Solver call a library user would make, so responses are
// bit-identical to direct solves — robustness is layered AROUND the
// deterministic core, never inside it.
package server

import (
	"context"
	"net"
	"net/http"
	"sync"
	"sync/atomic"

	"repro/wsp"
)

// Server is one wspd instance. Create with New, expose with Handler or
// Serve, stop with Drain.
type Server struct {
	cfg   Config
	met   metrics
	adm   *admission
	deg   *degrader
	cache *scratchCache
	mux   *http.ServeMux

	draining atomic.Bool

	mu   sync.Mutex
	maps map[string]*wsp.Map // builtin maps, built once

	hsMu sync.Mutex
	hs   *http.Server // set by Serve, consumed by Drain
}

// New builds a Server from cfg (zero-value fields take production
// defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:  cfg,
		adm:  newAdmission(cfg),
		deg:  newDegrader(cfg),
		maps: make(map[string]*wsp.Map),
	}
	s.cache = newScratchCache(cfg, &s.met)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("POST /v1/sweep", s.handleSweep)
	mux.HandleFunc("POST /v1/lifelong", s.handleLifelong)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /debug/vars", s.handleVars)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics snapshots the service counters.
func (s *Server) Metrics() map[string]int64 { return s.met.snapshot() }

// builtinMap builds (once) and returns a named evaluation map. Built maps
// are shared across requests: a traffic.System is read-only after Build.
func (s *Server) builtinMap(name string) (*wsp.Map, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if m := s.maps[name]; m != nil {
		return m, nil
	}
	m, err := wsp.BuiltinMap(name)
	if err != nil {
		return nil, err
	}
	s.maps[name] = m
	return m, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on l until Drain (or a listener error). It
// returns http.ErrServerClosed after a clean drain, mirroring
// http.Server.Serve.
func (s *Server) Serve(l net.Listener) error {
	hs := &http.Server{Handler: s.mux}
	s.hsMu.Lock()
	s.hs = hs
	s.hsMu.Unlock()
	s.logf("wspd: serving on %s (max in-flight %d)", l.Addr(), s.cfg.MaxInFlight)
	return hs.Serve(l)
}

// ListenAndServe binds addr and calls Serve.
func (s *Server) ListenAndServe(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(l)
}

// Drain shuts the service down cleanly: admission stops first (readyz
// flips to 503, new solve requests are rejected with code "draining"),
// then in-flight solves run to completion — http.Server.Shutdown waits for
// handlers without cancelling their request contexts, so every admitted
// request still gets its answer. When ctx expires before the drain
// completes, remaining connections are force-closed and ctx's error is
// returned; nil means drain-clean.
func (s *Server) Drain(ctx context.Context) error {
	if !s.draining.CompareAndSwap(false, true) {
		return nil // second drain: the first one owns the shutdown
	}
	s.met.drains.Add(1)
	s.logf("wspd: draining (%d solves in flight)", s.met.inFlight.Load())
	s.hsMu.Lock()
	hs := s.hs
	s.hsMu.Unlock()
	if hs == nil {
		return nil // never served (Handler-only embedding)
	}
	if err := hs.Shutdown(ctx); err != nil {
		s.logf("wspd: drain deadline hit, forcing close: %v", err)
		hs.Close()
		return err
	}
	s.logf("wspd: drained clean")
	return nil
}
