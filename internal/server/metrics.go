package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync/atomic"
)

// metrics is the server's counter set, exported as a flat JSON object at
// /debug/vars. Counters are monotonic; in_flight is a gauge. Everything is
// a plain atomic so the hot path never takes a lock to count.
type metrics struct {
	requests        atomic.Int64 // requests hitting a /v1 endpoint
	admitted        atomic.Int64 // requests that passed admission
	rejectedLoad    atomic.Int64 // 429: in-flight semaphore full
	rejectedBudget  atomic.Int64 // 429: client work budget exhausted
	rejectedDrain   atomic.Int64 // 503: refused because draining
	completed       atomic.Int64 // solves answered 200
	infeasible      atomic.Int64 // 422 outcomes (infeasible / horizon)
	deadline        atomic.Int64 // 504: server deadline fired mid-solve
	clientGone      atomic.Int64 // 499: client disconnected mid-solve
	panics          atomic.Int64 // 500: solver panic caught by recover
	budgetExhausted atomic.Int64 // answers undecided within work/node budget; per batch item, per sweep point
	degraded        atomic.Int64 // responses labeled degraded
	cacheHits       atomic.Int64 // warm-scratch checkouts
	cacheMisses     atomic.Int64 // cold-scratch checkouts
	cacheEvictions  atomic.Int64 // LRU signature evictions
	drains          atomic.Int64 // Drain() invocations
	inFlight        atomic.Int64 // gauge: admitted solves currently running
}

func (m *metrics) snapshot() map[string]int64 {
	return map[string]int64{
		"requests_total":         m.requests.Load(),
		"admitted_total":         m.admitted.Load(),
		"rejected_load_total":    m.rejectedLoad.Load(),
		"rejected_budget_total":  m.rejectedBudget.Load(),
		"rejected_drain_total":   m.rejectedDrain.Load(),
		"completed_total":        m.completed.Load(),
		"infeasible_total":       m.infeasible.Load(),
		"deadline_total":         m.deadline.Load(),
		"client_gone_total":      m.clientGone.Load(),
		"panics_total":           m.panics.Load(),
		"budget_exhausted_total": m.budgetExhausted.Load(),
		"degraded_total":         m.degraded.Load(),
		"cache_hits_total":       m.cacheHits.Load(),
		"cache_misses_total":     m.cacheMisses.Load(),
		"cache_evictions_total":  m.cacheEvictions.Load(),
		"drains_total":           m.drains.Load(),
		"in_flight":              m.inFlight.Load(),
	}
}

// handleVars serves the /debug/vars-style counter dump: the flat server
// counters plus a nested "clients" object holding each client's admission
// ledger (requests / 429s / work charged), bounded to the client-table
// cardinality.
func (s *Server) handleVars(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	snap := make(map[string]any)
	for name, v := range s.met.snapshot() {
		snap[name] = v
	}
	snap["clients"] = s.adm.clientStats()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(snap) // maps marshal with sorted keys
}

// metricsNamespace prefixes every exposition name so wspd's series never
// collide with another job's in a shared Prometheus.
const metricsNamespace = "wspd_"

// labelEscaper quotes Prometheus label values (the exposition format's
// escaping rules: backslash, double quote, newline).
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// handleMetrics serves the same counter set in the Prometheus text
// exposition format (text/plain; version=0.0.4): one # TYPE line and one
// sample per series, names sorted, `wspd_` namespace, plus the per-client
// admission ledgers as client-labeled series. Everything except in_flight
// is a counter; in_flight is a gauge. Hand-rolled on purpose — a few
// dozen integers do not justify a client-library dependency.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := s.met.snapshot()
	names := make([]string, 0, len(snap))
	for name := range snap {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		kind := "counter"
		if !strings.HasSuffix(name, "_total") {
			kind = "gauge"
		}
		fmt.Fprintf(&b, "# TYPE %s%s %s\n%s%s %d\n",
			metricsNamespace, name, kind, metricsNamespace, name, snap[name])
	}
	clients := s.adm.clientStats()
	ids := make([]string, 0, len(clients))
	for id := range clients {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, family := range []struct {
		name  string
		value func(ClientStats) int64
	}{
		{"client_requests_total", func(cs ClientStats) int64 { return cs.Requests }},
		{"client_rejected_total", func(cs ClientStats) int64 { return cs.Rejected }},
		{"client_work_charged_total", func(cs ClientStats) int64 { return cs.WorkCharged }},
	} {
		if len(ids) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# TYPE %s%s counter\n", metricsNamespace, family.name)
		for _, id := range ids {
			fmt.Fprintf(&b, "%s%s{client=\"%s\"} %d\n",
				metricsNamespace, family.name, labelEscaper.Replace(id), family.value(clients[id]))
		}
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write([]byte(b.String()))
}
