package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server/faultinject"
	"repro/wsp"
)

// testInstance builds the smallest contract-expressible instance, inlined
// as the wire-format InstanceFile a client would POST.
func testInstance(t *testing.T) *wsp.InstanceFile {
	t.Helper()
	m, err := wsp.GenerateMap(wsp.MapParams{
		Stripes: 1, Rows: 2, BayWidth: 12, CorridorWidth: 2,
		MaxComponentLen: 6, DoubleShelfRows: true,
		NumProducts: 2, UnitsPerShelf: 30, StationsPerStripe: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := wsp.UniformWorkload(m.W, 12)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := wsp.EncodeInstance(m.S, &wl, 800, "test")
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func postJSON(t *testing.T, h http.Handler, path string, body any, hdr map[string]string) *httptest.ResponseRecorder {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeAs[T any](t *testing.T, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

// TestSolveBitIdentical pins the service's core contract: an admitted,
// undegraded request is answered bit-identically to a direct wsp.Solver
// call — cold scratch and warm cache hit alike.
func TestSolveBitIdentical(t *testing.T) {
	inst := testInstance(t)
	cfg := wsp.Config{Strategy: wsp.ContractILP, Limits: wsp.Limits{Exact: true}}
	srv := New(Config{Solver: cfg, NoDegrade: true})

	sys, wl, err := wsp.DecodeInstance(inst)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wsp.NewFromConfig(cfg).Solve(context.Background(),
		wsp.Instance{System: sys, Workload: *wl, Horizon: inst.T})
	if err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 2; round++ {
		w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
			InstanceSpec: InstanceSpec{Instance: inst},
		}, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("round %d: status %d: %s", round, w.Code, w.Body.String())
		}
		resp := decodeAs[SolveResponse](t, w)
		if resp.Degraded || len(resp.DegradeSteps) != 0 {
			t.Fatalf("round %d: unloaded solve labeled degraded: %+v", round, resp)
		}
		if resp.Agents != want.Stats.Agents || resp.ServicedAt != want.Sim.ServicedAt {
			t.Fatalf("round %d: got agents=%d serviced=%d, direct solver says agents=%d serviced=%d",
				round, resp.Agents, resp.ServicedAt, want.Stats.Agents, want.Sim.ServicedAt)
		}
	}
	m := srv.Metrics()
	if m["cache_misses_total"] != 1 || m["cache_hits_total"] != 1 {
		t.Errorf("want 1 cold + 1 warm solve, got misses=%d hits=%d",
			m["cache_misses_total"], m["cache_hits_total"])
	}
}

// TestAdmissionOverCapacity: with one in-flight slot occupied by a stalled
// solve, the next request is rejected 429/over-capacity with a Retry-After
// — never queued.
func TestAdmissionOverCapacity(t *testing.T) {
	inst := testInstance(t)
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		MaxInFlight: 1,
		Fault: func(ctx context.Context, _ faultinject.Info) error {
			close(started)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		},
	})

	done := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		done <- postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
			InstanceSpec: InstanceSpec{Instance: inst},
		}, nil)
	}()
	<-started

	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[ErrorResponse](t, w)
	if resp.Code != "over-capacity" {
		t.Errorf("code %q, want over-capacity", resp.Code)
	}
	if w.Header().Get("Retry-After") == "" || resp.RetryAfterSec < 1 {
		t.Errorf("429 lacks Retry-After (hdr=%q, sec=%d)", w.Header().Get("Retry-After"), resp.RetryAfterSec)
	}

	close(release)
	if w := <-done; w.Code != http.StatusOK {
		t.Fatalf("stalled solve finished %d, want 200: %s", w.Code, w.Body.String())
	}
	m := srv.Metrics()
	if m["rejected_load_total"] != 1 {
		t.Errorf("rejected_load_total = %d, want 1", m["rejected_load_total"])
	}
}

// TestAdmissionWorkBudget: a client whose token bucket cannot cover the
// solve's work cost is rejected 429/work-budget while other clients are
// unaffected.
func TestAdmissionWorkBudget(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{
		SolveCost:   1000,
		ClientBurst: 1500, // covers one solve, not two
		ClientRate:  1,    // refill far slower than the test
	})
	greedy := map[string]string{"X-Client-ID": "greedy"}

	if w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, greedy); w.Code != http.StatusOK {
		t.Fatalf("first solve: status %d: %s", w.Code, w.Body.String())
	}
	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, greedy)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second solve: status %d, want 429: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[ErrorResponse](t, w)
	if resp.Code != "work-budget" {
		t.Errorf("code %q, want work-budget", resp.Code)
	}
	if resp.RetryAfterSec < 1 {
		t.Errorf("work-budget rejection lacks retry_after_sec: %+v", resp)
	}

	if w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, map[string]string{"X-Client-ID": "frugal"}); w.Code != http.StatusOK {
		t.Fatalf("other client: status %d, want 200: %s", w.Code, w.Body.String())
	}
	if m := srv.Metrics(); m["rejected_budget_total"] != 1 {
		t.Errorf("rejected_budget_total = %d, want 1", m["rejected_budget_total"])
	}
}

// TestAdmissionChargeSaturates: a request is charged its work budget once
// per batch instance, sweep evaluation or lifelong batch, and a charge past
// the int64 range saturates. Wrapped, 2⁶² × 4 is 0 and 2⁶² × 2 is -2⁶³,
// charges any budget covers.
func TestAdmissionChargeSaturates(t *testing.T) {
	const budget = `"work_budget":4611686018427387904`
	sorting := `{"map":"sorting","units":12,"horizon":800}`
	for _, tc := range []struct{ path, body string }{
		{"/v1/batch", `{"instances":[` + strings.Repeat(sorting+",", 3) + sorting + `],` + budget + `}`},
		{"/v1/sweep", `{"corridors":[2],"lens":[6],"units":60,"points":2,"horizon":1200,` + budget + `}`},
		{"/v1/lifelong", `{"map":"sorting","horizon":2400,"batches":[{"release":0,"units":6},{"release":800,"units":6}],` + budget + `}`},
	} {
		t.Run(tc.path, func(t *testing.T) {
			srv := New(Config{})
			before := srv.adm.clientStats()["greedy"].WorkCharged
			req := httptest.NewRequest(http.MethodPost, tc.path, strings.NewReader(tc.body))
			req.Header.Set("X-Client-ID", "greedy")
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, req)
			if w.Code != http.StatusTooManyRequests {
				t.Fatalf("status %d, want 429: %s", w.Code, w.Body.String())
			}
			if resp := decodeAs[ErrorResponse](t, w); resp.Code != "work-budget" {
				t.Errorf("code %q, want work-budget", resp.Code)
			}
			if after := srv.adm.clientStats()["greedy"].WorkCharged; after != before {
				t.Errorf("work_charged_total went from %d to %d", before, after)
			}
		})
	}
}

// TestDeadlineExceededIs504: a solve cut short by the merged deadline
// policy answers 504/deadline-exceeded — the server's deadline, not the
// client hanging up.
func TestDeadlineExceededIs504(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{Fault: faultinject.Sleep(10 * time.Second)})

	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec:   InstanceSpec{Instance: inst},
		SolveOverrides: SolveOverrides{DeadlineMS: 30},
	}, nil)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "deadline-exceeded" {
		t.Errorf("code %q, want deadline-exceeded", resp.Code)
	}
	if m := srv.Metrics(); m["deadline_total"] != 1 {
		t.Errorf("deadline_total = %d, want 1", m["deadline_total"])
	}
}

// TestClientDisconnectIs499: the same stalled solve abandoned by the
// CLIENT answers 499/client-closed-request — distinguishable from 504.
func TestClientDisconnectIs499(t *testing.T) {
	inst := testInstance(t)
	started := make(chan struct{})
	srv := New(Config{
		Fault: func(ctx context.Context, _ faultinject.Info) error {
			close(started)
			<-ctx.Done()
			return context.Cause(ctx)
		},
	})

	buf, err := json.Marshal(SolveRequest{InstanceSpec: InstanceSpec{Instance: inst}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(buf)).WithContext(ctx)
	go func() {
		<-started
		cancel() // the client hangs up mid-solve
	}()
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, req)

	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "client-closed-request" {
		t.Errorf("code %q, want client-closed-request", resp.Code)
	}
	if m := srv.Metrics(); m["client_gone_total"] != 1 {
		t.Errorf("client_gone_total = %d, want 1", m["client_gone_total"])
	}
}

// TestPanicIsolated: a panicking solve answers 500/panic and the daemon
// keeps serving — the next request on the same topology succeeds on a
// fresh scratch (the panicked one is discarded, not reused).
func TestPanicIsolated(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{Fault: faultinject.Times(1, faultinject.Panic("injected solver bug"))})

	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "panic" {
		t.Errorf("code %q, want panic", resp.Code)
	}

	w = postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("post-panic solve: status %d, want 200: %s", w.Code, w.Body.String())
	}
	m := srv.Metrics()
	if m["panics_total"] != 1 {
		t.Errorf("panics_total = %d, want 1", m["panics_total"])
	}
	if m["cache_hits_total"] != 0 {
		t.Errorf("panicked scratch was reused (cache_hits_total = %d)", m["cache_hits_total"])
	}
}

// TestNegativeProductCountIsBadInstance: product counts the decoder used
// to panic or run out of memory on — outside the solve guard, so the
// daemon dropped the connection — are answered 400/bad-instance without
// counting a panic.
func TestNegativeProductCountIsBadInstance(t *testing.T) {
	for name, inst := range map[string]string{
		"negative": `{"map":"T.\n..","num_products":-1,"stock":[],"components":[]}`,
		"huge":     `{"map":"T.\n..","num_products":20000000000000,"stock":[],"components":[]}`,
		"huge-referenced": `{"map":"T.\n..","num_products":20000000000000,` +
			`"stock":[{"product":19999999999999,"x":1,"y":0,"units":1}],"components":[]}`,
	} {
		t.Run(name, func(t *testing.T) {
			srv := New(Config{})
			body := json.RawMessage(`{"instance":` + inst + `,"horizon":10}`)
			w := postJSON(t, srv.Handler(), "/v1/solve", body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			if resp := decodeAs[ErrorResponse](t, w); resp.Code != "bad-instance" {
				t.Errorf("code %q, want bad-instance", resp.Code)
			}
			if m := srv.Metrics(); m["panics_total"] != 0 {
				t.Errorf("panics_total = %d, want 0", m["panics_total"])
			}
		})
	}
}

// TestDegradationLadder: under a loaded window the server answers with a
// cheaper solve, labeled degraded with the applied rungs; a no_degrade
// request on the same loaded server runs exactly as configured.
func TestDegradationLadder(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{Solver: wsp.Config{Strategy: wsp.ContractILP, Limits: wsp.Limits{Exact: true}}})
	for i := 0; i < 50; i++ {
		srv.deg.observeReject() // synthesize a saturated window
	}
	if r := srv.deg.rung(); r != 3 {
		t.Fatalf("rung = %d under saturated window, want 3", r)
	}

	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[SolveResponse](t, w)
	if !resp.Degraded {
		t.Fatal("loaded solve not labeled degraded")
	}
	want := map[string]bool{"float-arith": true, "route-packing": true, "budget-shrink": true}
	for _, step := range resp.DegradeSteps {
		delete(want, step)
	}
	if len(want) != 0 {
		t.Errorf("degrade steps %v missing %v", resp.DegradeSteps, want)
	}
	if resp.Strategy != "route-packing" {
		t.Errorf("degraded strategy %q, want route-packing", resp.Strategy)
	}

	w = postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec:   InstanceSpec{Instance: inst},
		SolveOverrides: SolveOverrides{NoDegrade: true},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("no_degrade solve: status %d: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[SolveResponse](t, w); resp.Degraded || resp.Strategy != "contract-ilp" {
		t.Errorf("no_degrade solve degraded anyway: %+v", resp)
	}
}

// TestBudgetExhaustedDegradesOnce: when the configured strategy runs out
// of its deterministic work budget and the request allows degradation, the
// server retries once on the cheap strategy and labels the answer instead
// of erroring.
func TestBudgetExhaustedDegradesOnce(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{Solver: wsp.Config{Strategy: wsp.ContractILP, MaxAttempts: 1, Limits: wsp.Limits{MaxWork: 50}}})

	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d, want 200 via degraded retry: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[SolveResponse](t, w)
	if !resp.Degraded || resp.Strategy != "route-packing" {
		t.Errorf("want degraded route-packing answer, got %+v", resp)
	}

	// The same exhaustion with no_degrade is an honest 503.
	w = postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec:   InstanceSpec{Instance: inst},
		SolveOverrides: SolveOverrides{NoDegrade: true},
	}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("no_degrade exhaustion: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "budget-exhausted" {
		t.Errorf("code %q, want budget-exhausted", resp.Code)
	}
}

// TestRequestConfigOverrides pins how a request's overrides map onto the
// server's base solver configuration: each wire field sets its one field
// of the value, absent fields inherit the base, and "exact": false clears
// a base Exact.
func TestRequestConfigOverrides(t *testing.T) {
	route := wsp.Config{Strategy: wsp.RoutePacking, MaxAttempts: 2}
	for _, tc := range []struct {
		name string
		base wsp.Config
		body string
		want wsp.Config
	}{
		{"every knob", route, `{"strategy":"contract","exact":true,"work_budget":5,"node_budget":7}`,
			wsp.Config{Strategy: wsp.ContractILP, MaxAttempts: 2, Limits: wsp.Limits{Exact: true, MaxWork: 5, MaxNodes: 7}}},
		{"none inherits the base", route, `{}`, route},
		{"exact false clears the base", wsp.Config{Limits: wsp.Limits{Exact: true}}, `{"exact":false}`, wsp.Config{}},
	} {
		var ov SolveOverrides
		if err := json.Unmarshal([]byte(tc.body), &ov); err != nil {
			t.Fatal(err)
		}
		got, err := New(Config{Solver: tc.base}).requestConfig(&ov)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: %s on %+v resolves to %+v, want %+v", tc.name, tc.body, tc.base, got, tc.want)
		}
	}
}

// TestNegativeOverridesRejected: a negative budget or deadline is a bad
// request on every solving endpoint, and a negative units or horizon a bad
// instance, not a silently ignored field.
func TestNegativeOverridesRejected(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{})
	for field, ov := range map[string]SolveOverrides{
		"work_budget": {WorkBudget: -1},
		"node_budget": {NodeBudget: -1},
		"deadline_ms": {DeadlineMS: -1},
	} {
		for path, body := range map[string]any{
			"/v1/solve": SolveRequest{InstanceSpec: InstanceSpec{Instance: inst}, SolveOverrides: ov},
			"/v1/batch": BatchRequest{Instances: []InstanceSpec{{Instance: inst}}, SolveOverrides: ov},
			"/v1/sweep": SweepRequest{Corridors: []int{2}, Lens: []int{6}, Units: 60, Points: 2, Horizon: 1200,
				SolveOverrides: ov},
		} {
			w := postJSON(t, srv.Handler(), path, body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s with negative %s: status %d, want 400: %s", path, field, w.Code, w.Body.String())
			}
			if resp := decodeAs[ErrorResponse](t, w); resp.Code != "bad-request" {
				t.Errorf("%s with negative %s: code %q, want bad-request", path, field, resp.Code)
			}
		}
	}
	// The inline instance carries its own workload and T, which a negative
	// units or horizon must not fall back to.
	batches := []LifelongBatchSpec{{Release: 0, Units: 6}}
	for field, spec := range map[string]InstanceSpec{
		"units":   {Instance: inst, Units: -3},
		"horizon": {Instance: inst, Horizon: -5},
	} {
		for path, body := range map[string]any{
			"/v1/solve":    SolveRequest{InstanceSpec: spec},
			"/v1/batch":    BatchRequest{Instances: []InstanceSpec{spec}},
			"/v1/lifelong": LifelongRequest{InstanceSpec: spec, Batches: batches},
		} {
			w := postJSON(t, srv.Handler(), path, body, nil)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("%s with negative %s: status %d, want 400: %s", path, field, w.Code, w.Body.String())
			}
			if resp := decodeAs[ErrorResponse](t, w); resp.Code != "bad-instance" {
				t.Errorf("%s with negative %s: code %q, want bad-instance", path, field, resp.Code)
			}
		}
	}
	// A sweep spec the walk would refuse, or fill with defaults, is a bad
	// request before admission, not a charged walk answered "internal".
	sweep := func(edit func(*SweepRequest)) SweepRequest {
		req := SweepRequest{Corridors: []int{2}, Lens: []int{6}, Units: 60, Points: 2, Horizon: 1200}
		edit(&req)
		return req
	}
	for name, body := range map[string]SweepRequest{
		"horizon -5":     sweep(func(r *SweepRequest) { r.Horizon = -5 }),
		"horizon 0":      sweep(func(r *SweepRequest) { r.Horizon = 0 }),
		"units 1":        sweep(func(r *SweepRequest) { r.Units = 1 }),
		"units -60":      sweep(func(r *SweepRequest) { r.Units = -60 }),
		"corridors [0]":  sweep(func(r *SweepRequest) { r.Corridors = []int{0} }),
		"corridors [1]":  sweep(func(r *SweepRequest) { r.Corridors = []int{1} }),
		"corridors [-2]": sweep(func(r *SweepRequest) { r.Corridors = []int{-2} }),
		"lens [1]":       sweep(func(r *SweepRequest) { r.Lens = []int{1} }),
		"lens [-6]":      sweep(func(r *SweepRequest) { r.Lens = []int{-6} }),
		"stripes -3":     sweep(func(r *SweepRequest) { r.Stripes = -3 }),
		"products -1":    sweep(func(r *SweepRequest) { r.Products = -1 }),
	} {
		w := postJSON(t, srv.Handler(), "/v1/sweep", body, nil)
		if w.Code != http.StatusBadRequest {
			t.Fatalf("/v1/sweep with %s: status %d, want 400: %s", name, w.Code, w.Body.String())
		}
		if resp := decodeAs[ErrorResponse](t, w); resp.Code != "bad-request" {
			t.Errorf("/v1/sweep with %s: code %q, want bad-request", name, resp.Code)
		}
	}
	// A floor the generator would have to allocate 182 × 475,200 cells for
	// (and a stock 3600 times that) is refused on size before admission.
	w := postJSON(t, srv.Handler(), "/v1/sweep",
		sweep(func(r *SweepRequest) { r.Corridors, r.Stripes, r.Products = []int{60}, 3600, 3600 }), nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized sweep floor: status %d, want 422: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "sweep-too-large" {
		t.Errorf("oversized sweep floor: code %q, want sweep-too-large", resp.Code)
	}
	if m := srv.Metrics(); m["admitted_total"] != 0 {
		t.Errorf("admitted_total = %d, want 0: a rejected request must not be admitted", m["admitted_total"])
	}
}

// TestBudgetExhaustedCountedPerAnswer: budget_exhausted_total counts every
// answer that ended budget-exhausted — each batch item and each sweep
// point, streamed or not — like a /v1/solve response, and each one feeds
// the degradation ladder.
func TestBudgetExhaustedCountedPerAnswer(t *testing.T) {
	inst := testInstance(t)
	starved := SolveOverrides{Strategy: "contract", WorkBudget: 1}
	sweep := func(stream bool) SweepRequest {
		return SweepRequest{Corridors: []int{2}, Lens: []int{6}, Units: 60, Points: 2, Horizon: 1200,
			Stream: stream, SolveOverrides: starved}
	}
	for _, tc := range []struct {
		name, path string
		body       any
	}{
		{"batch", "/v1/batch", BatchRequest{Instances: []InstanceSpec{{Instance: inst}, {Instance: inst}}, SolveOverrides: starved}},
		{"sweep", "/v1/sweep", sweep(false)},
		{"streamed sweep", "/v1/sweep", sweep(true)},
	} {
		srv := New(Config{})
		w := postJSON(t, srv.Handler(), tc.path, tc.body, nil)
		if w.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, w.Code, w.Body.String())
		}
		if got := strings.Count(w.Body.String(), `"code":"budget-exhausted"`); got != 2 {
			t.Fatalf("%s: %d budget-exhausted answers, want 2: %s", tc.name, got, w.Body.String())
		}
		if got := srv.Metrics()["budget_exhausted_total"]; got != 2 {
			t.Errorf("%s: budget_exhausted_total = %d, want 2", tc.name, got)
		}
		if r := srv.deg.rung(); r == 0 {
			t.Errorf("%s: two exhausted answers left the degradation ladder at rung 0", tc.name)
		}
	}
}

// TestDrainClean: SIGTERM semantics end to end — admission stops, the
// in-flight solve completes with its answer, Drain returns nil, and Serve
// unwinds with http.ErrServerClosed.
func TestDrainClean(t *testing.T) {
	inst := testInstance(t)
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		Fault: faultinject.Times(1, func(ctx context.Context, _ faultinject.Info) error {
			close(started)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		}),
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	buf, err := json.Marshal(SolveRequest{InstanceSpec: InstanceSpec{Instance: inst}})
	if err != nil {
		t.Fatal(err)
	}
	type result struct {
		code int
		body SolveResponse
	}
	inflight := make(chan result, 1)
	go func() {
		resp, err := http.Post(base+"/v1/solve", "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Errorf("in-flight solve: %v", err)
			inflight <- result{}
			return
		}
		defer resp.Body.Close()
		var sr SolveResponse
		json.NewDecoder(resp.Body).Decode(&sr)
		inflight <- result{resp.StatusCode, sr}
	}()
	<-started

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()

	// Draining flips readiness and rejects new admissions on the handler.
	waitFor(t, func() bool { return srv.draining.Load() })
	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("solve during drain: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "draining" {
		t.Errorf("code %q, want draining", resp.Code)
	}
	rw := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rw, httptest.NewRequest(http.MethodGet, "/readyz", nil))
	if rw.Code != http.StatusServiceUnavailable {
		t.Errorf("readyz during drain: %d, want 503", rw.Code)
	}

	close(release)
	if got := <-inflight; got.code != http.StatusOK {
		t.Fatalf("in-flight solve finished %d, want 200 (drain must not cancel admitted work)", got.code)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain not clean: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
	m := srv.Metrics()
	if m["drains_total"] != 1 || m["rejected_drain_total"] != 1 {
		t.Errorf("drain counters: %+v", m)
	}
}

// TestBatchAndSweep covers the remaining endpoints' happy paths and their
// size guards.
func TestBatchAndSweep(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{})

	w := postJSON(t, srv.Handler(), "/v1/batch", BatchRequest{
		Instances: []InstanceSpec{{Instance: inst}, {Instance: inst}},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	br := decodeAs[BatchResponse](t, w)
	if len(br.Items) != 2 || !br.Items[0].OK || !br.Items[1].OK {
		t.Fatalf("batch items: %+v", br.Items)
	}
	if br.Items[0].Agents != br.Items[1].Agents {
		t.Errorf("identical batch instances disagree: %+v", br.Items)
	}

	w = postJSON(t, srv.Handler(), "/v1/sweep", SweepRequest{
		Corridors: []int{2}, Lens: []int{6}, Units: 60, Points: 2, Horizon: 1200,
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", w.Code, w.Body.String())
	}
	sr := decodeAs[SweepResponse](t, w)
	if len(sr.Cells) != 1 || len(sr.Cells[0].Points) != 2 {
		t.Fatalf("sweep cells: %+v", sr.Cells)
	}

	w = postJSON(t, srv.Handler(), "/v1/sweep", SweepRequest{
		Corridors: []int{2, 3, 4}, Lens: []int{6, 7, 9}, Units: 480, Points: 100, Horizon: 1200,
	}, nil)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("oversized sweep: status %d, want 422: %s", w.Code, w.Body.String())
	}
}

// TestVarsEndpoint: counters are served as JSON — flat server counters
// plus the nested per-client object.
func TestVarsEndpoint(t *testing.T) {
	srv := New(Config{})
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	vars := decodeAs[map[string]json.RawMessage](t, w)
	if _, ok := vars["requests_total"]; !ok {
		t.Errorf("vars missing requests_total: %v", vars)
	}
	var clients map[string]ClientStats
	if err := json.Unmarshal(vars["clients"], &clients); err != nil {
		t.Errorf("vars clients object: %v", err)
	}
}

// TestMetricsEndpoint: the Prometheus text exposition must carry every
// counter from /debug/vars under the wspd_ namespace, with a matching value
// and a # TYPE line of the right kind, after real traffic has moved the
// counters off zero.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: testInstance(t)},
	}, nil)
	if w.Code != http.StatusOK {
		t.Fatalf("solve: status %d: %s", w.Code, w.Body.String())
	}

	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	rawVars := decodeAs[map[string]json.RawMessage](t, w)
	vars := make(map[string]int64)
	for name, raw := range rawVars {
		if name == "clients" {
			continue // nested object, checked by TestPerClientMetrics
		}
		var v int64
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatalf("vars %s: %v", name, err)
		}
		vars[name] = v
	}

	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content-type %q", ct)
	}
	body := w.Body.String()
	if vars["requests_total"] == 0 {
		t.Fatal("solve left requests_total at zero; counter wiring regressed")
	}
	for name, val := range vars {
		kind := "counter"
		if !strings.HasSuffix(name, "_total") {
			kind = "gauge"
		}
		if want := fmt.Sprintf("# TYPE wspd_%s %s\n", name, kind); !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", strings.TrimSpace(want))
		}
		// The sample line must match the JSON value. The snapshots are taken
		// back to back with no solve in flight, so the counters are stable.
		if want := fmt.Sprintf("wspd_%s %d\n", name, val); !strings.Contains(body, want) {
			t.Errorf("metrics missing sample %q; body:\n%s", strings.TrimSpace(want), body)
		}
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
