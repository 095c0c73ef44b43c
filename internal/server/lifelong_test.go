package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/server/faultinject"
	"repro/wsp"
)

// lifelongRequest is the canonical two-batch streaming request against the
// inline test instance: a release at t=0 and one at t=800, forcing two
// epochs within a 2400-step horizon.
func lifelongRequest(t *testing.T) LifelongRequest {
	t.Helper()
	return LifelongRequest{
		InstanceSpec: InstanceSpec{Instance: testInstance(t), Horizon: 2400},
		Batches: []LifelongBatchSpec{
			{Release: 0, Units: 6},
			{Release: 800, Units: 6},
		},
	}
}

// stallHook blocks the nth intercepted call until release closes (or the
// request context fires), passing all others through. Call order on
// /v1/lifelong: 1 = pre-run, 2 = after epoch 1, 3 = after epoch 2, ...
func stallHook(n int64, started chan<- struct{}, release <-chan struct{}) faultinject.Hook {
	var seen atomic.Int64
	return func(ctx context.Context, _ faultinject.Info) error {
		if seen.Add(1) != n {
			return nil
		}
		close(started)
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			return context.Cause(ctx)
		}
	}
}

// TestLifelongStreamsEpochs is the endpoint's core contract: epoch lines
// are flushed while the run is still going (the first epoch line is
// readable while epoch 2 is stalled mid-run), and the terminal report line
// matches a direct wsp.Solver.Lifelong call bit-for-bit.
func TestLifelongStreamsEpochs(t *testing.T) {
	req := lifelongRequest(t)
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{Fault: stallHook(3, started, release)})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	defer srv.Drain(context.Background())

	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post("http://"+l.Addr().String()+"/v1/lifelong", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content-type %q, want application/x-ndjson", ct)
	}

	// Epoch 1's line must arrive while the run is stalled before epoch 2's
	// line — streaming, not buffer-then-dump.
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	<-started // the run is provably mid-flight: stalled after epoch 2's solve
	var first LifelongEpochLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	if first.Type != "epoch" || first.Epoch != 1 {
		t.Fatalf("first line = %+v, want epoch 1", first)
	}
	if first.End != first.Start+first.Changeover+first.ServicedAt {
		t.Errorf("epoch line timeline inconsistent: %+v", first)
	}
	close(release)

	var lines []json.RawMessage
	for sc.Scan() {
		lines = append(lines, append(json.RawMessage(nil), sc.Bytes()...))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d lines after epoch 1, want 2 (epoch 2 + report)", len(lines))
	}
	var second LifelongEpochLine
	if err := json.Unmarshal(lines[0], &second); err != nil || second.Type != "epoch" || second.Epoch != 2 {
		t.Fatalf("second line %s: %+v (%v)", lines[0], second, err)
	}
	var report LifelongReportLine
	if err := json.Unmarshal(lines[1], &report); err != nil || report.Type != "report" {
		t.Fatalf("last line %s: %v", lines[1], err)
	}
	if !report.OK || report.Degraded {
		t.Fatalf("report = %+v, want ok and undegraded", report)
	}

	// The streamed run answers exactly what a library user gets.
	sys, _, err := wsp.DecodeInstance(req.Instance)
	if err != nil {
		t.Fatal(err)
	}
	var batches []wsp.Batch
	for _, bs := range req.Batches {
		wl, err := wsp.UniformWorkload(sys.W, bs.Units)
		if err != nil {
			t.Fatal(err)
		}
		batches = append(batches, wsp.Batch{Release: bs.Release, Units: wl.Units})
	}
	want, err := wsp.NewFromConfig(wsp.Config{}).Lifelong(context.Background(), sys, batches, 2400)
	if err != nil {
		t.Fatal(err)
	}
	if report.Epochs != want.Epochs || report.PeakAgents != want.PeakAgents ||
		!reflect.DeepEqual(report.Delivered, want.Delivered) {
		t.Errorf("report %+v diverges from direct run %+v", report, want)
	}
	for i, b := range want.Batches {
		got := report.Batches[i]
		if got.Release != b.Release || got.Units != b.Units || got.Completed != b.Completed {
			t.Errorf("batch %d: %+v, direct run says %+v", i, got, b)
		}
	}
	if m := srv.Metrics(); m["completed_total"] != 1 {
		t.Errorf("completed_total = %d, want 1", m["completed_total"])
	}
}

// TestLifelongClientDisconnectIs499: a client hanging up before the first
// epoch gets the regular 499 envelope, exactly like /v1/solve.
func TestLifelongClientDisconnectIs499(t *testing.T) {
	started := make(chan struct{})
	srv := New(Config{
		Fault: func(ctx context.Context, _ faultinject.Info) error {
			close(started)
			<-ctx.Done()
			return context.Cause(ctx)
		},
	})

	buf, err := json.Marshal(lifelongRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req := httptest.NewRequest(http.MethodPost, "/v1/lifelong", bytes.NewReader(buf)).WithContext(ctx)
	go func() {
		<-started
		cancel()
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

// TestLifelongMidStreamDisconnect: once epoch lines have been streamed the
// status line is committed, so a disconnect surfaces as the client-gone
// counter (and an unread in-band error line), and the run stops instead of
// grinding to the horizon.
func TestLifelongMidStreamDisconnect(t *testing.T) {
	started := make(chan struct{})
	// The hook fires before each epoch's line is written, so stalling call 3
	// leaves epoch 1's line flushed and the run held mid-epoch-2. A third
	// batch keeps the run alive past the abort point: the disconnect must
	// cancel epoch 3's solve, not coast over an already-finished run.
	srv := New(Config{Fault: stallHook(3, started, nil)})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go srv.Serve(l)
	defer srv.Drain(context.Background())

	req := lifelongRequest(t)
	req.Batches = append(req.Batches, LifelongBatchSpec{Release: 1600, Units: 6})
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+l.Addr().String()+"/v1/lifelong", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first line: %v", sc.Err())
	}
	var first LifelongEpochLine
	if err := json.Unmarshal(sc.Bytes(), &first); err != nil || first.Type != "epoch" {
		t.Fatalf("first line %q: %v", sc.Text(), err)
	}
	<-started // epoch 1 streamed, run stalled on the hook
	cancel()  // the client hangs up mid-stream

	waitFor(t, func() bool { return srv.Metrics()["client_gone_total"] == 1 })
	if m := srv.Metrics(); m["completed_total"] != 0 {
		t.Errorf("completed_total = %d, want 0 (run must abort)", m["completed_total"])
	}
}

// TestLifelongDeadlineIs504: the server's deadline policy governs lifelong
// runs like any solve.
func TestLifelongDeadlineIs504(t *testing.T) {
	srv := New(Config{Fault: faultinject.Sleep(10 * time.Second)})
	req := lifelongRequest(t)
	req.DeadlineMS = 30
	w := postJSON(t, srv.Handler(), "/v1/lifelong", req, nil)
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

// TestLifelongOutOfTimeIs422: a batch released too late to serve is the
// run's horizon-too-short verdict, not a server fault.
func TestLifelongOutOfTimeIs422(t *testing.T) {
	body := `{"map":"sorting","horizon":3600,"batches":[{"release":3595,"units":10}],"strategy":"route"}`
	w := httptest.NewRecorder()
	New(Config{}).Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/lifelong", strings.NewReader(body)))
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[ErrorResponse](t, w)
	if resp.Code != "horizon-too-short" || !strings.HasSuffix(resp.Error, "lifelong: 10 units outstanding with no time left") {
		t.Errorf("answer %+v, want horizon-too-short with the run's own message", resp)
	}
	if n := strings.Count(resp.Error, "lifelong:"); n != 1 {
		t.Errorf("answer %q names \"lifelong:\" %d times, want once", resp.Error, n)
	}
}

// TestLifelongDrainClean: a drain started mid-stream lets the run finish
// (its report line included) while new lifelong runs are refused.
func TestLifelongDrainClean(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{Fault: stallHook(3, started, release)}) // hold after epoch 1's line

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(l) }()
	base := "http://" + l.Addr().String()

	buf, err := json.Marshal(lifelongRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	type streamResult struct {
		lines []string
		err   error
	}
	inflight := make(chan streamResult, 1)
	go func() {
		resp, err := http.Post(base+"/v1/lifelong", "application/json", bytes.NewReader(buf))
		if err != nil {
			inflight <- streamResult{err: err}
			return
		}
		defer resp.Body.Close()
		var res streamResult
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			res.lines = append(res.lines, sc.Text())
		}
		res.err = sc.Err()
		inflight <- res
	}()
	<-started // epoch 1's line streamed, run stalled mid-epoch-2

	drainErr := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		drainErr <- srv.Drain(ctx)
	}()
	waitFor(t, func() bool { return srv.draining.Load() })

	w := postJSON(t, srv.Handler(), "/v1/lifelong", lifelongRequest(t), nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("lifelong during drain: status %d, want 503: %s", w.Code, w.Body.String())
	}
	if resp := decodeAs[ErrorResponse](t, w); resp.Code != "draining" {
		t.Errorf("code %q, want draining", resp.Code)
	}

	close(release)
	got := <-inflight
	if got.err != nil {
		t.Fatalf("in-flight stream: %v (drain must not cut admitted streams)", got.err)
	}
	if len(got.lines) == 0 {
		t.Fatal("in-flight stream got no lines")
	}
	var report LifelongReportLine
	if err := json.Unmarshal([]byte(got.lines[len(got.lines)-1]), &report); err != nil || report.Type != "report" || !report.OK {
		t.Fatalf("stream did not end in an ok report line: %q (%v)", got.lines[len(got.lines)-1], err)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("drain not clean: %v", err)
	}
	if err := <-serveErr; !errors.Is(err, http.ErrServerClosed) {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestLifelongValidation covers the endpoint's 400/422 guards.
func TestLifelongValidation(t *testing.T) {
	srv := New(Config{MaxBatch: 2})
	inst := testInstance(t)
	cases := []struct {
		name    string
		req     LifelongRequest
		code    int
		errCode string // the answer's error code, when the case pins one
	}{
		{"no-batches", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst},
		}, http.StatusBadRequest, ""},
		{"too-many-batches", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, Units: 1}, {Release: 1, Units: 1}, {Release: 2, Units: 1}},
		}, http.StatusUnprocessableEntity, ""},
		{"top-level-units", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Units: 5, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, Units: 6}},
		}, http.StatusBadRequest, ""},
		{"release-out-of-range", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 2400, Units: 6}},
		}, http.StatusBadRequest, ""},
		{"both-demand-forms", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, Units: 6, PerProduct: []int{1, 1}}},
		}, http.StatusBadRequest, ""},
		{"wrong-product-count", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, PerProduct: []int{1, 1, 1}}},
		}, http.StatusBadRequest, ""},
		{"empty-batch", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0}},
		}, http.StatusBadRequest, ""},
		// A negative demand is refused before admission, whether the
		// batch's total is positive or zero.
		{"negative-per-product", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, PerProduct: []int{-5, 10}}},
		}, http.StatusBadRequest, "bad-request"},
		{"negative-per-product-zero-total", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, PerProduct: []int{-10, 10}}},
		}, http.StatusBadRequest, "bad-request"},
		// An all-zero per-product demand carries no units, like an
		// empty batch.
		{"zero-per-product", LifelongRequest{
			InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
			Batches:      []LifelongBatchSpec{{Release: 0, PerProduct: []int{0, 0}}},
		}, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		w := postJSON(t, srv.Handler(), "/v1/lifelong", tc.req, nil)
		if w.Code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, w.Code, tc.code, w.Body.String())
			continue
		}
		if tc.errCode != "" {
			if resp := decodeAs[ErrorResponse](t, w); resp.Code != tc.errCode {
				t.Errorf("%s: code %q, want %q", tc.name, resp.Code, tc.errCode)
			}
		}
	}
	if m := srv.Metrics(); m["admitted_total"] != 0 {
		t.Errorf("admitted_total = %d, want 0: every case is refused before admission", m["admitted_total"])
	}
}

// TestPerClientMetrics: the admission gate keeps a per-client ledger —
// requests, 429s, work charged — exported as a nested /debug/vars object
// and client-labeled Prometheus series, with cardinality bounded by the
// client-table limit.
func TestPerClientMetrics(t *testing.T) {
	inst := testInstance(t)
	srv := New(Config{
		MaxClients:  2,
		ClientBurst: 20_000_000, // exactly one default-cost solve
		ClientRate:  1,          // no meaningful refill within the test
	})
	post := func(client string) *httptest.ResponseRecorder {
		return postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
			InstanceSpec: InstanceSpec{Instance: inst},
		}, map[string]string{"X-Client-ID": client})
	}
	if w := post("alice"); w.Code != http.StatusOK {
		t.Fatalf("alice solve 1: status %d: %s", w.Code, w.Body.String())
	}
	if w := post("alice"); w.Code != http.StatusTooManyRequests {
		t.Fatalf("alice solve 2: status %d, want 429: %s", w.Code, w.Body.String())
	}
	if w := post("bob"); w.Code != http.StatusOK {
		t.Fatalf("bob solve: status %d: %s", w.Code, w.Body.String())
	}

	clients := srv.adm.clientStats()
	if got := clients["alice"]; got.Requests != 2 || got.Rejected != 1 || got.WorkCharged != 20_000_000 {
		t.Errorf("alice ledger = %+v, want {2 1 20000000}", got)
	}
	if got := clients["bob"]; got.Requests != 1 || got.Rejected != 0 || got.WorkCharged != 20_000_000 {
		t.Errorf("bob ledger = %+v, want {1 0 20000000}", got)
	}

	// /debug/vars carries the ledgers as a nested object.
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/vars", nil))
	vars := decodeAs[map[string]json.RawMessage](t, w)
	var varClients map[string]ClientStats
	if err := json.Unmarshal(vars["clients"], &varClients); err != nil {
		t.Fatalf("vars clients: %v", err)
	}
	if !reflect.DeepEqual(varClients, clients) {
		t.Errorf("vars clients %+v != snapshot %+v", varClients, clients)
	}

	// /metrics carries them as client-labeled series.
	w = httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"# TYPE wspd_client_requests_total counter\n",
		"wspd_client_requests_total{client=\"alice\"} 2\n",
		"wspd_client_rejected_total{client=\"alice\"} 1\n",
		"wspd_client_work_charged_total{client=\"alice\"} 20000000\n",
		"wspd_client_requests_total{client=\"bob\"} 1\n",
	} {
		if !bytes.Contains([]byte(body), []byte(want)) {
			t.Errorf("metrics missing %q; body:\n%s", want, body)
		}
	}

	// A third client evicts the stalest ledger: cardinality stays at the
	// table bound.
	if w := post("carol"); w.Code != http.StatusOK {
		t.Fatalf("carol solve: status %d: %s", w.Code, w.Body.String())
	}
	if clients := srv.adm.clientStats(); len(clients) > 2 {
		t.Errorf("client ledger cardinality %d exceeds MaxClients 2: %+v", len(clients), clients)
	}
}

// TestDegradationUnderRealLoad drives the ladder with real concurrent
// traffic instead of a synthesized load window: one stalled solve pins the
// single in-flight slot while a burst of /v1/solve and /v1/lifelong
// requests is rejected at the door, and the next admitted exact-contract
// solve is answered degraded.
func TestDegradationUnderRealLoad(t *testing.T) {
	inst := testInstance(t)
	started := make(chan struct{})
	release := make(chan struct{})
	srv := New(Config{
		MaxInFlight: 1,
		Solver:      wsp.Config{Strategy: wsp.ContractILP, Limits: wsp.Limits{Exact: true}},
		Fault: func(ctx context.Context, info faultinject.Info) error {
			if info.Client != "staller" {
				return nil
			}
			close(started)
			select {
			case <-release:
				return nil
			case <-ctx.Done():
				return context.Cause(ctx)
			}
		},
	})

	// One admitted solve holds the only slot...
	stalled := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		stalled <- postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
			InstanceSpec: InstanceSpec{Instance: inst},
		}, map[string]string{"X-Client-ID": "staller"})
	}()
	<-started

	// ...while a concurrent burst of solve and lifelong traffic is shed
	// with real 429s — this is the load signal, no synthetic window.
	var wg sync.WaitGroup
	var rejected atomic.Int64
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hdr := map[string]string{"X-Client-ID": fmt.Sprintf("flood-%d", i)}
			var w *httptest.ResponseRecorder
			if i%2 == 0 {
				w = postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
					InstanceSpec: InstanceSpec{Instance: inst},
				}, hdr)
			} else {
				w = postJSON(t, srv.Handler(), "/v1/lifelong", LifelongRequest{
					InstanceSpec: InstanceSpec{Instance: inst, Horizon: 2400},
					Batches:      []LifelongBatchSpec{{Release: 0, Units: 6}},
				}, hdr)
			}
			if w.Code == http.StatusTooManyRequests {
				rejected.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if got := rejected.Load(); got != 12 {
		t.Fatalf("%d of 12 burst requests rejected, want all (slot is pinned)", got)
	}
	close(release)
	if w := <-stalled; w.Code != http.StatusOK {
		t.Fatalf("stalled solve: status %d: %s", w.Code, w.Body.String())
	}

	// The rejection pressure (12 of 14 admission decisions) positions the
	// ladder at rung 2: float arithmetic + route packing.
	w := postJSON(t, srv.Handler(), "/v1/solve", SolveRequest{
		InstanceSpec: InstanceSpec{Instance: inst},
	}, map[string]string{"X-Client-ID": "probe"})
	if w.Code != http.StatusOK {
		t.Fatalf("probe solve: status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeAs[SolveResponse](t, w)
	if !resp.Degraded {
		t.Fatalf("probe solve not degraded under real load: %+v", resp)
	}
	steps := map[string]bool{}
	for _, s := range resp.DegradeSteps {
		steps[s] = true
	}
	if !steps["float-arith"] || !steps["route-packing"] {
		t.Errorf("degrade steps %v, want float-arith and route-packing", resp.DegradeSteps)
	}
	if resp.Strategy != "route-packing" {
		t.Errorf("degraded strategy %q, want route-packing", resp.Strategy)
	}
	if m := srv.Metrics(); m["rejected_load_total"] != 12 || m["degraded_total"] == 0 {
		t.Errorf("load counters: rejected=%d degraded=%d", m["rejected_load_total"], m["degraded_total"])
	}
}
