package server

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// fuzzPaths are the solve endpoints FuzzSolveEndpoints drives, by index.
var fuzzPaths = [...]string{"/v1/solve", "/v1/batch", "/v1/sweep", "/v1/lifelong"}

// FuzzSolveEndpoints posts arbitrary bodies to the four solve endpoints of
// a small server (64 KiB bodies, batches of 4, sweeps of 8 evaluations,
// 200 ms deadlines, no client budget, no degradation) and requires that no
// input panics the request path, that a 400 is answered before admission,
// and that no answer — status line, batch item, sweep point or NDJSON
// error line — is an "internal" fault.
func FuzzSolveEndpoints(f *testing.F) {
	for _, seed := range []struct {
		path uint8
		body string
	}{
		{0, `{"map":"sorting","units":12,"horizon":800}`},
		{0, `{"map":"sorting","units":12,"horizon":800,"strategy":"contract","work_budget":-1`},
		{1, `{"instances":[{"map":"sorting","units":12,"horizon":800},{"map":"sorting","units":6,"horizon":800}]}`},
		{1, `{"instances":[{"map":"sorting","units":12}],"deadline_ms":"soon"}`},
		{2, `{"corridors":[2],"lens":[6],"units":60,"points":2,"horizon":1200,"stream":true}`},
		{2, `{"corridors":[2,3],"lens":[6],"units":60,"points":2,"horizon":1200,"extra":1}`},
		{3, `{"map":"sorting","horizon":2400,"batches":[{"release":0,"units":6},{"release":800,"units":6}]}`},
		{3, `{"map":"sorting","horizon":2400,"batches":[{"release":2400,"units":6}]}`},
		{3, `{"map":"sorting","horizon":3600,"batches":[{"release":3595,"units":10}],"strategy":"route"}`},
		// A sweep spec the walk refuses, a sweep floor too large to
		// generate, and route packing's shortfall verdict.
		{2, `{"corridors":[2],"lens":[6],"units":60,"points":2,"horizon":-5}`},
		{2, `{"corridors":[60],"lens":[6],"units":60,"points":2,"horizon":1200,"stripes":3600,"products":3600}`},
		{0, `{"map":"sorting","units":480,"horizon":400,"strategy":"route"}`},
		// Findings: a sweep level beyond the topology's stock, and a plan
		// that does not finish within its horizon (testdata holds a
		// batch that found it).
		{2, `{"corridors":[2,3],"lens":[6],"units":6000,"points":2,"horizon":1200}`},
		{0, `{"map":"sorting","units":1,"horizon":10}`},
		// Lifelong batches in the per-product form (sorting stocks 36
		// products), one of them with a negative demand.
		{3, `{"map":"sorting","horizon":2400,"batches":[{"release":0,"per_product":[2,1` + strings.Repeat(",0", 34) + `]}]}`},
		{3, `{"map":"sorting","horizon":2400,"batches":[{"release":0,"per_product":[-5,10` + strings.Repeat(",0", 34) + `]}]}`},
	} {
		f.Add(seed.path, []byte(seed.body))
	}
	f.Fuzz(func(t *testing.T, path uint8, body []byte) {
		p := fuzzPaths[int(path)%len(fuzzPaths)]
		srv := New(Config{
			MaxBodyBytes:    64 << 10,
			MaxBatch:        4,
			MaxSweepPoints:  8,
			DefaultDeadline: 200 * time.Millisecond,
			MaxDeadline:     200 * time.Millisecond,
			ClientRate:      math.MaxInt64,
			ClientBurst:     math.MaxInt64,
			NoDegrade:       true,
		})
		hang := time.AfterFunc(10*time.Second, func() { panic(fmt.Sprintf("hang: %s %q", p, body)) })
		defer hang.Stop()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, p, bytes.NewReader(body)))

		m := srv.Metrics()
		if m["panics_total"] != 0 || bytes.Contains(w.Body.Bytes(), []byte(`"code":"panic"`)) {
			t.Fatalf("%s %s: panicked: %d %s", p, body, w.Code, w.Body.Bytes())
		}
		if w.Code == http.StatusBadRequest && m["admitted_total"] != 0 {
			t.Fatalf("%s %s: a 400 was admitted: %s", p, body, w.Body.Bytes())
		}
		// Codes are JSON strings, so an error text that quotes one is
		// escaped and cannot match.
		if bytes.Contains(w.Body.Bytes(), []byte(`"code":"internal"`)) {
			t.Fatalf("%s %s: answered an internal fault: %d %s", p, body, w.Code, w.Body.Bytes())
		}
	})
}
