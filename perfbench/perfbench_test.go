package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"testing"
	"time"

	"repro/internal/calibrate"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[n-1-i] = float64(i + 1) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want float64 // 0 = must refuse
	}{
		{100, 0.9, 90}, // rank 90 leaves 10 beyond
		{99, 0.9, 0},   // rank 90 leaves 9
		{20, 0.5, 10},
		{19, 0.5, 0},
		{0, 0.5, 0},
	} {
		got, err := percentile(seq(c.n), c.q)
		if c.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", 100*c.q, c.n, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", 100*c.q, c.n, got, err, c.want)
		}
	}
	if minSamples-int(0.9*minSamples) != minBeyond {
		t.Errorf("minSamples %d does not leave %d samples beyond p90", minSamples, minBeyond)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 values = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 values = %g, want 2.5", got)
	}
}

func TestSelfTimeSubtractsChildSpans(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", Parent: -1, Start: 0, End: 200},
		{Name: "core", Parent: 0, Start: 0, End: 100},
		{Name: "stages", Parent: 0, Start: 100, End: 195},
		{Name: "agentplan.realize", Parent: 2, Start: 110, End: 170},
		{Name: "sim.validate", Parent: 2, Start: 170, End: 190},
		{Name: "agentplan.realize", Parent: 2, Start: 190, End: 192},
	}}
	s := tr.sums(1)
	if s["agentplan.realize"] != 62 || s["core"] != 100 {
		t.Fatalf("sums = %v", s)
	}
	if got := selfTime(s["core"], s["agentplan.realize"], s["sim.validate"]); got != 18 {
		t.Errorf("core self time = %v, want 18ns", got)
	}
	// A paired child can outlast its parent; the difference is kept.
	if got := selfTime(10*time.Millisecond, 12*time.Millisecond); got != -2*time.Millisecond {
		t.Errorf("self time = %v, want -2ms", got)
	}
}

func TestOpenLoopTimesFromDueTime(t *testing.T) {
	ms := time.Millisecond
	s := sample{due: 10 * ms, sent: 15 * ms, recv: 40 * ms, serverMS: 20}
	if s.late() != 5*ms {
		t.Errorf("late = %v, want 5ms", s.late())
	}
	if s.latency() != 30*ms {
		t.Errorf("latency = %v, want 30ms (from the due time, not the send)", s.latency())
	}
	if s.overheadMS() != 5 {
		t.Errorf("overhead = %gms, want 5ms", s.overheadMS())
	}
}

func TestScheduleIsSeededAndSpansTheRun(t *testing.T) {
	span := 2 * time.Second
	weights := []float64{0.5, 0.25, 0.25}
	a := schedule(7, 1000, span, weights)
	if !slices.Equal(a, schedule(7, 1000, span, weights)) {
		t.Fatal("same seed gave different schedules")
	}
	if slices.Equal(a, schedule(8, 1000, span, weights)) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 1000 || a[len(a)-1].due != span {
		t.Fatalf("%d arrivals ending at %v, want 1000 ending at %v", len(a), a[len(a)-1].due, span)
	}
	counts := make([]int, len(weights))
	for i, x := range a {
		if i > 0 && x.due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		counts[x.kind]++
	}
	if counts[0] < 430 || counts[0] > 570 {
		t.Errorf("kind counts %v, want about half on kind 0", counts)
	}
}

func TestParseGCTrace(t *testing.T) {
	c, ok := parseGC("gc 12 @0.482s 3%: 0.021+1.2+0.030 ms clock, 0.043+0.31/0.60/0+0.061 ms cpu, 7->8->2 MB, 8 MB goal, 0 MB stacks, 0 MB globals, 2 P")
	if !ok || c.pause != 51*time.Microsecond || c.heapEnd != 8 || c.heapLive != 2 {
		t.Fatalf("parsed %+v, %v", c, ok)
	}
	if _, ok := parseGC("wspd: serving on 127.0.0.1:1234"); ok {
		t.Error("parsed a log line as a GC cycle")
	}
	cycles := []gcCycle{{heapEnd: 5, heapLive: 1}, {heapEnd: 6, heapLive: 2}, {heapEnd: 9, heapLive: 1}}
	if got := allocMB(cycles, 1, 3); got != (6-1)+(9-2) {
		t.Errorf("allocMB = %g, want 12", got)
	}
}

// The check must catch an answer that differs from its pin in any pinned
// field, using a real solve of the first Table I instance.
func TestCheckRejectsTamperedAnswer(t *testing.T) {
	pf, err := loadPins()
	if err != nil {
		t.Fatal(err)
	}
	r, _, err := tableI.newRunner(config{seed: defaultSeed, pins: pf})
	if err != nil {
		t.Fatal(err)
	}
	o := r.ops[0]
	res, err := r.solve(context.Background(), o)
	got := answerOf(res, err)
	if !r.check(o, res, got) {
		t.Fatalf("untampered answer %+v rejected", got)
	}
	for _, tamper := range []func(*answer){
		func(a *answer) { a.Agents++ },
		func(a *answer) { a.Cycles-- },
		func(a *answer) { a.ServicedAt++ },
		func(a *answer) { a.Verdict = calibrate.VerdictInfeasible },
	} {
		bad := got
		tamper(&bad)
		if r.check(o, res, bad) {
			t.Errorf("tampered answer %+v accepted", bad)
		}
	}
	if r.out.failed != 4 {
		t.Errorf("counted %d failures, want 4", r.out.failed)
	}
}

func TestUnpinnedInputsNeedExpectedVerdict(t *testing.T) {
	pf := &pinFile{Seed: 1, Pins: map[string]pin{"w/a": {Fingerprint: "f", answer: answer{Verdict: "solved", Agents: 3}}}}
	expect := []calibrate.Verdict{calibrate.VerdictSolved, calibrate.VerdictInfeasible}
	if _, err := pf.check(1, "w/a", "other", answer{Verdict: "solved", Agents: 3}, expect); err == nil {
		t.Error("input without a pin accepted at the default seed")
	}
	if pinned, err := pf.check(2, "w/a", "other", answer{Verdict: "infeasible"}, expect); pinned || err != nil {
		t.Errorf("unpinned infeasible answer on another seed: pinned=%v err=%v", pinned, err)
	}
	if _, err := pf.check(2, "w/a", "other", answer{Verdict: "error"}, expect); err == nil {
		t.Error("unpinned error verdict accepted")
	}
}

// BENCHMARK.json and the metric tables here must name the same metrics.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		defs []metricDef
		json []struct{ Name, Unit string }
	}{{endToEnd, b.EndToEnd}, {perLayer, b.PerLayer}} {
		if len(c.defs) != len(c.json) {
			t.Fatalf("%d metrics here, %d in BENCHMARK.json", len(c.defs), len(c.json))
		}
		for i, d := range c.defs {
			if d.name != c.json[i].Name || d.unit != c.json[i].Unit {
				t.Errorf("metric %d: %s (%s) here, %s (%s) in BENCHMARK.json", i, d.name, d.unit, c.json[i].Name, c.json[i].Unit)
			}
		}
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names unknown workload %s", w.Name)
		}
	}
}
