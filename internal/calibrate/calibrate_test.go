package calibrate

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/lp"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Verdict
	}{
		{nil, VerdictSolved},
		{fmt.Errorf("wrap: %w", lp.ErrCanceled), VerdictCanceled},
		{fmt.Errorf("wrap: %w", lp.ErrBudgetExhausted), VerdictBudget},
		{fmt.Errorf("wrap: %w", flow.ErrHorizonTooShort), VerdictHorizon},
		{fmt.Errorf("wrap: %w", flow.ErrInfeasible), VerdictInfeasible},
		{fmt.Errorf("synthesis exploded"), VerdictError},
		// A cancelled solve that also exhausted its budget is canceled:
		// the caller walked away; the budget says nothing.
		{fmt.Errorf("%w after %w", lp.ErrCanceled, lp.ErrBudgetExhausted), VerdictCanceled},
	}
	for _, tc := range cases {
		if got := Classify(tc.err); got != tc.want {
			t.Errorf("Classify(%v) = %s, want %s", tc.err, got, tc.want)
		}
	}
}

func smallCorpus(t *testing.T) []*datasets.Instance {
	t.Helper()
	insts, err := datasets.Generate(1, "rings")
	if err != nil {
		t.Fatal(err)
	}
	return insts[:2]
}

// contractCorpus returns an instance every strategy solves, so the
// contract-path knob tests measure budgets rather than feasibility.
func contractCorpus(t *testing.T) []*datasets.Instance {
	t.Helper()
	insts, err := datasets.Generate(1, "stripes")
	if err != nil {
		t.Fatal(err)
	}
	return insts[:1]
}

// TestRunDeterministic pins the report determinism contract: two runs of
// the same corpus under the same knobs agree on every verdict and every
// work figure (latency is explicitly exempt).
func TestRunDeterministic(t *testing.T) {
	insts := smallCorpus(t)
	a := Run(context.Background(), insts, Knobs{}, "a", 1)
	b := Run(context.Background(), insts, Knobs{}, "b", 1)
	if len(a.Instances) != len(b.Instances) {
		t.Fatalf("instance counts differ: %d vs %d", len(a.Instances), len(b.Instances))
	}
	for i := range a.Instances {
		ia, ib := a.Instances[i], b.Instances[i]
		if ia.Verdict != ib.Verdict {
			t.Errorf("%s: verdict %s vs %s", ia.Name, ia.Verdict, ib.Verdict)
		}
		if ia.Work != ib.Work {
			t.Errorf("%s: work %d vs %d", ia.Name, ia.Work, ib.Work)
		}
		if ia.Verdict != VerdictSolved {
			t.Errorf("%s: %s (%s), want solved", ia.Name, ia.Verdict, ia.Err)
		}
	}
}

// TestCorpusSolvableByRoutePacking pins corpus health: every instance of
// every family must solve under the flagship route-packing strategy with
// default knobs. (The flows/contract strategies legitimately fail parts
// of the corpus — that coverage gap is exactly what reports measure — but
// an instance no strategy solves is a broken generator, not a scenario.)
func TestCorpusSolvableByRoutePacking(t *testing.T) {
	insts, err := datasets.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	rep := Run(context.Background(), insts, Knobs{}, "health", 1)
	for _, ir := range rep.Instances {
		if ir.Verdict != VerdictSolved {
			t.Errorf("%s: %s (%s)", ir.Name, ir.Verdict, ir.Err)
		}
	}
}

func TestRunReportShape(t *testing.T) {
	insts := contractCorpus(t)
	rep := Run(context.Background(), insts, Knobs{Strategy: core.ContractILP}, "shape", 7)
	if rep.Schema != ReportSchema {
		t.Errorf("schema %q", rep.Schema)
	}
	if rep.Label != "shape" || rep.Seed != 7 {
		t.Errorf("label %q seed %d", rep.Label, rep.Seed)
	}
	if len(rep.Families) != 1 || rep.Families[0].Family != "stripes" {
		t.Fatalf("families %+v", rep.Families)
	}
	f := rep.Families[0]
	if f.Instances != len(insts) || f.Solved != f.Verdicts[VerdictSolved] {
		t.Errorf("family stats %+v", f)
	}
	if f.P50Millis > f.P95Millis || f.P95Millis > f.P99Millis {
		t.Errorf("percentiles not monotone: %+v", f)
	}
	if f.Solved > 0 && f.Work == 0 {
		t.Error("contract solves reported zero work; meter tap missing")
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema":"wsp-corpus-report/v2"`, `"strategy":"contract-ilp"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("report JSON missing %s", want)
		}
	}
	if strings.Contains(string(data), `"hybrid"`) {
		t.Errorf("default knobs rendered the hybrid mode: %s", data)
	}
	hyb, err := json.Marshal(Knobs{Strategy: core.ContractILP, Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(hyb), `"hybrid":true`) {
		t.Errorf("hybrid knobs JSON %s lacks \"hybrid\":true", hyb)
	}
}

// TestCalibrateStable pins the calibration stability contract: the same
// corpus and spec produce the same candidate order and the same
// recommendation, and a starved work budget scores below a clean solve.
func TestCalibrateStable(t *testing.T) {
	insts := contractCorpus(t)
	spec := Spec{
		Base:        Knobs{Strategy: core.ContractILP},
		WorkBudgets: []int64{1, 0},
	}
	a, err := Calibrate(context.Background(), insts, spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Calibrate(context.Background(), insts, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Candidates) != 2 {
		t.Fatalf("candidates = %d, want 2", len(a.Candidates))
	}
	if a.Recommended != b.Recommended {
		t.Errorf("recommendation unstable: %+v vs %+v", a.Recommended, b.Recommended)
	}
	for i := range a.Candidates {
		if a.Candidates[i].Knobs != b.Candidates[i].Knobs || a.Candidates[i].Score != b.Candidates[i].Score {
			t.Errorf("candidate %d unstable: %+v vs %+v", i, a.Candidates[i], b.Candidates[i])
		}
	}
	best, worst := a.Candidates[0], a.Candidates[1]
	if best.Knobs.WorkBudget != 0 || best.Solved != 1 {
		t.Errorf("best candidate %+v, want the unbudgeted clean solve", best)
	}
	if worst.Budget != 1 || worst.Score >= best.Score {
		t.Errorf("starved candidate %+v should be budget-stopped and score below %v", worst, best.Score)
	}
	var sb strings.Builder
	if err := a.Format(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "recommended: ") {
		t.Errorf("Format output missing recommendation:\n%s", sb.String())
	}
}

func TestWriteBenchLines(t *testing.T) {
	rep := &Report{
		Instances: []InstanceResult{
			{Name: "demand/bursty-0", Family: "demand", Verdict: VerdictSolved, Millis: 2.5, Work: 42},
			{Name: "rings/ring-10x6-L6-st1", Family: "rings", Verdict: VerdictBudget, Millis: 1, Work: 7},
		},
	}
	var sb strings.Builder
	if err := WriteBenchLines(&sb, rep); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"BenchmarkCorpus/family=demand/inst=bursty-0",
		"2500000 ns/op",
		"42 work/op",
		"1 solved",
		"BenchmarkCorpus/family=rings/inst=ring-10x6-L6-st1",
		"0 solved",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("bench lines missing %q in:\n%s", want, out)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4}
	if got := percentile(s, 0.5); got != 2 {
		t.Errorf("p50 = %v, want 2", got)
	}
	if got := percentile(s, 0.99); got != 4 {
		t.Errorf("p99 = %v, want 4", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
