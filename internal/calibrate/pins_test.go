package calibrate

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/lp"
)

// TestContractFloatDecisionsPinned pins the default contract engine's
// decisions: the verdict and the deterministic simplex work of a single
// ContractILP attempt on five seed-1 corpus instances. The default engine
// is the float revised simplex, whose pivot sequence no other test in
// `go test ./...` observes; any change to its arithmetic, pricing or
// branching that alters a pivot moves a work figure here. The instances
// cover a cheap and a mid-size solve, the costliest solve, a proven
// unsatisfiable search and a node-budget-bound one.
//
// Not parallel: Work is a delta of the process-global lp.WorkMeter.
func TestContractFloatDecisionsPinned(t *testing.T) {
	want := []struct {
		name    string
		verdict Verdict
		work    int64
	}{
		{"stripes/S1-R2-V2-L6-st1", VerdictSolved, 232_029},
		{"stripes/S1-R3-V2-L6-st1", VerdictSolved, 401_128},
		{"demand/spike-0", VerdictSolved, 1_659_476},
		{"rings/14x8-L6-st2", VerdictInfeasible, 175_284},
		{"demand/bursty-0", VerdictBudget, 49_337_810},
	}
	all, err := datasets.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*datasets.Instance{}
	for _, in := range all {
		byName[in.Name] = in
	}
	insts := make([]*datasets.Instance, len(want))
	for i, w := range want {
		if insts[i] = byName[w.name]; insts[i] == nil {
			t.Fatalf("corpus seed 1 has no instance %s", w.name)
		}
	}
	opts := core.Options{Strategy: core.ContractILP, MaxAttempts: 1, SkipRealization: true}
	rep := Run(context.Background(), insts, opts, "pins", 1)
	for i, got := range rep.Instances {
		w := want[i]
		if got.Verdict != w.verdict || got.Work != w.work {
			t.Errorf("%s: %s with work %d (%s), want %s with work %d",
				w.name, got.Verdict, got.Work, got.Err, w.verdict, w.work)
		}
	}
}

// TestContractFenceDecisionsPinned pins the search's frontier fence on
// real contract problems. The default node budget (250) stays below the
// fence (256 nodes), so TestContractFloatDecisionsPinned never reaches it;
// at 20,000 nodes each of these single ContractILP attempts passes it
// once, and the cold restart there decides the vertex the next node lands
// on. Dropping the restart, moving the fence or changing what it fences
// moves a work figure or a verdict. The instances cover a solve, a proven
// unsatisfiable search and a work-budget-bound one.
//
// Not parallel: Work is a delta of the process-global lp.WorkMeter.
func TestContractFenceDecisionsPinned(t *testing.T) {
	want := map[string]struct {
		verdict Verdict
		work    int64
	}{
		"demand/bursty-0":         {VerdictSolved, 74_451_965},
		"movingai/pods-12x7":      {VerdictInfeasible, 24_822_144},
		"stripes/S3-R2-V2-L8-st1": {VerdictBudget, 287_716_104},
	}
	all, err := datasets.Generate(1)
	if err != nil {
		t.Fatal(err)
	}
	var insts []*datasets.Instance
	for _, in := range all {
		if _, ok := want[in.Name]; ok {
			insts = append(insts, in)
		}
	}
	if len(insts) != len(want) {
		t.Fatalf("corpus seed 1 has %d of the %d pinned instances", len(insts), len(want))
	}
	opts := core.Options{Strategy: core.ContractILP, MaxAttempts: 1, SkipRealization: true,
		Limits: lp.Limits{MaxNodes: 20000}}
	for _, got := range Run(context.Background(), insts, opts, "pins", 1).Instances {
		w := want[got.Name]
		if got.Verdict != w.verdict || got.Work != w.work {
			t.Errorf("%s: %s with work %d (%s), want %s with work %d",
				got.Name, got.Verdict, got.Work, got.Err, w.verdict, w.work)
		}
	}
}
