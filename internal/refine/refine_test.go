package refine

import (
	"context"
	"strings"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/maps"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

func TestMergeCyclesReducesAgents(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	// Force fragmentation: a small leg cap produces extra cycles per loop.
	cs, err := cycles.Synthesize(m.S, wl, 3600, cycles.Options{MaxLegsPerCycle: 6})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeCycles(cs, wl)
	if err != nil {
		t.Fatal(err)
	}
	if merged.NumAgents() > cs.NumAgents() {
		t.Errorf("merge increased agents: %d -> %d", cs.NumAgents(), merged.NumAgents())
	}
	if len(merged.Cycles) >= len(cs.Cycles) && cs.NumAgents() > merged.NumAgents() {
		t.Errorf("expected fewer cycles after merge: %d -> %d", len(cs.Cycles), len(merged.Cycles))
	}
	// The merged set must still realize into a servicing plan.
	plan, _, err := agentplan.Realize(merged, wl, 3600)
	if err != nil {
		t.Fatal(err)
	}
	r := warehouse.ReplayPlan(m.W, plan, wl)
	if len(r.Violations) > 0 {
		t.Fatalf("merged plan infeasible: %v", r.Violations[0])
	}
	if r.ServicedAt < 0 {
		t.Error("merged plan does not service the workload")
	}
}

func TestMergeCyclesIdempotentOnCompactSets(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cycles.Synthesize(s, wl, 800, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m1, err := MergeCycles(cs, wl)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeCycles(m1, wl)
	if err != nil {
		t.Fatal(err)
	}
	if len(m2.Cycles) != len(m1.Cycles) || m2.NumAgents() != m1.NumAgents() {
		t.Errorf("second merge changed the set: %d/%d -> %d/%d cycles/agents",
			len(m1.Cycles), m1.NumAgents(), len(m2.Cycles), m2.NumAgents())
	}
}

func TestMinimalHorizonShrinks(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	const T = 2400
	base, err := core.Solve(context.Background(), s, wl, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	hr, err := MinimalHorizon(context.Background(), s, wl, T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if hr.T > T {
		t.Errorf("minimal horizon %d exceeds original %d", hr.T, T)
	}
	if hr.T > base.Sim.ServicedAt*2 {
		t.Errorf("minimal horizon %d far above the observed makespan %d", hr.T, base.Sim.ServicedAt)
	}
	// The refined solution must actually service at its tighter horizon.
	if r := warehouse.ReplayPlan(w, hr.Result.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
		t.Errorf("refined solution does not service: delivered %v, violations %v", r.Delivered, r.Violations)
	}
	if hr.Probes < 2 {
		t.Errorf("suspiciously few probes: %d", hr.Probes)
	}
	// Feasibility is not monotone in T (warm-up margins quantize with qc),
	// so hr.T is a certified upper bound rather than the global minimum; it
	// must still beat the generous original horizon substantially.
	if hr.T >= T {
		t.Errorf("no improvement: %d >= %d", hr.T, T)
	}
}

// TestMinimalHorizonContractILP drives the horizon search over the faithful
// §IV-D contract→ILP synthesis path. Each probe re-solves the contract
// conjunction by branch and bound, which the bounded-variable LP core's
// warm-started search makes cheap enough to binary-search over.
func TestMinimalHorizonContractILP(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{8, 5})
	if err != nil {
		t.Fatal(err)
	}
	const T = 1600
	hr, err := MinimalHorizon(context.Background(), s, wl, T, core.Options{Strategy: core.ContractILP})
	if err != nil {
		t.Fatal(err)
	}
	if hr.T >= T {
		t.Errorf("no improvement: %d >= %d", hr.T, T)
	}
	if r := warehouse.ReplayPlan(w, hr.Result.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
		t.Errorf("refined contract-ILP solution does not service: delivered %v, violations %v", r.Delivered, r.Violations)
	}
}

func TestMinimalHorizonErrors(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{300, 300})
	if err != nil {
		t.Fatal(err)
	}
	// Unsolvable at this horizon at all.
	if _, err := MinimalHorizon(context.Background(), s, wl, 120, core.Options{}); err == nil {
		t.Error("unsolvable instance accepted")
	}
	wl2, _ := warehouse.NewWorkload(w, []int{1, 0})
	if _, err := MinimalHorizon(context.Background(), s, wl2, 5, core.Options{}); err == nil {
		t.Error("horizon below a cycle period accepted")
	}
	if _, err := MinimalHorizon(context.Background(), s, wl2, 800, core.Options{SkipRealization: true}); err == nil {
		t.Error("SkipRealization accepted")
	}
	if _, err := MinimalHorizon(context.Background(), s, wl2, 800, core.Options{MaxAttempts: -1}); err == nil ||
		!strings.Contains(err.Error(), "MaxAttempts") {
		t.Errorf("negative MaxAttempts: err = %v, want an error naming it", err)
	}
}
