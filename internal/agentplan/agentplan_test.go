package agentplan

import (
	"context"
	"testing"

	"repro/internal/cycles"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// ringSystem builds the 10x6 ring warehouse shared by the pipeline tests.
func ringSystem(t *testing.T) (*warehouse.Warehouse, *traffic.System) {
	t.Helper()
	g, _, stations, err := grid.Parse(
		"..........\n" +
			".@@######.\n" +
			".########.\n" +
			".########.\n" +
			".########.\n" +
			"....T.....")
	if err != nil {
		t.Fatal(err)
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 5}),
		g.At(grid.Coord{X: 2, Y: 5}),
	}
	var stationVs []grid.VertexID
	for _, c := range stations {
		stationVs = append(stationVs, g.At(c))
	}
	w, err := warehouse.New(g, shelfAccess, stationVs, 2, [][]int{{300, 0}, {0, 300}})
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	var bottom, east, top, west []grid.VertexID
	for x := 0; x <= 9; x++ {
		bottom = append(bottom, at(x, 0))
	}
	for y := 1; y <= 5; y++ {
		east = append(east, at(9, y))
	}
	for x := 8; x >= 0; x-- {
		top = append(top, at(x, 5))
	}
	for y := 4; y >= 1; y-- {
		west = append(west, at(0, y))
	}
	s, err := traffic.Build(w, [][]grid.VertexID{bottom, east, top, west})
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func mustWorkload(t *testing.T, w *warehouse.Warehouse, units ...int) warehouse.Workload {
	t.Helper()
	out, err := warehouse.NewWorkload(w, units)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkServices replays plan and requires it feasible and servicing wl.
func checkServices(t *testing.T, w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) {
	t.Helper()
	r := warehouse.ReplayPlan(w, plan, wl)
	if len(r.Violations) > 0 {
		t.Fatalf("plan violates feasibility: %v (of %d violations)", r.Violations[0], len(r.Violations))
	}
	if r.ServicedAt < 0 {
		t.Fatalf("plan does not service workload %v: delivered %v", wl.Units, r.Delivered)
	}
}

func TestRealizeServicesWorkloadViaRoutes(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 12, 7)
	cs, err := cycles.Synthesize(s, wl, 800, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	checkServices(t, w, plan, wl)
	if stats.Agents != cs.NumAgents() {
		t.Errorf("agents = %d, want %d", stats.Agents, cs.NumAgents())
	}
}

func TestRealizeServicesWorkloadViaFlowSet(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 8, 4)
	set, err := flow.SynthesizeSequential(context.Background(), s, wl, 800, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cycles.FromFlowSet(set, wl)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	checkServices(t, w, plan, wl)
}

func TestRealizeContractPathEndToEnd(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 5, 2)
	set, err := flow.SynthesizeContract(context.Background(), s, wl, 800, flow.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cycles.FromFlowSet(set, wl)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	checkServices(t, w, plan, wl)
}

func TestRealizePlanShapeAndWarmup(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 3, 0)
	cs, err := cycles.Synthesize(s, wl, 600, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, stats, err := Realize(cs, wl, 600)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Horizon() != 600 {
		t.Errorf("horizon = %d, want 600", plan.Horizon())
	}
	if plan.NumAgents() != stats.Agents {
		t.Errorf("plan agents = %d, stats = %d", plan.NumAgents(), stats.Agents)
	}
	// All agents start empty.
	for i := 0; i < plan.NumAgents(); i++ {
		if st := plan.Rows()[i][0]; st.Carried != warehouse.NoProduct {
			t.Errorf("agent %d starts carrying %d", i, st.Carried)
		}
	}
	// Delivery cannot happen before anything was picked up: the serviced
	// timestep must be positive for positive demand.
	if r := warehouse.ReplayPlan(w, plan, wl); r.ServicedAt <= 0 {
		t.Errorf("ServicedAt = %d, want > 0", r.ServicedAt)
	}
}

func TestRealizeRespectsStock(t *testing.T) {
	w, s := ringSystem(t)
	// Full demand equal to entire stock of product 0.
	wl := mustWorkload(t, w, 300, 0)
	cs, err := cycles.Synthesize(s, wl, 8000, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := Realize(cs, wl, 8000)
	if err != nil {
		t.Fatal(err)
	}
	// The replay counts every pickup against the shelf's stock.
	r := warehouse.ReplayPlan(w, plan, wl)
	if len(r.Violations) > 0 {
		t.Fatalf("plan violates feasibility (incl. stock accounting): %v", r.Violations[0])
	}
	if r.Delivered[0] < 300 {
		t.Errorf("delivered %d of 300", r.Delivered[0])
	}
}

func TestRealizeRejectsBadInput(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 1, 0)
	cs, err := cycles.Synthesize(s, wl, 600, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Realize(cs, wl, 0); err == nil {
		t.Error("Realize accepted T=0")
	}
	// Corrupt the cycle set: demand no longer covered.
	wl2 := mustWorkload(t, w, 200, 0)
	if _, _, err := Realize(cs, wl2, 600); err == nil {
		t.Error("Realize accepted a cycle set that cannot cover the demand")
	}
}

// Property-style stress: several workloads on the ring all produce feasible,
// servicing plans.
func TestRealizeManyWorkloads(t *testing.T) {
	w, s := ringSystem(t)
	for _, units := range [][]int{{1, 0}, {0, 1}, {5, 5}, {20, 0}, {17, 3}} {
		wl := mustWorkload(t, w, units...)
		cs, err := cycles.Synthesize(s, wl, 1200, cycles.Options{})
		if err != nil {
			t.Errorf("workload %v: synthesize: %v", units, err)
			continue
		}
		plan, _, err := Realize(cs, wl, 1200)
		if err != nil {
			t.Errorf("workload %v: realize: %v", units, err)
			continue
		}
		r := warehouse.ReplayPlan(w, plan, wl)
		if len(r.Violations) > 0 {
			t.Errorf("workload %v: infeasible plan: %v", units, r.Violations[0])
		}
		if r.ServicedAt < 0 {
			t.Errorf("workload %v: not serviced (delivered %v)", units, r.Delivered)
		}
	}
}
