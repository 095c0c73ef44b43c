package agentplan

import (
	"testing"

	"repro/internal/cycles"
	"repro/internal/grid"
	"repro/internal/warehouse"
)

// TestAlgorithmOneInvariants checks the realization against the §IV-C
// movement discipline:
//
//   - an agent crosses from one component to the next at most once per
//     cycle period (the ADVANCE_T gate of Algorithm 1);
//   - agents only ever occupy cells of their current cycle's components;
//   - an agent entering a component arrives at its entry cell.
func TestAlgorithmOneInvariants(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 10, 6)
	cs, err := cycles.Synthesize(s, wl, 800, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	tc := cs.Tc

	// Reconstruct per-agent component occupancy from the plan.
	cellComp := make(map[grid.VertexID]int)
	entry := make(map[int]grid.VertexID)
	for _, c := range s.Components {
		entry[int(c.ID)] = c.Entry()
		for _, v := range c.Cells {
			cellComp[v] = int(c.ID)
		}
	}
	// Build the set of components per cycle, and map agents to cycles by
	// replaying the deterministic construction order of Realize.
	agentCycle := make([]int, 0, plan.NumAgents())
	for ci, cyc := range cs.Cycles {
		for range cyc.Components {
			agentCycle = append(agentCycle, ci)
		}
	}
	if len(agentCycle) != plan.NumAgents() {
		t.Fatalf("agent count mismatch: %d vs %d", len(agentCycle), plan.NumAgents())
	}
	cycleComps := make([]map[int]bool, len(cs.Cycles))
	for ci, cyc := range cs.Cycles {
		cycleComps[ci] = make(map[int]bool)
		for _, comp := range cyc.Components {
			cycleComps[ci][int(comp)] = true
		}
	}

	for i := 0; i < plan.NumAgents(); i++ {
		crossings := 0
		period := -1
		for tt := 0; tt+1 < plan.Horizon(); tt++ {
			cur := cellComp[plan.Rows()[i][tt].Vertex]
			next := cellComp[plan.Rows()[i][tt+1].Vertex]
			if !cycleComps[agentCycle[i]][cur] {
				t.Fatalf("agent %d at t=%d occupies component %d outside its cycle", i, tt, cur)
			}
			if cur == next {
				continue
			}
			// Component crossing: must land on the entry cell.
			if plan.Rows()[i][tt+1].Vertex != entry[next] {
				t.Errorf("agent %d enters component %d at a non-entry cell (t=%d)", i, next, tt+1)
			}
			p := (tt + 1) / tc
			if p == period {
				crossings++
				t.Errorf("agent %d crossed components twice in period %d", i, p)
			} else {
				period = p
				crossings = 1
			}
		}
	}
}

// TestRealizeDeterministic: two realizations of the same cycle set must be
// identical (the realization is a pure function of its inputs).
func TestRealizeDeterministic(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 7, 3)
	cs, err := cycles.Synthesize(s, wl, 600, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p1, st1, err := Realize(cs, wl, 600)
	if err != nil {
		t.Fatal(err)
	}
	p2, st2, err := Realize(cs, wl, 600)
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("stats %+v and %+v differ between identical runs", st1, st2)
	}
	for i, row := range p1.Rows() {
		for tt := range row {
			if row[tt] != p2.Rows()[i][tt] {
				t.Fatalf("plans diverge at agent %d t=%d", i, tt)
			}
		}
	}
	_ = w
}

// TestRealizeAgentsStayEmptyAfterQuota: once all quotas are delivered no
// agent should be carrying anything at the horizon.
func TestRealizeAgentsStayEmptyAfterQuota(t *testing.T) {
	w, s := ringSystem(t)
	wl := mustWorkload(t, w, 4, 2)
	cs, err := cycles.Synthesize(s, wl, 900, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := Realize(cs, wl, 900)
	if err != nil {
		t.Fatal(err)
	}
	if warehouse.ReplayPlan(w, plan, wl).ServicedAt < 0 {
		t.Fatal("not serviced")
	}
	last := plan.Horizon() - 1
	for i := 0; i < plan.NumAgents(); i++ {
		if plan.Rows()[i][last].Carried != warehouse.NoProduct {
			t.Errorf("agent %d still carrying at the horizon", i)
		}
	}
}
