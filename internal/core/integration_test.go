package core

import (
	"context"
	"testing"

	"repro/internal/maps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// TestTableIInstancesSolve runs the nine Table I instances end to end
// (synthesis → cycles → realization → simulation) with the route-packing
// strategy and verifies every plan services its workload within T = 3600,
// and that every deferred plan rebuilds the plan the solve validated.
func TestTableIInstancesSolve(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	cases := []struct {
		name  string
		build func() (*maps.Map, error)
		units []int
	}{
		{"SortingCenter", maps.SortingCenter, []int{160, 320, 480}},
		{"Fulfillment1", maps.Fulfillment1, []int{550, 825, 1100}},
		{"Fulfillment2", maps.Fulfillment2, []int{1200, 1320, 1440}},
	}
	const T = 3600
	for _, tc := range cases {
		m, err := tc.build()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, total := range tc.units {
			wl, err := workload.Uniform(m.W, total)
			if err != nil {
				t.Fatalf("%s/%d: workload: %v", tc.name, total, err)
			}
			res, err := Solve(context.Background(), m.S, wl, T, Options{Strategy: RoutePacking})
			if err != nil {
				t.Errorf("%s/%d: %v", tc.name, total, err)
				continue
			}
			checkDeferredPlan(t, m.W, res, wl, T)
			if r := warehouse.ReplayPlan(m.W, res.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
				t.Errorf("%s/%d: not serviced: delivered %v, violations %v", tc.name, total, r.Delivered, r.Violations)
			}
			t.Logf("%s units=%d: agents=%d cycles=%d serviced@%d synth=%v attempts=%d",
				tc.name, total, res.Stats.Agents, len(res.CycleSet.Cycles),
				res.Sim.ServicedAt, res.Timing.Synthesis, res.Attempts)
		}
	}
}
