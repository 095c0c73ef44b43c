package core

import (
	"context"
	"testing"

	"repro/internal/maps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// TestFlowStrategiesOnGeneratedMap runs the per-period flow-set strategies
// (SequentialFlows and ContractILP) end to end on a small generated
// warehouse. Integer per-period rates need demand ≥ one unit per period per
// product, so the instance uses few products and generous stock —
// exactly the regime DESIGN.md says these strategies are for.
func TestFlowStrategiesOnGeneratedMap(t *testing.T) {
	m, err := maps.Generate(maps.Params{
		Stripes: 1, Rows: 2, BayWidth: 8, CorridorWidth: 2,
		MaxComponentLen: 6, DoubleShelfRows: false,
		NumProducts: 2, UnitsPerShelf: 120, StationsPerStripe: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 40)
	if err != nil {
		t.Fatal(err)
	}
	const T = 2400
	for _, strat := range []Strategy{SequentialFlows, ContractILP} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Solve(context.Background(), m.S, wl, T, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if r := warehouse.ReplayPlan(m.W, res.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
				t.Fatalf("not serviced: delivered %v, violations %v", r.Delivered, r.Violations)
			}
			if res.FlowSet == nil {
				t.Error("flow set missing")
			}
		})
	}
}
