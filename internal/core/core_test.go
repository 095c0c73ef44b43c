package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
)

func TestSolveAllStrategiesOnRing(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{8, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoutePacking, SequentialFlows, ContractILP} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Solve(context.Background(), s, wl, 800, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || res.CycleSet == nil {
				t.Fatal("missing plan or cycle set")
			}
			if ok, why := warehouse.Services(w, res.Plan, wl); !ok {
				t.Fatalf("not serviced: %v", why)
			}
			if res.Timing.Synthesis <= 0 {
				t.Error("synthesis timing not recorded")
			}
			if strat == RoutePacking && res.FlowSet != nil {
				t.Error("route packing should not produce a flow set")
			}
			if strat != RoutePacking && res.FlowSet == nil {
				t.Error("flow strategies should record the flow set")
			}
			if res.Attempts < 1 {
				t.Errorf("attempts = %d", res.Attempts)
			}
		})
	}
}

func TestSolveSkipRealization(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), s, wl, 800, Options{SkipRealization: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Error("plan produced despite SkipRealization")
	}
	if res.CycleSet == nil {
		t.Error("cycle set missing")
	}
}

func TestSolveInfeasibleReportsError(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{300, 300})
	if err != nil {
		t.Fatal(err)
	}
	// Horizon far too short for 600 units through a capacity-2 bottleneck.
	if _, err := Solve(context.Background(), s, wl, 120, Options{}); err == nil {
		t.Error("Solve accepted an infeasible instance")
	}
}

func TestSolveAdmissionCheck(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{300, 0})
	if err != nil {
		t.Fatal(err)
	}
	// Overloaded: with the check on, the failure carries the certificate.
	_, err = Solve(context.Background(), s, wl, 120, Options{AdmissionCheck: true})
	if err == nil {
		t.Fatal("overloaded instance accepted")
	}
	// A feasible instance passes through the check unchanged.
	wl2, _ := warehouse.NewWorkload(w, []int{5, 3})
	res, err := Solve(context.Background(), s, wl2, 800, Options{AdmissionCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.ServicedAt < 0 {
		t.Error("not serviced")
	}
}

// TestAdmissionLPHasNoWorkBudget pins the admission LP's budget policy:
// MaxWork and MaxNodes bound synthesis only, so a starved budget still lets
// the check reach its infeasibility certificate under every strategy, while
// the same budget does stop the contract synthesis search.
func TestAdmissionLPHasNoWorkBudget(t *testing.T) {
	w, s := testmaps.MustRing()
	over, err := warehouse.NewWorkload(w, []int{300, 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoutePacking, ContractILP} {
		t.Run(strat.String(), func(t *testing.T) {
			_, err := Solve(context.Background(), s, over, 120,
				Options{Strategy: strat, AdmissionCheck: true, MaxWork: 1, MaxNodes: 1})
			var inf *flow.InfeasibleError
			if !errors.As(err, &inf) || inf.Cert != flow.CertInfeasible {
				t.Fatalf("err = %v, want a CertInfeasible *flow.InfeasibleError", err)
			}
			if errors.Is(err, lp.ErrBudgetExhausted) {
				t.Fatalf("admission LP stopped on the synthesis budget: %v", err)
			}
		})
	}
	feasible, err := warehouse.NewWorkload(w, []int{5, 3})
	if err != nil {
		t.Fatal(err)
	}
	_, err = Solve(context.Background(), s, feasible, 800,
		Options{Strategy: ContractILP, AdmissionCheck: true, MaxWork: 1})
	if !errors.Is(err, lp.ErrBudgetExhausted) {
		t.Fatalf("starved contract synthesis: err = %v, want ErrBudgetExhausted", err)
	}
}

func TestSolveUnknownStrategy(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, _ := warehouse.NewWorkload(w, []int{1, 0})
	if _, err := Solve(context.Background(), s, wl, 800, Options{Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("Strategy.String for unknown value")
	}
}

func TestStrategyStrings(t *testing.T) {
	if RoutePacking.String() != "route-packing" ||
		SequentialFlows.String() != "sequential-flows" ||
		ContractILP.String() != "contract-ilp" {
		t.Error("strategy names changed")
	}
}
