package server

import (
	"testing"

	"repro/wsp"
)

// Rung 3 on an exact contract config: float arithmetic, route packing and a
// single attempt, with the work and node budgets untouched — by then no
// stage of the degraded solve reads them.
func TestDegradeRungThreeLeavesBudgets(t *testing.T) {
	cfg, steps := degradeConfig(wsp.Config{Strategy: wsp.ContractILP, Limits: wsp.Limits{Exact: true}}, 3)
	want := wsp.Config{Strategy: wsp.RoutePacking, MaxAttempts: 1}
	if cfg != want {
		t.Errorf("rung 3 config %+v, want %+v", cfg, want)
	}
	for _, step := range []string{"float-arith", "route-packing", "budget-shrink"} {
		if !hasStep(steps, step) {
			t.Errorf("rung 3 steps %v lack %q", steps, step)
		}
	}
}

func hasStep(steps []string, want string) bool {
	for _, s := range steps {
		if s == want {
			return true
		}
	}
	return false
}
