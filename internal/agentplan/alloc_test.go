package agentplan

import (
	"testing"

	"repro/internal/testmaps/paritycases"
)

// TestRealizeAllocsIndependentOfTeamAndHorizon guards the single plan slab:
// Realize's allocation count must not grow with the team size or the
// horizon. Allocating one plan row per agent, as the cell walk this replaced
// did, fails it by an allocation per extra agent.
func TestRealizeAllocsIndependentOfTeamAndHorizon(t *testing.T) {
	cases, err := paritycases.TableI()
	if err != nil {
		t.Fatal(err)
	}
	small, large := cases[0], cases[len(cases)-1]
	if small.CS.NumAgents()*2 > large.CS.NumAgents() {
		t.Fatalf("teams of %d and %d agents are too alike", small.CS.NumAgents(), large.CS.NumAgents())
	}
	allocs := func(c paritycases.Case, T int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, _, err := Realize(c.CS, c.WL, T); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(small, 800)
	for _, run := range []struct {
		name string
		c    paritycases.Case
		T    int
	}{
		{"longer horizon", small, 3600},
		{"larger team", large, 800},
	} {
		// The slack absorbs scratch buffers the pool dropped at a GC; the
		// larger team alone has 68 more agents.
		if got := allocs(run.c, run.T); got > base+8 {
			t.Errorf("%s: %v allocations, %v for %d agents at T=800", run.name, got, base, small.CS.NumAgents())
		}
	}
}
