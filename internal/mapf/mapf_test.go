package mapf

import (
	"errors"
	"testing"

	"repro/internal/grid"
)

func open5x5(t *testing.T) *grid.Grid {
	t.Helper()
	g, _, _, err := grid.Parse(".....\n.....\n.....\n.....\n.....")
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func at(g *grid.Grid, x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }

func TestPathHelpers(t *testing.T) {
	p := Path{3, 4, 4, 5}
	if p.Vertex(0) != 3 || p.Vertex(10) != 5 {
		t.Error("Vertex extension wrong")
	}
	if p.Cost() != 3 {
		t.Errorf("Cost = %d, want 3", p.Cost())
	}
	var empty Path
	if empty.Vertex(0) != grid.None {
		t.Error("empty path vertex")
	}
	// Waiting at the end does not count toward cost.
	p2 := Path{3, 4, 4, 4}
	if p2.Cost() != 1 {
		t.Errorf("Cost = %d, want 1", p2.Cost())
	}
}

// The TestCBS tests run ECBS at w = 1, which is optimal CBS.

func TestCBSOptimalSwap(t *testing.T) {
	// Two agents must swap ends of a corridor with a single passing bay.
	g, _, _, err := grid.Parse(".....\n..#..")
	if err != nil {
		t.Fatal(err)
	}
	_ = g
	// Use a 2-row map: bottom row has a hole at x=2, so the top row is the
	// corridor and the bottom cells are bays.
	starts := []grid.VertexID{g.At(grid.Coord{X: 0, Y: 1}), g.At(grid.Coord{X: 4, Y: 1})}
	goals := [][]grid.VertexID{{g.At(grid.Coord{X: 4, Y: 1})}, {g.At(grid.Coord{X: 0, Y: 1})}}
	sol, err := ECBS(g, starts, goals, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(g, 30); err != nil {
		t.Fatal(err)
	}
	if sol.Paths[0].Vertex(100) != goals[0][0] || sol.Paths[1].Vertex(100) != goals[1][0] {
		t.Error("agents did not reach goals")
	}
	if sol.HighLevelNodes == 0 {
		t.Error("CBS did not expand any high-level nodes")
	}
}

func TestCBSHeadOnRequiresDetour(t *testing.T) {
	g := open5x5(t)
	// Four agents pairwise crossing through the center.
	starts := []grid.VertexID{at(g, 0, 2), at(g, 4, 2), at(g, 2, 0), at(g, 2, 4)}
	goals := [][]grid.VertexID{
		{at(g, 4, 2)}, {at(g, 0, 2)}, {at(g, 2, 4)}, {at(g, 2, 0)},
	}
	sol, err := ECBS(g, starts, goals, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Validate(g, 40); err != nil {
		t.Fatal(err)
	}
}

func TestECBSBoundedSuboptimal(t *testing.T) {
	g := open5x5(t)
	starts := []grid.VertexID{at(g, 0, 2), at(g, 4, 2), at(g, 2, 0)}
	goals := [][]grid.VertexID{{at(g, 4, 2)}, {at(g, 0, 2)}, {at(g, 2, 4)}}
	opt, err := ECBS(g, starts, goals, 1, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := ECBS(g, starts, goals, 1.5, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if err := sub.Validate(g, 40); err != nil {
		t.Fatal(err)
	}
	if float64(sub.SumOfCosts()) > 1.5*float64(opt.SumOfCosts()) {
		t.Errorf("ECBS cost %d exceeds 1.5 x optimal %d", sub.SumOfCosts(), opt.SumOfCosts())
	}
	if _, err := ECBS(g, starts, goals, 0.5, Limits{}); err == nil {
		t.Error("w < 1 accepted")
	}
}

func TestExpansionLimit(t *testing.T) {
	g := open5x5(t)
	starts := []grid.VertexID{at(g, 0, 0), at(g, 4, 4), at(g, 0, 4), at(g, 4, 0)}
	goals := [][]grid.VertexID{{at(g, 4, 4)}, {at(g, 0, 0)}, {at(g, 4, 0)}, {at(g, 0, 4)}}
	_, err := ECBS(g, starts, goals, 1, Limits{MaxExpansions: 5})
	if err == nil {
		t.Fatal("tiny budget did not abort")
	}
	// The budget verdict is the wrapped sentinel, classified by errors.Is —
	// never by equality (returns carry stage context via %w).
	if !errors.Is(err, ErrExpansionLimit) {
		t.Errorf("budget error %v does not classify as ErrExpansionLimit", err)
	}
	if err == ErrExpansionLimit { //nolint:errorlint // asserting wrapping happened
		t.Error("budget error returned bare; want it wrapped with stage context")
	}
}

func TestIteratedECBSCompletesTasks(t *testing.T) {
	g := open5x5(t)
	starts := []grid.VertexID{at(g, 0, 0), at(g, 4, 4)}
	goals := [][]grid.VertexID{
		{at(g, 4, 0), at(g, 0, 0)},
		{at(g, 0, 4), at(g, 4, 4)},
	}
	sol, err := IteratedECBS(g, starts, goals, IteratedOptions{Window: 5})
	if err != nil {
		t.Fatal(err)
	}
	horizon := 0
	for _, p := range sol.Paths {
		if len(p) > horizon {
			horizon = len(p)
		}
	}
	if err := sol.Validate(g, horizon); err != nil {
		t.Fatal(err)
	}
	// Each agent must have visited its goals in order.
	for i, gs := range goals {
		idx := 0
		for _, v := range sol.Paths[i] {
			if idx < len(gs) && v == gs[idx] {
				idx++
			}
		}
		if idx != len(gs) {
			t.Errorf("agent %d visited %d of %d goals", i, idx, len(gs))
		}
	}
}

func TestValidateCatchesCollision(t *testing.T) {
	g := open5x5(t)
	bad := &Solution{Paths: []Path{
		{at(g, 0, 0), at(g, 1, 0)},
		{at(g, 2, 0), at(g, 1, 0)},
	}}
	if err := bad.Validate(g, 2); err == nil {
		t.Error("vertex collision not caught")
	}
	swap := &Solution{Paths: []Path{
		{at(g, 0, 0), at(g, 1, 0)},
		{at(g, 1, 0), at(g, 0, 0)},
	}}
	if err := swap.Validate(g, 2); err == nil {
		t.Error("edge swap not caught")
	}
	tele := &Solution{Paths: []Path{{at(g, 0, 0), at(g, 3, 3)}}}
	if err := tele.Validate(g, 2); err == nil {
		t.Error("teleport not caught")
	}
}

func TestMismatchedInputs(t *testing.T) {
	g := open5x5(t)
	if _, err := ECBS(g, []grid.VertexID{0}, nil, 1, Limits{}); err == nil {
		t.Error("mismatch accepted by ECBS")
	}
	if _, err := IteratedECBS(g, []grid.VertexID{0}, nil, IteratedOptions{}); err == nil {
		t.Error("mismatch accepted by IteratedECBS")
	}
}
