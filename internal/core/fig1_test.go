package core

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// TestPaperFig1Scenario solves a WSP instance on the warehouse of the
// paper's Fig. 1 — two shelves and two stations on a 5-wide floorplan —
// extended by one row so a one-way circulation of disjoint lanes exists
// (the original 5×3 floorplan cannot host §IV-A components around both
// shelves). Shelves are accessed from the avenue above them, so the
// location matrix collapses from Fig. 1's three access columns to two.
//
//	y=3:  . > > > !    north avenue eastward; access cells (1,3), (3,3)
//	y=2:  ^ @ . @ v    shelves at (1,2), (3,2); side columns cross
//	y=1:  ^ . . . v
//	y=0:  ! < < T <    south avenue westward with stations (1,0), (3,0)
func TestPaperFig1Scenario(t *testing.T) {
	g, _, stationCoords, err := grid.Parse(
		".....\n" +
			".@.@.\n" +
			".....\n" +
			".T.T.")
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	var stations []grid.VertexID
	for _, c := range stationCoords {
		stations = append(stations, g.At(c))
	}
	w, err := warehouse.New(g, []grid.VertexID{at(1, 3), at(3, 3)}, stations, 2, [][]int{
		{10, 10}, // ρ1: both shelves
		{0, 10},  // ρ2: the eastern shelf only
	})
	if err != nil {
		t.Fatal(err)
	}
	var south, west, north, east []grid.VertexID
	for x := 4; x >= 0; x-- {
		south = append(south, at(x, 0))
	}
	for y := 1; y <= 3; y++ {
		west = append(west, at(0, y))
	}
	for x := 1; x <= 4; x++ {
		north = append(north, at(x, 3))
	}
	for y := 2; y >= 1; y-- {
		east = append(east, at(4, y))
	}
	s, err := traffic.Build(w, [][]grid.VertexID{south, west, north, east})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(s.ShelvingRows()); got != 1 {
		t.Fatalf("shelving rows = %d, want 1 (the north avenue)", got)
	}
	if got := len(s.StationQueues()); got != 1 {
		t.Fatalf("station queues = %d, want 1 (the south avenue)", got)
	}
	wl, err := warehouse.NewWorkload(w, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r := warehouse.ReplayPlan(w, res.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
		t.Fatalf("Fig. 1 scenario not serviced: delivered %v, violations %v", r.Delivered, r.Violations)
	}
	if res.Stats.Agents == 0 || res.Sim.ServicedAt <= 0 {
		t.Errorf("implausible stats: %+v", res.Stats)
	}
}
