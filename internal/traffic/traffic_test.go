package traffic

import (
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/warehouse"
)

// ringWarehouse builds a 6x4 warehouse whose passable cells form a ring
// around an interior block. Two interior cells are shelves accessed from the
// north edge; one south-edge cell is a station.
//
//	y=3:  ......
//	y=2:  .@@##.
//	y=1:  .####.
//	y=0:  ..T...
func ringWarehouse(t *testing.T) *warehouse.Warehouse {
	t.Helper()
	g, _, stations, err := grid.Parse("......\n.@@##.\n.####.\n..T...")
	if err != nil {
		t.Fatal(err)
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 3}),
		g.At(grid.Coord{X: 2, Y: 3}),
	}
	var stationVs []grid.VertexID
	for _, c := range stations {
		stationVs = append(stationVs, g.At(c))
	}
	w, err := warehouse.New(g, shelfAccess, stationVs, 2, [][]int{{10, 0}, {0, 10}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// ringLanes returns the four sides of the ring as directed lanes
// (clockwise: south->east->north->west).
func ringLanes(w *warehouse.Warehouse) [][]grid.VertexID {
	g := w.Graph
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	bottom := []grid.VertexID{at(0, 0), at(1, 0), at(2, 0), at(3, 0), at(4, 0), at(5, 0)}
	east := []grid.VertexID{at(5, 1), at(5, 2), at(5, 3)}
	top := []grid.VertexID{at(4, 3), at(3, 3), at(2, 3), at(1, 3), at(0, 3)}
	west := []grid.VertexID{at(0, 2), at(0, 1)}
	return [][]grid.VertexID{bottom, east, top, west}
}

func buildRing(t *testing.T) (*warehouse.Warehouse, *System) {
	t.Helper()
	w := ringWarehouse(t)
	s, err := Build(w, ringLanes(w))
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return w, s
}

func TestBuildRingSystem(t *testing.T) {
	_, s := buildRing(t)
	if got := s.NumComponents(); got != 4 {
		t.Fatalf("components = %d, want 4", got)
	}
	kinds := map[Kind]int{}
	for _, c := range s.Components {
		kinds[c.Kind]++
	}
	if kinds[StationQueue] != 1 || kinds[ShelvingRow] != 1 || kinds[Transport] != 2 {
		t.Errorf("kind histogram = %v", kinds)
	}
	for _, c := range s.Components {
		if len(s.Outlets[c.ID]) != 1 || len(s.Inlets[c.ID]) != 1 {
			t.Errorf("component %d has %d outlets / %d inlets, want 1/1",
				c.ID, len(s.Outlets[c.ID]), len(s.Inlets[c.ID]))
		}
	}
	if got := s.MaxComponentLen(); got != 6 {
		t.Errorf("MaxComponentLen = %d, want 6", got)
	}
	if got := s.CycleTime(); got != 12 {
		t.Errorf("CycleTime = %d, want 12", got)
	}
	if got := len(s.Edges()); got != 4 {
		t.Errorf("edges = %d, want 4", got)
	}
}

func TestComponentAccessors(t *testing.T) {
	_, s := buildRing(t)
	c := s.Components[0] // bottom lane, 6 cells
	if c.Len() != 6 || c.Capacity() != 3 {
		t.Errorf("Len/Capacity = %d/%d, want 6/3", c.Len(), c.Capacity())
	}
	if c.Entry() != c.Cells[0] || c.Exit() != c.Cells[5] {
		t.Error("Entry/Exit mismatch")
	}
	if got := s.NextCellAt(c.Cells[2]); got != c.Cells[3] {
		t.Errorf("NextCellAt = %d, want %d", got, c.Cells[3])
	}
	if got := s.NextCellAt(c.Exit()); got != grid.None {
		t.Errorf("NextCellAt(exit) = %d, want None", got)
	}
}

func TestComponentAtAndUnits(t *testing.T) {
	w, s := buildRing(t)
	rows := s.ShelvingRows()
	if len(rows) != 1 {
		t.Fatalf("shelving rows = %v", rows)
	}
	if got := s.UnitsAt(rows[0], 0); got != 10 {
		t.Errorf("UnitsAt(row, ρ0) = %d, want 10", got)
	}
	queues := s.StationQueues()
	if len(queues) != 1 {
		t.Fatalf("queues = %v", queues)
	}
	if got := len(s.Transports()); got != 2 {
		t.Errorf("transports = %d, want 2", got)
	}
	// Every ring cell maps to its component; no unused cells here.
	for v := 0; v < w.Graph.NumVertices(); v++ {
		if s.ComponentAt(grid.VertexID(v)) < 0 {
			t.Errorf("vertex %d unused, want covered", v)
		}
	}
}

func TestBuildRejectsOverlap(t *testing.T) {
	w := ringWarehouse(t)
	lanes := ringLanes(w)
	lanes = append(lanes, lanes[0]) // duplicate bottom lane
	if _, err := Build(w, lanes); err == nil {
		t.Error("Build accepted overlapping components")
	}
}

func TestBuildRejectsNonAdjacentCells(t *testing.T) {
	w := ringWarehouse(t)
	g := w.Graph
	bad := [][]grid.VertexID{{g.At(grid.Coord{X: 0, Y: 0}), g.At(grid.Coord{X: 5, Y: 0})}}
	if _, err := Build(w, bad); err == nil {
		t.Error("Build accepted non-adjacent component cells")
	}
}

func TestBuildRejectsUncoveredShelf(t *testing.T) {
	w := ringWarehouse(t)
	lanes := ringLanes(w)
	// Drop the top lane, leaving shelf-access cells uncovered (and the ring
	// broken).
	if _, err := Build(w, [][]grid.VertexID{lanes[0], lanes[1], lanes[3]}); err == nil {
		t.Error("Build accepted uncovered shelf-access vertices")
	}
}

func TestBuildRejectsWeakConnectivity(t *testing.T) {
	// Two parallel disconnected lanes cannot form a strongly connected Gs.
	g, _, _, err := grid.Parse("....\n####\n....")
	if err != nil {
		t.Fatal(err)
	}
	w, err := warehouse.New(g, nil, nil, 0, [][]int{})
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	lanes := [][]grid.VertexID{
		{at(0, 0), at(1, 0), at(2, 0), at(3, 0)},
		{at(0, 2), at(1, 2), at(2, 2), at(3, 2)},
	}
	if _, err := Build(w, lanes); err == nil {
		t.Error("Build accepted a disconnected system")
	}
}

func TestBuildRejectsMixedComponent(t *testing.T) {
	// A 1x4 corridor where a shelf-access cell and a station share a lane.
	g, _, stations, err := grid.Parse("..T.")
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	w, err := warehouse.New(g, []grid.VertexID{at(0, 0)}, []grid.VertexID{g.At(stations[0])}, 1, [][]int{{5}})
	if err != nil {
		t.Fatal(err)
	}
	lanes := [][]grid.VertexID{{at(0, 0), at(1, 0), at(2, 0), at(3, 0)}}
	if _, err := Build(w, lanes); err == nil {
		t.Error("Build accepted a component with both shelf and station cells")
	}
}

func TestSplitLanesLength(t *testing.T) {
	w := ringWarehouse(t)
	lanes := ringLanes(w)
	segs, err := SplitLanes(w, lanes, SplitOptions{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if len(seg) > 3 || len(seg) < 2 {
			t.Errorf("segment length %d outside [2,3]", len(seg))
		}
	}
	// 6-cell bottom lane must split into two 3-cell segments.
	total := 0
	for _, seg := range segs {
		total += len(seg)
	}
	want := 0
	for _, l := range lanes {
		want += len(l)
	}
	if total != want {
		t.Errorf("split lost cells: %d -> %d", want, total)
	}
}

func TestSplitLanesSeparatesKinds(t *testing.T) {
	// Corridor shelf..station: the lane must split between them.
	g, _, stations, err := grid.Parse("....T.")
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	w, err := warehouse.New(g, []grid.VertexID{at(0, 0)}, []grid.VertexID{g.At(stations[0])}, 1, [][]int{{5}})
	if err != nil {
		t.Fatal(err)
	}
	lane := []grid.VertexID{at(0, 0), at(1, 0), at(2, 0), at(3, 0), at(4, 0), at(5, 0)}
	segs, err := SplitLanes(w, [][]grid.VertexID{lane}, SplitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	for _, seg := range segs {
		if segmentMixes(w, seg) {
			t.Error("segment mixes shelf and station cells")
		}
	}
}

func TestSplitLanesRejectsBadInput(t *testing.T) {
	w := ringWarehouse(t)
	if _, err := SplitLanes(w, [][]grid.VertexID{{0}}, SplitOptions{}); err == nil {
		t.Error("1-cell lane accepted")
	}
	if _, err := SplitLanes(w, ringLanes(w), SplitOptions{MaxLen: 1}); err == nil {
		t.Error("MaxLen 1 accepted")
	}
}

func TestSplitLanesNoSingletonTail(t *testing.T) {
	w := ringWarehouse(t)
	// A 7-cell lane with MaxLen 3 would naively leave a 1-cell tail.
	g := w.Graph
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	lane := []grid.VertexID{at(0, 0), at(1, 0), at(2, 0), at(3, 0), at(4, 0), at(5, 0), at(5, 1)}
	segs, err := SplitLanes(w, [][]grid.VertexID{lane}, SplitOptions{MaxLen: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, seg := range segs {
		if len(seg) < 2 {
			t.Errorf("singleton segment survived: %v", seg)
		}
	}
}

func TestRenderShowsArrowsAndExits(t *testing.T) {
	_, s := buildRing(t)
	out := Render(s)
	if !strings.Contains(out, "!") {
		t.Error("render missing exit markers")
	}
	if !strings.Contains(out, ">") || !strings.Contains(out, "<") {
		t.Error("render missing direction arrows")
	}
	if !strings.Contains(out, "#") {
		t.Error("render missing obstacles")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != 4 || len(lines[0]) != 6 {
		t.Errorf("render dims wrong: %d lines", len(lines))
	}
}

func TestSummarize(t *testing.T) {
	_, s := buildRing(t)
	st := Summarize(s)
	if st.Components != 4 || st.ShelvingRows != 1 || st.StationQueues != 1 || st.Transports != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.Edges != 4 || st.MaxLen != 6 || st.CycleTime != 12 {
		t.Errorf("stats = %+v", st)
	}
	if st.UnusedCells != 0 {
		t.Errorf("UnusedCells = %d, want 0", st.UnusedCells)
	}
}
