package warehouse

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/grid"
)

// paperFig1 builds the warehouse of Fig. 1: a 5x3 floorplan with shelves at
// (1,2) and (3,2), shelf access at (0,2), (2,2), (4,2), stations at (1,0)
// and (3,0), and the location matrix Λ = [[10 10 0] [0 10 10]].
func paperFig1(t *testing.T) *Warehouse {
	t.Helper()
	g, _, _, err := grid.Parse(".@.@.\n.....\n.T.T.")
	if err != nil {
		t.Fatal(err)
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 0, Y: 2}),
		g.At(grid.Coord{X: 2, Y: 2}),
		g.At(grid.Coord{X: 4, Y: 2}),
	}
	stations := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 0}),
		g.At(grid.Coord{X: 3, Y: 0}),
	}
	stock := [][]int{
		{10, 10, 0},
		{0, 10, 10},
	}
	w, err := New(g, shelfAccess, stations, 2, stock)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestPaperFig1Model(t *testing.T) {
	w := paperFig1(t)
	if got := w.TotalStock(0); got != 20 {
		t.Errorf("TotalStock(0) = %d, want 20", got)
	}
	mid := w.ShelfAccess[1]
	if a, b := w.UnitsAt(mid, 0), w.UnitsAt(mid, 1); a != 10 || b != 10 {
		t.Errorf("UnitsAt(middle) = %d, %d, want 10 of both products", a, b)
	}
	left := w.ShelfAccess[0]
	if got := w.UnitsAt(left, 1); got != 0 {
		t.Errorf("UnitsAt(left, ρ2) = %d, want 0", got)
	}
	if w.IsStation(left) {
		t.Error("shelf access vertex reported as station")
	}
	if !w.IsStation(w.Stations[0]) {
		t.Error("station vertex not reported as station")
	}
	if got := w.ShelfColumn(w.Stations[0]); got != -1 {
		t.Errorf("ShelfColumn(station) = %d, want -1", got)
	}
	if got := w.ShelfColumn(mid); got != 1 {
		t.Errorf("ShelfColumn(mid) = %d, want 1", got)
	}
}

func TestNewRejectsBadInput(t *testing.T) {
	g, _, _, err := grid.Parse("...\n...")
	if err != nil {
		t.Fatal(err)
	}
	v0, v1 := g.At(grid.Coord{X: 0, Y: 0}), g.At(grid.Coord{X: 1, Y: 0})
	cases := []struct {
		name    string
		shelves []grid.VertexID
		sts     []grid.VertexID
		np      int
		stock   [][]int
	}{
		{"dupShelf", []grid.VertexID{v0, v0}, nil, 0, [][]int{}},
		{"dupStation", nil, []grid.VertexID{v1, v1}, 0, [][]int{}},
		{"overlap", []grid.VertexID{v0}, []grid.VertexID{v0}, 0, [][]int{}},
		{"outOfRange", []grid.VertexID{99}, nil, 0, [][]int{}},
		{"stockRows", []grid.VertexID{v0}, nil, 2, [][]int{{1}}},
		{"stockCols", []grid.VertexID{v0}, nil, 1, [][]int{{1, 2}}},
		{"negStock", []grid.VertexID{v0}, nil, 1, [][]int{{-1}}},
		{"negProducts", nil, nil, -1, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(g, tc.shelves, tc.sts, tc.np, tc.stock); err == nil {
				t.Error("New succeeded, want error")
			}
		})
	}
	if _, err := New(nil, nil, nil, 0, [][]int{}); err == nil {
		t.Error("New(nil grid) succeeded")
	}
}

func TestWorkloadValidation(t *testing.T) {
	w := paperFig1(t)
	if _, err := NewWorkload(w, []int{5, 5}); err != nil {
		t.Errorf("valid workload rejected: %v", err)
	}
	if _, err := NewWorkload(w, []int{5}); err == nil {
		t.Error("short workload accepted")
	}
	if _, err := NewWorkload(w, []int{-1, 0}); err == nil {
		t.Error("negative workload accepted")
	}
	if _, err := NewWorkload(w, []int{21, 0}); err == nil {
		t.Error("over-stock workload accepted")
	}
	wl, _ := NewWorkload(w, []int{3, 4})
	if wl.TotalUnits() != 7 {
		t.Errorf("TotalUnits = %d, want 7", wl.TotalUnits())
	}
}

// handPlan builds a 1-agent plan walking a vertex/product sequence.
func handPlan(states ...AgentState) *Plan {
	return NewPlan([][]AgentState{states})
}

// HandBuilt is one hand-built plan the validator tests check, with the
// warehouse it is checked against. HandBuiltPlans is exported so the replay
// parity test in package warehouse_test can run every one of them.
type HandBuilt struct {
	W *Warehouse
	P *Plan
}

// HandBuiltPlans returns the validator tests' hand-built plans by name.
func HandBuiltPlans(t *testing.T) map[string]HandBuilt {
	t.Helper()
	w := paperFig1(t)
	at := func(x, y int) grid.VertexID { return w.Graph.At(grid.Coord{X: x, Y: y}) }
	line, shelf, station := lineWarehouse(t)
	pair := twoShelfWarehouse(t)
	west, mid, east := pair.ShelfAccess[0], pair.Stations[0], pair.ShelfAccess[1]
	return map[string]HandBuilt{
		// Start at shelf access (2,2) carrying nothing, pick ρ1, walk to
		// station (1,0), drop, done.
		"legalTour": {w, handPlan(
			AgentState{at(2, 2), NoProduct},
			AgentState{at(2, 2), 0}, // pickup at shelf access
			AgentState{at(2, 1), 0},
			AgentState{at(1, 1), 0},
			AgentState{at(1, 0), 0},
			AgentState{at(1, 0), NoProduct}, // drop at station
		)},
		"teleport": {w, handPlan(
			AgentState{at(0, 0), NoProduct},
			AgentState{at(4, 0), NoProduct},
		)},
		"vertexConflict": {w, NewPlan([][]AgentState{
			{{at(0, 0), NoProduct}},
			{{at(0, 0), NoProduct}},
		})},
		"edgeSwap": {w, NewPlan([][]AgentState{
			{{at(0, 0), NoProduct}, {at(1, 0), NoProduct}},
			{{at(1, 0), NoProduct}, {at(0, 0), NoProduct}},
		})},
		// Picking ρ2 at the left shelf access, which stocks only ρ1.
		"illegalPickup": {w, handPlan(AgentState{at(0, 2), NoProduct}, AgentState{at(0, 2), 1})},
		"illegalDrop": {w, handPlan(
			AgentState{at(2, 2), NoProduct},
			AgentState{at(2, 2), 0},
			AgentState{at(2, 1), 0},
			AgentState{at(2, 1), NoProduct}, // drop in the aisle
		)},
		"productMutation": {w, handPlan(
			AgentState{at(2, 2), NoProduct},
			AgentState{at(2, 2), 0},
			AgentState{at(2, 2), 1}, // mutate carried product
		)},
		// Two pickups of a product with stock 1.
		"stockOverdraw": {line, handPlan(
			AgentState{shelf, NoProduct},
			AgentState{shelf, 0},
			AgentState{station, 0},
			AgentState{station, NoProduct},
			AgentState{shelf, NoProduct},
			AgentState{shelf, 0},
			AgentState{station, 0},
			AgentState{station, NoProduct},
		)},
		"ragged": {w, NewPlan([][]AgentState{
			{{at(0, 0), NoProduct}, {at(0, 0), NoProduct}},
			{{at(0, 0), NoProduct}},
		})},
		// Each product picked twice from a shelf stocking one unit of it:
		// product 1 at the east shelf runs out first, product 0 at the west
		// shelf second.
		"twoOverdraws": {pair, handPlan(
			AgentState{east, NoProduct},
			AgentState{east, 1},
			AgentState{mid, 1},
			AgentState{mid, NoProduct},
			AgentState{east, NoProduct},
			AgentState{east, 1},
			AgentState{mid, 1},
			AgentState{mid, NoProduct},
			AgentState{west, NoProduct},
			AgentState{west, 0},
			AgentState{mid, 0},
			AgentState{mid, NoProduct},
			AgentState{west, NoProduct},
			AgentState{west, 0},
		)},
	}
}

// lineWarehouse builds a two-cell warehouse: a shelf-access vertex stocking
// one unit of its only product, next to a station.
func lineWarehouse(t *testing.T) (w *Warehouse, shelf, station grid.VertexID) {
	t.Helper()
	g, _, _, err := grid.Parse(".T")
	if err != nil {
		t.Fatal(err)
	}
	shelf = g.At(grid.Coord{X: 0, Y: 0})
	station = g.At(grid.Coord{X: 1, Y: 0})
	w, err = New(g, []grid.VertexID{shelf}, []grid.VertexID{station}, 1, [][]int{{1}})
	if err != nil {
		t.Fatal(err)
	}
	return w, shelf, station
}

// twoShelfWarehouse builds a one-row warehouse: a station between a west
// shelf stocking one unit of product 0 and an east shelf stocking one unit
// of product 1.
func twoShelfWarehouse(t *testing.T) *Warehouse {
	t.Helper()
	g, _, _, err := grid.Parse(".T.")
	if err != nil {
		t.Fatal(err)
	}
	at := func(x int) grid.VertexID { return g.At(grid.Coord{X: x, Y: 0}) }
	w, err := New(g, []grid.VertexID{at(0), at(2)}, []grid.VertexID{at(1)}, 2, [][]int{{1, 0}, {0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestValidatePlanAcceptsLegalTour(t *testing.T) {
	hb := HandBuiltPlans(t)["legalTour"]
	w, p := hb.W, hb.P
	wl, _ := NewWorkload(w, []int{1, 0})
	r := ReplayPlan(w, p, wl)
	if len(r.Violations) != 0 {
		t.Fatalf("legal plan rejected: %v", r.Violations)
	}
	if got := r.Delivered; got[0] != 1 || got[1] != 0 {
		t.Errorf("Delivered = %v, want [1 0]", got)
	}
	if r.ServicedAt < 0 {
		t.Error("servicing plan reported as falling short")
	}
	wl2, _ := NewWorkload(w, []int{2, 0})
	if r := ReplayPlan(w, p, wl2); r.ServicedAt >= 0 {
		t.Error("under-delivering plan reported as servicing")
	}
}

// checkOneViolation fails unless the named hand-built plan has exactly one
// violation, of the given condition.
func checkOneViolation(t *testing.T, name string, condition int) {
	t.Helper()
	hb := HandBuiltPlans(t)[name]
	if vs := ReplayPlan(hb.W, hb.P, Workload{}).Violations; len(vs) != 1 || vs[0].Condition != condition {
		t.Errorf("violations = %v, want one condition-%d", vs, condition)
	}
}

func TestValidatePlanCatchesTeleport(t *testing.T) { checkOneViolation(t, "teleport", 1) }

func TestValidatePlanCatchesVertexConflict(t *testing.T) { checkOneViolation(t, "vertexConflict", 2) }

func TestValidatePlanCatchesEdgeSwap(t *testing.T) { checkOneViolation(t, "edgeSwap", 2) }

func TestValidatePlanCatchesIllegalPickup(t *testing.T) { checkOneViolation(t, "illegalPickup", 3) }

func TestValidatePlanCatchesIllegalDrop(t *testing.T) { checkOneViolation(t, "illegalDrop", 3) }

func TestValidatePlanCatchesProductMutation(t *testing.T) { checkOneViolation(t, "productMutation", 3) }

func TestValidatePlanCatchesStockOverdraw(t *testing.T) { checkOneViolation(t, "stockOverdraw", 3) }

// TestValidatePlanOverdrawOrder pins the order of several stock overdraws:
// by shelf column, then product, whichever ran out first.
func TestValidatePlanOverdrawOrder(t *testing.T) {
	hb := HandBuiltPlans(t)["twoOverdraws"]
	last := hb.P.Horizon() - 1
	want := []PlanViolation{
		{Timestep: last, Agent: -1, OtherIdx: -1, Condition: 3,
			Detail: fmt.Sprintf("picked 2 units of product 0 at vertex %d, stock is 1", hb.W.ShelfAccess[0])},
		{Timestep: last, Agent: -1, OtherIdx: -1, Condition: 3,
			Detail: fmt.Sprintf("picked 2 units of product 1 at vertex %d, stock is 1", hb.W.ShelfAccess[1])},
	}
	// A validator emitting overdraws in map order gets this right about
	// half the time, so one call would not pin anything.
	for range 20 {
		if got := ReplayPlan(hb.W, hb.P, Workload{}).Violations; !reflect.DeepEqual(got, want) {
			t.Fatalf("violations = %v, want %v", got, want)
		}
	}
}

func TestPlanAccessors(t *testing.T) {
	var empty Plan
	if empty.NumAgents() != 0 || empty.Horizon() != 0 {
		t.Error("empty plan accessors wrong")
	}
	p := handPlan(AgentState{0, NoProduct}, AgentState{0, NoProduct})
	if p.NumAgents() != 1 || p.Horizon() != 2 {
		t.Errorf("accessors = (%d,%d), want (1,2)", p.NumAgents(), p.Horizon())
	}
}

// TestDeferredPlanBuildsOnce: a deferred plan reports its size without
// building, and concurrent first reads build its rows exactly once and all
// see them.
func TestDeferredPlanBuildsOnce(t *testing.T) {
	rows := [][]AgentState{{{0, NoProduct}, {1, NoProduct}, {1, 0}}, {{2, NoProduct}, {2, NoProduct}, {3, NoProduct}}}
	var builds atomic.Int32
	p := NewDeferredPlan(2, 3, func() [][]AgentState {
		builds.Add(1)
		return rows
	})
	if p.NumAgents() != 2 || p.Horizon() != 3 || builds.Load() != 0 {
		t.Fatalf("accessors = (%d,%d) after %d builds, want (2,3) after none", p.NumAgents(), p.Horizon(), builds.Load())
	}
	got := make([][][]AgentState, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = p.Rows()
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Errorf("%d builds, want 1", n)
	}
	for g, r := range got {
		if &r[0][0] != &rows[0][0] {
			t.Errorf("goroutine %d read rows other than the built ones", g)
		}
	}
}

// TestPooledBuffersDoNotAllocate: once warm, a Get/Put pair of either
// scratch pool allocates nothing. A pool that boxes each returned slice
// anew allocates a header on every Put.
func TestPooledBuffersDoNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race")
	}
	for name, pair := range map[string]func(){
		"grid.GetInt32": func() { grid.PutInt32(grid.GetInt32(100)) },
		"GetStates":     func() { PutStates(GetStates(100)) },
	} {
		pair()
		if n := testing.AllocsPerRun(100, pair); n != 0 {
			t.Errorf("%s: a Get/Put pair allocates %v times, want 0", name, n)
		}
	}
}

func TestValidatePlanRaggedStates(t *testing.T) {
	hb := HandBuiltPlans(t)["ragged"]
	if vs := ReplayPlan(hb.W, hb.P, Workload{}).Violations; len(vs) == 0 {
		t.Error("ragged plan accepted")
	}
}
