package flow

import (
	"context"
	"testing"

	"repro/internal/grid"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// ringSystem builds a 10x6 ring warehouse used across the flow tests: the
// passable cells form a one-way ring around an interior block. The north
// edge is a shelving row (stocking products 0 and 1), the south edge a
// station queue, the sides transports. Lane capacities (⌊len/2⌋): south 5,
// east 2, north 4, west 2 — enough for one unit-rate flow per product plus
// the empty return flow.
func ringSystem(t *testing.T) (*warehouse.Warehouse, *traffic.System) {
	t.Helper()
	g, _, stations, err := grid.Parse(
		"..........\n" +
			".@@######.\n" +
			".########.\n" +
			".########.\n" +
			".########.\n" +
			"....T.....")
	if err != nil {
		t.Fatal(err)
	}
	shelfAccess := []grid.VertexID{
		g.At(grid.Coord{X: 1, Y: 5}),
		g.At(grid.Coord{X: 2, Y: 5}),
	}
	var stationVs []grid.VertexID
	for _, c := range stations {
		stationVs = append(stationVs, g.At(c))
	}
	w, err := warehouse.New(g, shelfAccess, stationVs, 2, [][]int{{300, 0}, {0, 300}})
	if err != nil {
		t.Fatal(err)
	}
	at := func(x, y int) grid.VertexID { return g.At(grid.Coord{X: x, Y: y}) }
	var bottom, east, top, west []grid.VertexID
	for x := 0; x <= 9; x++ {
		bottom = append(bottom, at(x, 0))
	}
	for y := 1; y <= 5; y++ {
		east = append(east, at(9, y))
	}
	for x := 8; x >= 0; x-- {
		top = append(top, at(x, 5))
	}
	for y := 4; y >= 1; y-- {
		west = append(west, at(0, y))
	}
	s, err := traffic.Build(w, [][]grid.VertexID{bottom, east, top, west})
	if err != nil {
		t.Fatal(err)
	}
	return w, s
}

func ringWorkload(t *testing.T, w *warehouse.Warehouse, u0, u1 int) warehouse.Workload {
	t.Helper()
	wl, err := warehouse.NewWorkload(w, []int{u0, u1})
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

func TestPeriods(t *testing.T) {
	_, s := ringSystem(t)
	tc, qc, qeff, err := periods(s, 240, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tc != 20 { // max component 10 cells -> tc = 20
		t.Errorf("tc = %d, want 20", tc)
	}
	if qc != 12 || qeff != 10 {
		t.Errorf("(qc,qeff) = (%d,%d), want (12,10)", qc, qeff)
	}
	if _, _, _, err := periods(s, 5, 0); err == nil {
		t.Error("horizon shorter than a period accepted")
	}
}

func TestSynthesizeSequentialRing(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 10, 5)
	set, err := SynthesizeSequential(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := set.Check(wl); len(errs) > 0 {
		t.Fatalf("Check: %v", errs)
	}
	// The single queue must receive both products at rate >= 1.
	q := s.StationQueues()[0]
	if set.Fout[q][0] < 1 || set.Fout[q][1] < 1 {
		t.Errorf("Fout at queue = %v", set.Fout[q])
	}
	// The single row must emit both products.
	r := s.ShelvingRows()[0]
	if set.Fin[r][0] < 1 || set.Fin[r][1] < 1 {
		t.Errorf("Fin at row = %v", set.Fin[r])
	}
	if set.Quota[r][0] != 10 || set.Quota[r][1] != 5 {
		t.Errorf("Quota = %v, want [10 5]", set.Quota[r])
	}
}

func TestSynthesizeSequentialSatisfiesContracts(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 8, 8)
	set, err := SynthesizeSequential(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyContracts(set, wl); err != nil {
		t.Errorf("sequential set violates the contract system: %v", err)
	}
}

func TestSynthesizeContractRing(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 6, 3)
	set, err := SynthesizeContract(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := set.Check(wl); len(errs) > 0 {
		t.Fatalf("Check: %v", errs)
	}
	if err := VerifyContracts(set, wl); err != nil {
		t.Errorf("contract set violates the contract system: %v", err)
	}
}

func TestSynthesizeContractExactEngine(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 2, 2)
	set, err := SynthesizeContract(context.Background(), s, wl, 600, Options{Limits: lp.Limits{Exact: true}})
	if err != nil {
		t.Fatal(err)
	}
	if errs := set.Check(wl); len(errs) > 0 {
		t.Fatalf("Check: %v", errs)
	}
}

func TestSynthesizeInfeasibleDemandRate(t *testing.T) {
	w, s := ringSystem(t)
	// Demand so large the per-period rate exceeds the ring capacity: with
	// T=120 (qc=10, qeff small) demand 300 needs rate ~100/period >> cap 1.
	wl := ringWorkload(t, w, 300, 0)
	if _, err := SynthesizeSequential(context.Background(), s, wl, 120, Options{}); err == nil {
		t.Error("sequential synthesis accepted an infeasible rate")
	}
	if _, err := SynthesizeContract(context.Background(), s, wl, 120, Options{}); err == nil {
		t.Error("contract synthesis accepted an infeasible rate")
	}
}

func TestSynthesizeZeroWorkload(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 0, 0)
	set, err := SynthesizeSequential(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if errs := set.Check(wl); len(errs) > 0 {
		t.Errorf("Check: %v", errs)
	}
	if got := set.EnteringTotal(s.StationQueues()[0]); got != 0 {
		t.Errorf("zero workload routed flow %d", got)
	}
}

func TestCheckCatchesCorruption(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 4, 0)
	set, err := SynthesizeSequential(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Violate conservation.
	set.F[0][0] += 1
	if errs := set.Check(wl); len(errs) == 0 {
		t.Error("Check missed a conservation violation")
	}
}

func TestCompileComponentContractShape(t *testing.T) {
	_, s := ringSystem(t)
	r := s.ShelvingRows()[0]
	c, err := CompileComponentContract(s, r, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Assumptions) != 1 {
		t.Errorf("assumptions = %d, want 1 (capacity)", len(c.Assumptions))
	}
	// Guarantees: conservation per commodity (3) + fincap per product (2) +
	// fin-needs-empty (1) = 6.
	if len(c.Guarantees) != 6 {
		t.Errorf("guarantees = %d, want 6", len(c.Guarantees))
	}
	q := s.StationQueues()[0]
	cq, err := CompileComponentContract(s, q, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Conservation (3) + foutcap per product (2) = 5.
	if len(cq.Guarantees) != 5 {
		t.Errorf("queue guarantees = %d, want 5", len(cq.Guarantees))
	}
	tr := s.Transports()[0]
	ct, err := CompileComponentContract(s, tr, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.Guarantees) != 3 {
		t.Errorf("transport guarantees = %d, want 3 (conservation only)", len(ct.Guarantees))
	}
}

func TestCompileWorkloadContract(t *testing.T) {
	w, s := ringSystem(t)
	wl := ringWorkload(t, w, 5, 0)
	c, err := CompileWorkloadContract(s, wl, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Guarantees) != 1 {
		t.Errorf("guarantees = %d, want 1 (only product 0 demanded)", len(c.Guarantees))
	}
	if len(c.Assumptions) != 0 {
		t.Errorf("workload contract must make no assumptions, got %d", len(c.Assumptions))
	}
}

func TestEdgeIndex(t *testing.T) {
	_, s := ringSystem(t)
	wl := warehouse.Workload{Units: []int{0, 0}}
	set, err := SynthesizeSequential(context.Background(), s, wl, 600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for e, edge := range set.Edges {
		if got := set.EdgeIndex(edge[0], edge[1]); got != e {
			t.Errorf("EdgeIndex(%v) = %d, want %d", edge, got, e)
		}
	}
	if got := set.EdgeIndex(0, 0); got != -1 {
		t.Errorf("EdgeIndex(self-loop) = %d, want -1", got)
	}
}
