package wspio

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/maps"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

func TestRoundTripRing(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{7, 4})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Encode(s, &wl, 800, "ring")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	s2, wl2, err := Decode(inst2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumComponents() != s.NumComponents() {
		t.Errorf("components %d != %d", s2.NumComponents(), s.NumComponents())
	}
	if wl2 == nil || wl2.TotalUnits() != 11 {
		t.Fatalf("workload lost in round trip: %v", wl2)
	}
	for k := 0; k < w.NumProducts; k++ {
		if got, want := s2.W.TotalStock(warehouse.ProductID(k)), w.TotalStock(warehouse.ProductID(k)); got != want {
			t.Errorf("product %d stock %d != %d", k, got, want)
		}
	}
	// The decoded instance must solve like the original.
	res, err := core.Solve(context.Background(), s2, *wl2, 800, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.ServicedAt < 0 {
		t.Error("decoded instance not serviced")
	}
}

func TestRoundTripPaperMap(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Encode(m.S, &wl, 3600, "sorting")
	if err != nil {
		t.Fatal(err)
	}
	data, err := Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	inst2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	s2, wl2, err := Decode(inst2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Solve(context.Background(), s2, *wl2, inst2.T, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.ServicedAt < 0 {
		t.Error("decoded paper map not serviced")
	}
}

func TestDecodeRejectsCorruptInstances(t *testing.T) {
	w, s := testmaps.MustRing()
	_ = w
	inst, err := Encode(s, nil, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	bad := *inst
	bad.Stock = append([]StockEntry(nil), inst.Stock...)
	bad.Stock[0].Product = 99
	if _, _, err := Decode(&bad); err == nil {
		t.Error("out-of-range product accepted")
	}
	bad2 := *inst
	bad2.Stock = append([]StockEntry(nil), inst.Stock...)
	bad2.Stock[0].X = -5
	if _, _, err := Decode(&bad2); err == nil {
		t.Error("off-map stock cell accepted")
	}
	bad3 := *inst
	bad3.Components = [][][2]int{{{0, 0}, {5, 5}}}
	if _, _, err := Decode(&bad3); err == nil {
		t.Error("non-adjacent component cells accepted")
	}
	bad4 := *inst
	bad4.Map = "..x"
	if _, _, err := Decode(&bad4); err == nil {
		t.Error("corrupt map accepted")
	}
	bad5 := *inst
	bad5.NumProducts = len(inst.Stock) + 1
	if _, _, err := Decode(&bad5); err == nil {
		t.Error("product count beyond the stock entries accepted")
	}
	if _, err := Unmarshal([]byte("{")); err == nil {
		t.Error("corrupt JSON accepted")
	}
}
