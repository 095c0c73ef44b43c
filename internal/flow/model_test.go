package flow

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/lp"
	"repro/internal/testmaps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// TestContractModelMatchesScratch drives one ContractModel through the
// kinds of re-solves the pipeline issues — horizon probes, workload
// changes (including support changes), both ILP engines — and pins every
// answer bit-identical to a from-scratch SynthesizeContract.
func TestContractModelMatchesScratch(t *testing.T) {
	w, s := testmaps.MustRing()
	cm := &ContractModel{}
	cases := []struct {
		units []int
		T     int
		exact bool
	}{
		{[]int{8, 5}, 1600, false},
		{[]int{8, 5}, 1200, false}, // horizon probe: qc/qeff retarget only
		{[]int{8, 5}, 800, false},
		{[]int{4, 0}, 1600, false}, // support change: workload contract recompiles
		{[]int{6, 4}, 1600, true},  // engine change on the cached model
		{[]int{8, 5}, 1600, false}, // back to the original support
	}
	for i, tc := range cases {
		wl, err := warehouse.NewWorkload(w, tc.units)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		opts := Options{Limits: lp.Limits{Exact: tc.exact}}
		got, gotErr := cm.Synthesize(context.Background(), s, wl, tc.T, opts)
		want, wantErr := SynthesizeContract(context.Background(), s, wl, tc.T, opts)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("case %d: model err %v, scratch err %v", i, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if !reflect.DeepEqual(got.F, want.F) || !reflect.DeepEqual(got.Fin, want.Fin) ||
			!reflect.DeepEqual(got.Fout, want.Fout) || !reflect.DeepEqual(got.Quota, want.Quota) {
			t.Errorf("case %d: model flow set differs from scratch", i)
		}
		if got.Tc != want.Tc || got.Qc != want.Qc || got.QEff != want.QEff {
			t.Errorf("case %d: periods differ: model %d/%d/%d, scratch %d/%d/%d",
				i, got.Tc, got.Qc, got.QEff, want.Tc, want.Qc, want.QEff)
		}
	}
}

// A lifelong-style epoch builds a fresh system over depleted stock: the
// structure signature matches, so the model reuses its compilation, yet the
// fincap retarget must pick up the new UNITS_AT values.
func TestContractModelTracksStockAcrossSystems(t *testing.T) {
	w, s := testmaps.MustRing()
	cm := &ContractModel{}
	wl, err := warehouse.NewWorkload(w, []int{8, 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cm.Synthesize(context.Background(), s, wl, 1600, Options{}); err != nil {
		t.Fatal(err)
	}
	// Deplete product 0 and rebuild the same floorplan, as lifelong.Run does.
	stock := [][]int{{7, 0}, {0, 290}}
	w2, err := warehouse.New(w.Graph, w.ShelfAccess, w.Stations, 2, stock)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([][]grid.VertexID, len(s.Components))
	for i, c := range s.Components {
		paths[i] = c.Cells
	}
	s2, err := traffic.Build(w2, paths)
	if err != nil {
		t.Fatal(err)
	}
	if s.StructureSignature() != s2.StructureSignature() {
		t.Fatal("depleted-stock rebuild changed the structure signature")
	}
	wl2, err := warehouse.NewWorkload(w2, []int{7, 5})
	if err != nil {
		t.Fatal(err)
	}
	got, gotErr := cm.Synthesize(context.Background(), s2, wl2, 1600, Options{})
	want, wantErr := SynthesizeContract(context.Background(), s2, wl2, 1600, Options{})
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("model err %v, scratch err %v", gotErr, wantErr)
	}
	if gotErr == nil && (!reflect.DeepEqual(got.F, want.F) || !reflect.DeepEqual(got.Fin, want.Fin) ||
		!reflect.DeepEqual(got.Fout, want.Fout) || !reflect.DeepEqual(got.Quota, want.Quota)) {
		t.Error("model flow set differs from scratch on the depleted system")
	}
}

// Admit through the model must return the same certificate as the
// from-scratch admission test, across feasible and infeasible horizons —
// the infeasible side is decided by warm dual reentry on the cached model.
func TestContractModelAdmitMatchesScratch(t *testing.T) {
	w, s := testmaps.MustRing()
	cm := &ContractModel{}
	for _, tc := range []struct {
		units []int
		T     int
	}{
		{[]int{8, 5}, 1600},
		{[]int{300, 300}, 400}, // overloaded: LP certificate fires
		{[]int{8, 5}, 100},     // below one cycle period
		{[]int{8, 5}, 1600},
	} {
		wl, err := warehouse.NewWorkload(w, tc.units)
		if err != nil {
			t.Fatal(err)
		}
		got, gotErr := cm.Admit(context.Background(), s, wl, tc.T, Options{})
		want, wantErr := Admit(context.Background(), s, wl, tc.T, Options{})
		if (gotErr == nil) != (wantErr == nil) || got != want {
			t.Errorf("units=%v T=%d: model (%v, %v), scratch (%v, %v)",
				tc.units, tc.T, got, gotErr, want, wantErr)
		}
	}
}
