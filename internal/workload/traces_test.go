package workload

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestBurstyConcentratesAndConserves(t *testing.T) {
	w := smallWarehouse(t)
	// Seed 1 makes product 0 (stock 40) the hot product, so the burst is
	// not stock-clamped away.
	wl, err := Bursty(w, 40, 1, 0.8, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if wl.TotalUnits() != 40 {
		t.Errorf("total = %d, want 40", wl.TotalUnits())
	}
	max := 0
	for _, u := range wl.Units {
		if u > max {
			max = u
		}
	}
	// 80% of 40 on one hot product (plus its uniform share) dominates.
	if max < 32 {
		t.Errorf("hot product got %d units, want ≥ 32", max)
	}
}

func TestBurstyDeterministicPerSeed(t *testing.T) {
	w := smallWarehouse(t)
	a, err := Bursty(w, 40, 2, 0.7, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bursty(w, 40, 2, 0.7, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Units, b.Units) {
		t.Errorf("same seed diverged: %v vs %v", a.Units, b.Units)
	}
}

func TestBurstyRejectsBadShape(t *testing.T) {
	w := smallWarehouse(t)
	if _, err := Bursty(w, 10, 0, 0.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("zero hot products accepted")
	}
	if _, err := Bursty(w, 10, 1, 1.5, rand.New(rand.NewSource(1))); err == nil {
		t.Error("hot share above 1 accepted")
	}
}

func TestDiurnalLevelCurve(t *testing.T) {
	if l := DiurnalLevel(12, 24); l != 1000 {
		t.Errorf("peak level = %d, want 1000", l)
	}
	if l := DiurnalLevel(0, 24); l != 250 {
		t.Errorf("trough level = %d, want 250", l)
	}
	if a, b := DiurnalLevel(6, 24), DiurnalLevel(18, 24); a != b {
		t.Errorf("shoulder asymmetry: %d vs %d", a, b)
	}
	if a, b := DiurnalLevel(-6, 24), DiurnalLevel(18, 24); a != b {
		t.Errorf("negative phase %d != wrapped phase %d", a, b)
	}
}

func TestDiurnalScalesWithPhase(t *testing.T) {
	w := smallWarehouse(t)
	peak, err := Diurnal(w, 40, 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	trough, err := Diurnal(w, 40, 0, 24)
	if err != nil {
		t.Fatal(err)
	}
	if peak.TotalUnits() != 40 {
		t.Errorf("peak total = %d, want 40", peak.TotalUnits())
	}
	if trough.TotalUnits() != 10 {
		t.Errorf("trough total = %d, want 10 (25%% of peak)", trough.TotalUnits())
	}
}
