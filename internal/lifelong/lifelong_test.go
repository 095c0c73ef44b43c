package lifelong

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/maps"
	"repro/internal/testmaps"
)

func TestRunSingleBatchMatchesOneShot(t *testing.T) {
	_, s := testmaps.MustRing()
	rep, err := Run(context.Background(), s, []Batch{{Release: 0, Units: []int{10, 5}}}, 2400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 1 {
		t.Errorf("epochs = %d, want 1", rep.Epochs)
	}
	if rep.Delivered[0] != 10 || rep.Delivered[1] != 5 {
		t.Errorf("delivered = %v, want [10 5]", rep.Delivered)
	}
	if rep.Batches[0].Completed < 0 {
		t.Error("batch never completed")
	}
}

func TestRunStaggeredBatches(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
		{Release: 1800, Units: []int{4, 4}},
	}
	rep, err := Run(context.Background(), s, batches, 4800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Delivered[0] != 12 || rep.Delivered[1] != 12 {
		t.Errorf("delivered = %v, want [12 12]", rep.Delivered)
	}
	if rep.Epochs < 2 {
		t.Errorf("epochs = %d, want >= 2 (staggered releases force re-planning)", rep.Epochs)
	}
	prev := -1
	for i, b := range rep.Batches {
		if b.Completed < 0 {
			t.Errorf("batch %d never completed", i)
			continue
		}
		if b.Completed < b.Release {
			t.Errorf("batch %d completed at %d before release %d", i, b.Completed, b.Release)
		}
		if b.Completed < prev {
			t.Errorf("batch completion out of FIFO order: %d after %d", b.Completed, prev)
		}
		prev = b.Completed
	}
	if rep.PeakAgents == 0 {
		t.Error("no agents recorded")
	}
}

func TestRunOnPaperMap(t *testing.T) {
	if testing.Short() {
		t.Skip("integration")
	}
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	units := make([]int, m.W.NumProducts)
	for k := range units {
		units[k] = 2
	}
	batches := []Batch{
		{Release: 0, Units: units},
		{Release: 2000, Units: units},
	}
	rep, err := Run(context.Background(), m.S, batches, 8000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := 2 * len(units) * 2
	got := 0
	for _, d := range rep.Delivered {
		got += d
	}
	if got != want {
		t.Errorf("delivered %d units, want %d", got, want)
	}
}

// Every epoch changeover is charged exactly one cycle time, and the epoch
// log timeline is internally consistent — for the default strategy and for
// the contract-ILP strategy that re-targets one compiled model per epoch.
func TestRunChargesOneCycleTimePerEpoch(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
		{Release: 1800, Units: []int{4, 4}},
	}
	for _, strat := range []core.Strategy{core.RoutePacking, core.ContractILP} {
		rep, err := Run(context.Background(), s, batches, 4800, Options{Core: core.Options{Strategy: strat}})
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		if len(rep.EpochLog) != rep.Epochs {
			t.Fatalf("%v: epoch log has %d entries for %d epochs", strat, len(rep.EpochLog), rep.Epochs)
		}
		prevEnd := 0
		for i, e := range rep.EpochLog {
			if e.Changeover != s.CycleTime() {
				t.Errorf("%v: epoch %d charged changeover %d, want one cycle time %d", strat, i, e.Changeover, s.CycleTime())
			}
			if e.End != e.Start+e.Changeover+e.ServicedAt {
				t.Errorf("%v: epoch %d timeline broken: end %d != start %d + changeover %d + serviced %d",
					strat, i, e.End, e.Start, e.Changeover, e.ServicedAt)
			}
			if e.Start < prevEnd {
				t.Errorf("%v: epoch %d starts at %d before previous end %d", strat, i, e.Start, prevEnd)
			}
			prevEnd = e.End
		}
	}
}

func TestRunRejectsBadBatches(t *testing.T) {
	_, s := testmaps.MustRing()
	if _, err := Run(context.Background(), s, []Batch{{Release: 0, Units: []int{1}}}, 1000, Options{}); err == nil {
		t.Error("short demand vector accepted")
	}
	if _, err := Run(context.Background(), s, []Batch{{Release: -1, Units: []int{1, 0}}}, 1000, Options{}); err == nil {
		t.Error("negative release accepted")
	}
	if _, err := Run(context.Background(), s, []Batch{{Release: 5000, Units: []int{1, 0}}}, 1000, Options{}); err == nil {
		t.Error("release beyond horizon accepted")
	}
}

func TestRunOverloadedHorizonFails(t *testing.T) {
	_, s := testmaps.MustRing()
	// 600 units through a capacity-2 ring in 600 steps is impossible.
	if _, err := Run(context.Background(), s, []Batch{{Release: 0, Units: []int{300, 300}}}, 600, Options{}); err == nil {
		t.Error("overloaded lifelong run reported success")
	}
}

// TestRunOutOfTimeIsHorizonTooShort: a batch released too late to serve
// ends the run with the horizon-too-short verdict and the run's own message.
func TestRunOutOfTimeIsHorizonTooShort(t *testing.T) {
	_, s := testmaps.MustRing()
	_, err := Run(context.Background(), s, []Batch{{Release: 595, Units: []int{3, 3}}}, 600, Options{})
	if !errors.Is(err, flow.ErrHorizonTooShort) || err.Error() != "lifelong: 6 units outstanding with no time left" {
		t.Errorf("err = %v, want the no-time-left verdict matching flow.ErrHorizonTooShort", err)
	}
}

func TestRunNoBatches(t *testing.T) {
	_, s := testmaps.MustRing()
	rep, err := Run(context.Background(), s, nil, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 0 {
		t.Errorf("epochs = %d, want 0", rep.Epochs)
	}
}
