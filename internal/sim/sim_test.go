package sim

import (
	"slices"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/cycles"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
)

func TestRunCountsDeliveriesAndMoves(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{6, 4})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := cycles.Synthesize(s, wl, 800, cycles.Options{})
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := agentplan.Realize(cs, wl, 800)
	if err != nil {
		t.Fatal(err)
	}
	res := Run(w, plan, wl)
	if len(res.Violations) != 0 {
		t.Fatalf("violations: %v", res.Violations[0])
	}
	// The cycles' leg quotas sum to the demand, so the plan delivers
	// exactly it, and delivers it within the horizon.
	if !slices.Equal(res.Delivered, wl.Units) {
		t.Errorf("sim delivered %v, demand %v", res.Delivered, wl.Units)
	}
	if res.ServicedAt <= 0 {
		t.Errorf("sim ServicedAt = %d, want > 0", res.ServicedAt)
	}
	if got, want := res.Moves+res.Waits, plan.NumAgents()*(plan.Horizon()-1); got != want {
		t.Errorf("moves+waits = %d, want %d", got, want)
	}
	if len(res.DeliveryTimes) != res.Delivered[0]+res.Delivered[1] {
		t.Errorf("delivery events %d, delivered %v", len(res.DeliveryTimes), res.Delivered)
	}
	// Ten deliveries across the ring take at least a loop's worth of loaded
	// travel each.
	if res.Carrying < 10 {
		t.Errorf("Carrying = %d, want >= 10 loaded agent-steps", res.Carrying)
	}
	for i := 1; i < len(res.DeliveryTimes); i++ {
		if res.DeliveryTimes[i] < res.DeliveryTimes[i-1] {
			t.Error("DeliveryTimes not sorted")
			break
		}
	}
}

func TestRunZeroWorkloadServicedImmediately(t *testing.T) {
	w, _ := testmaps.MustRing()
	wl := warehouse.Workload{Units: []int{0, 0}}
	plan := &warehouse.Plan{}
	res := Run(w, plan, wl)
	if res.ServicedAt != 0 {
		t.Errorf("ServicedAt = %d, want 0", res.ServicedAt)
	}
}

func TestThroughputBinning(t *testing.T) {
	res := Result{DeliveryTimes: []int{1, 5, 9, 10, 19, 25}}
	bins := Throughput(res, 30, 10)
	if len(bins) != 3 {
		t.Fatalf("bins = %d, want 3", len(bins))
	}
	if bins[0] != 3 || bins[1] != 2 || bins[2] != 1 {
		t.Errorf("bins = %v, want [3 2 1]", bins)
	}
	if Throughput(res, 0, 10) != nil || Throughput(res, 30, 0) != nil {
		t.Error("degenerate Throughput inputs should return nil")
	}
}

func TestWindowStreamingMatchesThroughput(t *testing.T) {
	res := Result{DeliveryTimes: []int{25, 1, 5, 9, 10, 19}}
	w := NewWindow(10)
	for _, ts := range res.DeliveryTimes {
		w.Observe(ts)
	}
	bins := w.Bins()
	want := Throughput(res, 30, 10)
	if len(bins) != len(want) {
		t.Fatalf("bins = %v, want %v", bins, want)
	}
	for i := range bins {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestWindowGrowsOnDemand(t *testing.T) {
	w := NewWindow(4)
	if got := w.Bins(); len(got) != 0 {
		t.Fatalf("fresh window bins = %v, want empty", got)
	}
	w.Observe(-3) // ignored
	w.Observe(9)
	w.Observe(0)
	bins := w.Bins()
	if len(bins) != 3 || bins[0] != 1 || bins[1] != 0 || bins[2] != 1 {
		t.Errorf("bins = %v, want [1 0 1]", bins)
	}
	// Mutating the returned slice must not alias internal state.
	bins[0] = 99
	if w.Bins()[0] != 1 {
		t.Error("Bins must return a copy")
	}
	zero := NewWindow(0)
	zero.Observe(2)
	if got := zero.Bins(); len(got) != 3 || got[2] != 1 {
		t.Errorf("width-0 window bins = %v, want [0 0 1]: a non-positive width clamps to 1", got)
	}
}
