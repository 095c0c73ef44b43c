package solverpool

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/maps"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// TestSolveBatchMatchesSequential checks that the concurrent pool returns
// bit-identical results to sequential core.Solve on the three Table I maps:
// same ServicedAt, same cycle sets, same plans. All requests per map share
// one traffic.System on purpose — run under -race this also proves that
// concurrent solves never mutate shared synthesis inputs.
func TestSolveBatchMatchesSequential(t *testing.T) {
	rows := []struct {
		name  string
		build func() (*maps.Map, error)
		units int
	}{
		{"SortingCenter", maps.SortingCenter, 160},
		{"Fulfillment1", maps.Fulfillment1, 550},
		{"Fulfillment2", maps.Fulfillment2, 1200},
	}
	const T = 3600

	var reqs []Request
	for _, row := range rows {
		m, err := row.build()
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		wl, err := workload.Uniform(m.W, row.units)
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		// Two identical requests per map: the pool must produce the same
		// answer for both even when they solve concurrently on one System.
		reqs = append(reqs,
			Request{S: m.S, WL: wl, T: T},
			Request{S: m.S, WL: wl, T: T},
		)
	}

	want := make([]*core.Result, len(reqs))
	for i, r := range reqs {
		res, err := core.Solve(context.Background(), r.S, r.WL, r.T, r.Opts)
		if err != nil {
			t.Fatalf("sequential solve %d: %v", i, err)
		}
		want[i] = res
	}

	got := New(4).SolveBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("SolveBatch returned %d results for %d requests", len(got), len(reqs))
	}
	for i, g := range got {
		if g.Err != nil {
			t.Fatalf("parallel solve %d: %v", i, g.Err)
		}
		if g.Res.Sim.ServicedAt != want[i].Sim.ServicedAt {
			t.Errorf("request %d: parallel ServicedAt %d, sequential %d", i, g.Res.Sim.ServicedAt, want[i].Sim.ServicedAt)
		}
		if !reflect.DeepEqual(g.Res.CycleSet.Cycles, want[i].CycleSet.Cycles) {
			t.Errorf("request %d: parallel cycle set differs from sequential", i)
		}
		if !reflect.DeepEqual(g.Res.Plan.Rows(), want[i].Plan.Rows()) {
			t.Errorf("request %d: parallel plan differs from sequential", i)
		}
		if !reflect.DeepEqual(g.Res.Sim.Delivered, want[i].Sim.Delivered) {
			t.Errorf("request %d: parallel deliveries %v, sequential %v", i, g.Res.Sim.Delivered, want[i].Sim.Delivered)
		}
	}
}

// TestContractModelReuseMatchesScratchless drives the incremental contract
// path through the pool: every request uses the ContractILP strategy on one
// shared ring system, so each worker re-targets its scratch's compiled
// contract model across the requests it drains instead of recompiling. The
// results must be bit-identical to scratchless sequential core.Solve calls;
// under -race this also proves worker-owned models never share solver
// state through the common System.
func TestContractModelReuseMatchesScratchless(t *testing.T) {
	w, s := testmaps.MustRing()
	var reqs []Request
	for _, tc := range []struct {
		units []int
		T     int
	}{
		{[]int{4, 2}, 1600},
		{[]int{6, 4}, 1600},
		{[]int{8, 5}, 1600},
		{[]int{8, 5}, 1200}, // horizon retarget on the cached model
		{[]int{4, 2}, 1600}, // repeat: pure model reuse
		{[]int{6, 4}, 1200},
	} {
		wl, err := warehouse.NewWorkload(w, tc.units)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, Request{S: s, WL: wl, T: tc.T, Opts: core.Options{Strategy: core.ContractILP}})
	}

	want := make([]*core.Result, len(reqs))
	for i, r := range reqs {
		res, err := core.Solve(context.Background(), r.S, r.WL, r.T, r.Opts)
		if err != nil {
			t.Fatalf("scratchless solve %d: %v", i, err)
		}
		want[i] = res
	}
	for _, workers := range []int{1, 4} {
		got := New(workers).SolveBatch(context.Background(), reqs)
		for i, g := range got {
			if g.Err != nil {
				t.Fatalf("workers=%d request %d: %v", workers, i, g.Err)
			}
			if !reflect.DeepEqual(g.Res.FlowSet.F, want[i].FlowSet.F) ||
				!reflect.DeepEqual(g.Res.FlowSet.Fin, want[i].FlowSet.Fin) ||
				!reflect.DeepEqual(g.Res.FlowSet.Fout, want[i].FlowSet.Fout) {
				t.Errorf("workers=%d request %d: model-reuse flow set differs from scratchless", workers, i)
			}
			if !reflect.DeepEqual(g.Res.CycleSet.Cycles, want[i].CycleSet.Cycles) {
				t.Errorf("workers=%d request %d: cycle set differs from scratchless", workers, i)
			}
			if !reflect.DeepEqual(g.Res.Plan.Rows(), want[i].Plan.Rows()) {
				t.Errorf("workers=%d request %d: plan differs from scratchless", workers, i)
			}
			if g.Res.Sim.ServicedAt != want[i].Sim.ServicedAt {
				t.Errorf("workers=%d request %d: ServicedAt %d, scratchless %d",
					workers, i, g.Res.Sim.ServicedAt, want[i].Sim.ServicedAt)
			}
		}
	}
}

// TestPoolWidths checks ordering and error propagation across widths.
func TestPoolWidths(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	good := Request{S: m.S, WL: wl, T: 3600, Opts: core.Options{SkipRealization: true}}
	bad := Request{S: m.S, WL: wl, T: 1} // horizon shorter than one cycle period
	for _, workers := range []int{1, 2, 8} {
		got := New(workers).SolveBatch(context.Background(), []Request{good, bad, good})
		if got[0].Err != nil || got[2].Err != nil {
			t.Fatalf("workers=%d: good requests failed: %v %v", workers, got[0].Err, got[2].Err)
		}
		if got[1].Err == nil {
			t.Fatalf("workers=%d: infeasible request did not fail", workers)
		}
		if got[0].Res.CycleSet == nil || got[2].Res.CycleSet == nil {
			t.Fatalf("workers=%d: missing cycle sets", workers)
		}
	}
}

// TestSolveBatchCancelDrains pins the cancellation contract: cancelling the
// batch context mid-drain still fills EVERY result slot (no zero-value
// "successes" with a nil Res), workers exit (SolveBatch returns), and the
// cancelled slots classify as lp.ErrCanceled via errors.Is. Run under
// -race this also proves cancellation introduces no worker/result races.
func TestSolveBatchCancelDrains(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	req := Request{S: m.S, WL: wl, T: 3600}

	t.Run("pre-canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		got := New(2).SolveBatch(ctx, []Request{req, req, req, req})
		for i, g := range got {
			if g.Err == nil {
				t.Fatalf("slot %d: nil error from cancelled batch (Res=%v)", i, g.Res)
			}
			if !errors.Is(g.Err, lp.ErrCanceled) {
				t.Errorf("slot %d: %v does not classify as ErrCanceled", i, g.Err)
			}
		}
	})

	t.Run("mid-batch", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		reqs := make([]Request, 16)
		for i := range reqs {
			reqs[i] = req
		}
		done := make(chan []Result, 1)
		go func() { done <- New(4).SolveBatch(ctx, reqs) }()
		time.Sleep(2 * time.Millisecond)
		cancel()
		var got []Result
		select {
		case got = <-done:
		case <-time.After(60 * time.Second):
			t.Fatal("cancelled batch did not drain within 60s")
		}
		if len(got) != len(reqs) {
			t.Fatalf("drained %d of %d slots", len(got), len(reqs))
		}
		for i, g := range got {
			switch {
			case g.Err == nil && g.Res != nil: // finished before the cancel
			case g.Err != nil && errors.Is(g.Err, lp.ErrCanceled): // cancelled
			default:
				t.Errorf("slot %d: unexpected outcome Res=%v Err=%v", i, g.Res, g.Err)
			}
		}
	})
}
