package core

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agentplan"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/maps"
	"repro/internal/sim"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

func TestSolveAllStrategiesOnRing(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{8, 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []Strategy{RoutePacking, SequentialFlows, ContractILP} {
		t.Run(strat.String(), func(t *testing.T) {
			res, err := Solve(context.Background(), s, wl, 800, Options{Strategy: strat})
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan == nil || res.CycleSet == nil {
				t.Fatal("missing plan or cycle set")
			}
			checkDeferredPlan(t, w, res, wl, 800)
			if r := warehouse.ReplayPlan(w, res.Plan, wl); len(r.Violations) > 0 || r.ServicedAt < 0 {
				t.Fatalf("not serviced: delivered %v, violations %v", r.Delivered, r.Violations)
			}
			if res.Timing.Synthesis <= 0 {
				t.Error("synthesis timing not recorded")
			}
			if strat == RoutePacking && res.FlowSet != nil {
				t.Error("route packing should not produce a flow set")
			}
			if strat != RoutePacking && res.FlowSet == nil {
				t.Error("flow strategies should record the flow set")
			}
			if res.Attempts < 1 {
				t.Errorf("attempts = %d", res.Attempts)
			}
		})
	}
}

// checkDeferredPlan requires res.Plan, first read by four goroutines at
// once, to hold the rows agentplan.Realize gives for res.CycleSet, and its
// replay to be the one the solve reported.
func checkDeferredPlan(t *testing.T, w *warehouse.Warehouse, res *Result, wl warehouse.Workload, T int) {
	t.Helper()
	want, _, err := agentplan.Realize(res.CycleSet, wl, T)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.NumAgents() != want.NumAgents() || res.Plan.Horizon() != want.Horizon() {
		t.Errorf("plan is %d agents × %d steps, Realize %d × %d",
			res.Plan.NumAgents(), res.Plan.Horizon(), want.NumAgents(), want.Horizon())
	}
	got := make([][][]warehouse.AgentState, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = res.Plan.Rows()
		}()
	}
	wg.Wait()
	for g, rows := range got {
		if !reflect.DeepEqual(rows, want.Rows()) {
			t.Errorf("goroutine %d: deferred plan rows differ from Realize", g)
		}
	}
	if sr := sim.Run(w, res.Plan, wl); !reflect.DeepEqual(sr, res.Sim) {
		t.Errorf("sim.Run = %+v, solve reported %+v", sr, res.Sim)
	}
}

// TestSolveCanceledDuringRealization: a deadline that expires while the
// plan streams stops the solve within a tile, and the validating goroutine
// with it. Synthesis of this instance takes well under a millisecond at any
// horizon; realizing and validating its 24 agents over 10⁶ steps takes over
// a second.
func TestSolveCanceledDuringRealization(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	base := runtime.NumGoroutine()
	start := time.Now()
	_, err = Solve(ctx, m.S, wl, 1_000_000, Options{})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("canceled solve returned after %v", elapsed)
	}
	if !errors.Is(err, lp.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want lp.ErrCanceled caused by the deadline", err)
	}
	awaitGoroutines(t, base, "canceled solve")
}

// TestSolveStopsItsGoroutines: a solved and a failed solve, each of which
// realized a plan, return with the goroutine that validated it stopped.
func TestSolveStopsItsGoroutines(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), m.S, wl, 3600, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sim.ServicedAt < 0 {
		t.Fatal("not serviced")
	}
	awaitGoroutines(t, base, "solved solve")

	// One unit in ten steps: every attempt realizes a plan that falls short.
	short, err := workload.Uniform(m.W, 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Solve(context.Background(), m.S, short, 10, Options{})
	var inf *flow.InfeasibleError
	if !errors.As(err, &inf) || !strings.Contains(err.Error(), "warm-up shortfall") {
		t.Fatalf("err = %v, want the realized plan's warm-up shortfall", err)
	}
	awaitGoroutines(t, base, "failed solve")
}

// awaitGoroutines fails the test unless the goroutine count falls back to
// base within a few seconds. A goroutine whose exit Finish has waited for
// can still be winding down when Finish returns, so it polls; one that
// never exits keeps the count up.
func awaitGoroutines(t *testing.T, base int, after string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("after a %s: %d goroutines, %d before", after, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSolveMemoryIndependentOfHorizon: a solve keeps no agents×T plan, so
// one solve allocates about the same at T = 3,600 and 36,000; keeping the
// plan took 1.4 and 13 MB.
func TestSolveMemoryIndependentOfHorizon(t *testing.T) {
	m, err := maps.SortingCenter()
	if err != nil {
		t.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []int{3600, 36_000} {
		solve := func() {
			if _, err := Solve(context.Background(), m.S, wl, T, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		solve() // warm the buffer pools
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		solve()
		runtime.ReadMemStats(&after)
		if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb >= 0.5 {
			t.Errorf("T=%d: one solve allocated %.2f MB, want under 0.5", T, mb)
		}
	}
}

func TestSolveSkipRealization(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(context.Background(), s, wl, 800, Options{SkipRealization: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != nil {
		t.Error("plan produced despite SkipRealization")
	}
	if res.CycleSet == nil {
		t.Error("cycle set missing")
	}
}

func TestSolveInfeasibleReportsError(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{300, 300})
	if err != nil {
		t.Fatal(err)
	}
	// Horizon far too short for 600 units through a capacity-2 bottleneck.
	if _, err := Solve(context.Background(), s, wl, 120, Options{}); err == nil {
		t.Error("Solve accepted an infeasible instance")
	}
}

func TestSolveUnknownStrategy(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, _ := warehouse.NewWorkload(w, []int{1, 0})
	if _, err := Solve(context.Background(), s, wl, 800, Options{Strategy: Strategy(99)}); err == nil {
		t.Error("unknown strategy accepted")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("Strategy.String for unknown value")
	}
}

// TestSolveRejectsNegativeOptions: a negative attempt count or budget is a
// caller error, reported before any work and naming the field, not a
// zero-node search, an unlimited one, or a retry loop that never ran.
func TestSolveRejectsNegativeOptions(t *testing.T) {
	w, s := testmaps.MustRing()
	wl, _ := warehouse.NewWorkload(w, []int{1, 0})
	for field, opts := range map[string]Options{
		"MaxAttempts": {Strategy: ContractILP, MaxAttempts: -1},
		"MaxWork":     {Strategy: ContractILP, Limits: lp.Limits{MaxWork: -1}},
		"MaxNodes":    {Strategy: ContractILP, Limits: lp.Limits{MaxNodes: -1}},
	} {
		_, err := Solve(context.Background(), s, wl, 800, opts)
		if err == nil || !strings.Contains(err.Error(), field) {
			t.Errorf("negative %s: err = %v, want an error naming it", field, err)
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	if RoutePacking.String() != "route-packing" ||
		SequentialFlows.String() != "sequential-flows" ||
		ContractILP.String() != "contract-ilp" {
		t.Error("strategy names changed")
	}
}
