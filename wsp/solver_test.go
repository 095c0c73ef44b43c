package wsp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// tinyMap generates the smallest contract-expressible topology (one
// stripe, two products) used across the facade tests.
func tinyMap(t *testing.T) *Map {
	t.Helper()
	m, err := GenerateMap(MapParams{
		Stripes: 1, Rows: 2, BayWidth: 12, CorridorWidth: 2,
		MaxComponentLen: 6, DoubleShelfRows: true,
		NumProducts: 2, UnitsPerShelf: 30, StationsPerStripe: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// midMap is a mid-size topology whose exact contract solve runs long
// enough to cancel into (and to exhaust default budgets).
func midMap(t *testing.T) *Map {
	t.Helper()
	m, err := GenerateMap(MapParams{
		Stripes: 2, Rows: 2, BayWidth: 12, CorridorWidth: 2,
		MaxComponentLen: 6, DoubleShelfRows: true,
		NumProducts: 8, UnitsPerShelf: 30, StationsPerStripe: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func tinyInstance(t *testing.T, m *Map, units, T int) Instance {
	t.Helper()
	wl, err := UniformWorkload(m.W, units)
	if err != nil {
		t.Fatal(err)
	}
	return Instance{System: m.S, Workload: wl, Horizon: T}
}

// TestSolveAndBatchAgree pins the facade's bit-identity surface: a batch
// of identical instances over the pool returns exactly what individual
// Solve calls return.
func TestSolveAndBatchAgree(t *testing.T) {
	m := tinyMap(t)
	inst := tinyInstance(t, m, 12, 800)
	solver := New(WithStrategy(ContractILP), WithExact(true), WithParallel(2))
	ctx := context.Background()

	want, err := solver.Solve(ctx, inst)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range solver.SolveBatch(ctx, []Instance{inst, inst, inst}) {
		if r.Err != nil {
			t.Fatalf("batch slot %d: %v", i, r.Err)
		}
		if r.Res.Sim.ServicedAt != want.Sim.ServicedAt || r.Res.Stats.Agents != want.Stats.Agents {
			t.Errorf("batch slot %d: (serviced %d, agents %d) differs from Solve (%d, %d)",
				i, r.Res.Sim.ServicedAt, r.Res.Stats.Agents, want.Sim.ServicedAt, want.Stats.Agents)
		}
	}
}

// TestErrorTaxonomy drives each sentinel of the public taxonomy through a
// real solve and classifies it with errors.Is/As — no string matching.
func TestErrorTaxonomy(t *testing.T) {
	ctx := context.Background()
	m := tinyMap(t)

	t.Run("horizon-too-short", func(t *testing.T) {
		solver := New(WithStrategy(ContractILP))
		_, err := solver.Solve(ctx, tinyInstance(t, m, 12, 5))
		if !errors.Is(err, ErrHorizonTooShort) {
			t.Fatalf("%v does not classify as ErrHorizonTooShort", err)
		}
	})

	t.Run("infeasible-integral-search", func(t *testing.T) {
		// T=40 hosts at least one cycle period, but not this demand: the
		// integral search proves the conjunction unsatisfiable.
		solver := New(WithStrategy(ContractILP), WithMaxAttempts(1))
		_, err := solver.Solve(ctx, tinyInstance(t, m, 60, 40))
		if !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v does not classify as ErrInfeasible", err)
		}
		var ie *InfeasibleError
		if !errors.As(err, &ie) {
			t.Fatalf("%v does not expose *InfeasibleError", err)
		}
	})

	t.Run("route-packing-horizon-too-short", func(t *testing.T) {
		solver := New(WithStrategy(RoutePacking))
		_, err := solver.Solve(ctx, tinyInstance(t, m, 12, 5))
		if !errors.Is(err, ErrHorizonTooShort) {
			t.Fatalf("%v does not classify as ErrHorizonTooShort", err)
		}
	})

	t.Run("route-packing-shortfall", func(t *testing.T) {
		// 480 units in 400 steps outrun every loop the sorting center's
		// capacities admit: route packing's verdict is the flow
		// strategies' shortfall verdict, not an unclassified error.
		sorting, err := BuiltinMap("sorting")
		if err != nil {
			t.Fatal(err)
		}
		_, err = New(WithStrategy(RoutePacking)).Solve(ctx, tinyInstance(t, sorting, 480, 400))
		var ie *InfeasibleError
		if !errors.As(err, &ie) || !errors.Is(err, ErrInfeasible) {
			t.Fatalf("%v does not classify as ErrInfeasible", err)
		}
		if ie.Cert != CertMaybeFeasible {
			t.Errorf("certificate %v, want CertMaybeFeasible", ie.Cert)
		}
	})

	t.Run("budget-exhausted", func(t *testing.T) {
		mm := midMap(t)
		solver := New(WithStrategy(ContractILP), WithExact(true), WithMaxAttempts(1))
		_, err := solver.Solve(ctx, tinyInstance(t, mm, 120, 3600))
		if !errors.Is(err, ErrBudgetExhausted) {
			t.Fatalf("%v does not classify as ErrBudgetExhausted", err)
		}
	})

	t.Run("canceled-before-start", func(t *testing.T) {
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		solver := New(WithStrategy(ContractILP), WithExact(true))
		_, err := solver.Solve(cctx, tinyInstance(t, m, 12, 800))
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v does not classify as ErrCanceled", err)
		}
	})
}

// TestSolveCanceledMidILP is the acceptance path: cancelling an exact ILP
// solve mid-branch-and-bound returns ErrCanceled promptly (the check rides
// the MaxWork accounting tick), and the same Solver — whose pooled scratch
// retains the compiled contract model the cancelled solve was using —
// serves the next solve normally.
func TestSolveCanceledMidILP(t *testing.T) {
	m := midMap(t)
	inst := tinyInstance(t, m, 120, 3600)
	// Budgets lifted far beyond the ~10^9 work units the instance consumes
	// before exhausting the DEFAULT budget (~200ms): uncancelled this
	// search grinds for a very long time, so a prompt return is the
	// cancellation path, not a finished solve.
	solver := New(WithStrategy(ContractILP), WithExact(true), WithMaxAttempts(1),
		WithWorkBudget(1<<50), WithNodeBudget(1<<30))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := solver.Solve(ctx, inst)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v does not classify as ErrCanceled", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("cancelled solve did not return within 60s")
	}

	// The Solver (and its recycled scratch) must remain usable: a small
	// feasible instance on the tiny topology solves fine afterwards.
	tm := tinyMap(t)
	res, err := solver.Solve(context.Background(), tinyInstance(t, tm, 12, 800))
	if err != nil {
		t.Fatalf("solve after cancellation: %v", err)
	}
	if res.Sim.ServicedAt < 0 {
		t.Fatal("post-cancel solve returned an unserviced plan")
	}
}

// TestMinimalHorizonViaFacade smoke-tests the refinement entry point and
// its cancellation classification.
func TestMinimalHorizonViaFacade(t *testing.T) {
	m := tinyMap(t)
	inst := tinyInstance(t, m, 12, 800)
	solver := New(WithStrategy(ContractILP))
	hr, err := solver.MinimalHorizon(context.Background(), inst)
	if err != nil {
		t.Fatal(err)
	}
	if hr.T > inst.Horizon || hr.Result == nil {
		t.Fatalf("refined horizon %d invalid (initial %d)", hr.T, inst.Horizon)
	}
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := solver.MinimalHorizon(cctx, inst); !errors.Is(err, ErrCanceled) {
		t.Fatalf("%v does not classify as ErrCanceled", err)
	}
}

// TestMinimalHorizonKeepsErrorTaxonomy: the horizon search classifies its
// refusals like Solve does. On the sorting center with 480 units, T=200 is
// infeasible and T=5 is below one cycle period for both entry points, and
// SkipRealization is refused before any probe runs (a probe under the
// already-cancelled context would report ErrCanceled instead).
func TestMinimalHorizonKeepsErrorTaxonomy(t *testing.T) {
	sorting, err := BuiltinMap("sorting")
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		solver *Solver
		T      int
		want   error // nil: no sentinel may match
	}{
		{"infeasible", context.Background(), New(), 200, ErrInfeasible},
		{"horizon-too-short", context.Background(), New(), 5, ErrHorizonTooShort},
		{"skip-realization", canceled, New(WithSkipRealization(true)), 3600, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tinyInstance(t, sorting, 480, tc.T)
			_, herr := tc.solver.MinimalHorizon(tc.ctx, inst)
			if herr == nil {
				t.Fatal("MinimalHorizon succeeded")
			}
			for _, sentinel := range []error{ErrInfeasible, ErrHorizonTooShort, ErrBudgetExhausted, ErrCanceled} {
				if errors.Is(herr, sentinel) != (sentinel == tc.want) {
					t.Errorf("MinimalHorizon: errors.Is(%v, %v) = %v", herr, sentinel, !(sentinel == tc.want))
				}
			}
			if tc.want == nil {
				return
			}
			if _, serr := tc.solver.Solve(tc.ctx, inst); !errors.Is(serr, tc.want) {
				t.Errorf("Solve: %v does not match %v", serr, tc.want)
			}
		})
	}
}

// TestSweepSizeBound: the default `wsp sweep` Fig. 5 grid stays inside
// the per-topology size bound (wspd's TestSweepFloorBoundIs422 checks a
// floor past it).
func TestSweepSizeBound(t *testing.T) {
	fig5 := SweepSpec{Corridors: []int{2, 3, 4}, Lens: []int{6, 7, 9}, Stripes: 4, Products: 48,
		Units: 480, Points: 3, Horizon: 3600}
	if err := fig5.Validate(); err != nil {
		t.Fatalf("Fig. 5 grid refused: %v", err)
	}
}

// TestSweepCanceledReturnsCompletedCells pins Sweep's partial-result
// contract: a cancelled walk returns the cells completed so far plus a
// classified error, never a truncated mystery.
func TestSweepCanceledReturnsCompletedCells(t *testing.T) {
	solver := New()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cells, err := solver.Sweep(ctx, SweepSpec{
		Corridors: []int{2}, Lens: []int{6},
		Stripes: 1, Products: 2, Units: 12, Points: 1, Horizon: 800,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("%v does not classify as ErrCanceled", err)
	}
	if len(cells) != 0 {
		t.Fatalf("pre-cancelled sweep returned %d cells", len(cells))
	}
}

// TestSweepStockShortfallIsPointVerdict: a workload level beyond a
// topology's stock is that design point's infeasible verdict, and the walk
// goes on to the next topology instead of failing.
func TestSweepStockShortfallIsPointVerdict(t *testing.T) {
	cells, err := New().Sweep(context.Background(), SweepSpec{
		Corridors: []int{2, 3}, Lens: []int{6},
		Stripes: 1, Products: 2, Units: 1200, Points: 2, Horizon: 1200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("walked %d topologies, want 2", len(cells))
	}
	top := cells[0].Points[1] // 1200 units; V=2 stocks 720
	if !errors.Is(top.Err, ErrInfeasible) || top.Result != nil {
		t.Errorf("level %d on V=2: %v, want an infeasible verdict", top.Units, top.Err)
	}
	// Demand beyond the stock admits no flow set at all, which is what
	// CertInfeasible certifies; this verdict is its one producer.
	var ie *InfeasibleError
	if !errors.As(top.Err, &ie) || ie.Cert != CertInfeasible {
		t.Errorf("level %d on V=2: %v, want an *InfeasibleError with CertInfeasible", top.Units, top.Err)
	}
}

// TestConfigResolution pins the option → config mapping the facade
// documents: every With* option but WithParallel sets one field of the
// Config value, and WithParallel sets the Solver's pool width.
func TestConfigResolution(t *testing.T) {
	s := New(
		WithStrategy(SequentialFlows),
		WithExact(true),
		WithSkipRealization(true),
		WithMaxAttempts(5),
		WithWorkBudget(123),
		WithNodeBudget(45),
		WithParallel(7),
	)
	got := s.Config()
	want := Config{
		Strategy: SequentialFlows, SkipRealization: true, MaxAttempts: 5,
		Limits: Limits{Exact: true, MaxWork: 123, MaxNodes: 45},
	}
	if got != want {
		t.Fatalf("config %+v, want %+v", got, want)
	}
	if s.parallel != 7 {
		t.Fatalf("pool width %d, want 7", s.parallel)
	}
}
