// Benchmark harness reproducing every table and figure of the paper's
// evaluation (§V). DESIGN.md maps each benchmark to the paper table or
// figure it backs and records the errata the implementation corrects.
//
// Run with:  go test -bench=. -benchmem
//
// `make bench` runs the Table I benchmarks and appends a snapshot to
// BENCH_table1.json so successive PRs leave a performance trajectory.
package repro

import (
	"context"
	"fmt"
	"math/big"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/grid"
	"repro/internal/lifelong"
	"repro/internal/lp"
	"repro/internal/mapf"
	"repro/internal/maps"
	"repro/internal/refine"
	"repro/internal/sim"
	"repro/internal/solverpool"
	"repro/internal/testmaps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

const horizonT = 3600 // the paper's plan-length limit

// tableIRows enumerates the nine WSP instances of Table I.
var tableIRows = []struct {
	name  string
	build func() (*maps.Map, error)
	units []int
}{
	{"SortingCenter", maps.SortingCenter, []int{160, 320, 480}},
	{"Fulfillment1", maps.Fulfillment1, []int{550, 825, 1100}},
	{"Fulfillment2", maps.Fulfillment2, []int{1200, 1320, 1440}},
}

// BenchmarkTableI (E1-E3) regenerates Table I: the time to synthesize an
// agent flow/cycle set for each of the nine instances. As in the paper, the
// timed quantity is synthesis ("the time required to convert an agent flow
// set into a plan is small"); BenchmarkTableIEndToEnd covers the full
// pipeline.
func BenchmarkTableI(b *testing.B) {
	for _, row := range tableIRows {
		m, err := row.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, units := range row.units {
			wl, err := workload.Uniform(m.W, units)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s_units=%d", row.name, units), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{SkipRealization: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSolveBatch measures solver-pool throughput: the nine Table I
// instances solved end to end as one batch, at pool widths 1 and 4. Results
// are bit-identical across widths (solverpool's parity test asserts it);
// the speedup on multi-core hardware approaches min(width, GOMAXPROCS).
func BenchmarkSolveBatch(b *testing.B) {
	var reqs []solverpool.Request
	for _, row := range tableIRows {
		m, err := row.build()
		if err != nil {
			b.Fatal(err)
		}
		for _, units := range row.units {
			wl, err := workload.Uniform(m.W, units)
			if err != nil {
				b.Fatal(err)
			}
			reqs = append(reqs, solverpool.Request{S: m.S, WL: wl, T: horizonT})
		}
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel=%d", workers), func(b *testing.B) {
			pool := solverpool.New(workers)
			for i := 0; i < b.N; i++ {
				for _, r := range pool.SolveBatch(context.Background(), reqs) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
			b.ReportMetric(float64(len(reqs))*float64(b.N)/b.Elapsed().Seconds(), "solves/s")
		})
	}
}

// BenchmarkTableIEndToEnd times a whole default core.Solve on the largest
// workload per map: route-packing synthesis (which builds cycles directly,
// with no flow-to-cycle mapping), Algorithm 1 realization, and validation
// by simulation. BenchmarkRealizeValidate times the last two stages alone,
// as the one streamed pass Solve runs.
func BenchmarkTableIEndToEnd(b *testing.B) {
	for _, row := range tableIRows {
		m, err := row.build()
		if err != nil {
			b.Fatal(err)
		}
		units := row.units[len(row.units)-1] // largest instance per map
		wl, err := workload.Uniform(m.W, units)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("%s_units=%d", row.name, units), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				if res.Sim.ServicedAt < 0 {
					b.Fatal("not serviced")
				}
			}
		})
	}
}

// BenchmarkWorkloadScaling (E7) backs the §V claim that doubling the units
// moved increases runtime by less than 10%: compare ns/op across the 1x,
// 2x, and 3x sub-benchmarks.
func BenchmarkWorkloadScaling(b *testing.B) {
	for _, row := range tableIRows {
		m, err := row.build()
		if err != nil {
			b.Fatal(err)
		}
		// x3 equals the largest Table I workload for the map, so every
		// multiple stays within the instance family's feasible range.
		base := row.units[len(row.units)-1] / 3
		for mult := 1; mult <= 3; mult++ {
			wl, err := workload.Uniform(m.W, base*mult)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s_x%d", row.name, mult), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{SkipRealization: true}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkComponentScaling (E8) backs the §V claim that the methodology's
// cost is governed by the number of traffic-system components: sweep the
// stripe count at fixed workload.
func BenchmarkComponentScaling(b *testing.B) {
	for _, stripes := range []int{2, 4, 8, 16} {
		m, err := maps.Generate(maps.Params{
			Stripes: stripes, Rows: 3, BayWidth: 12, CorridorWidth: 3,
			MaxComponentLen: 7, DoubleShelfRows: true,
			NumProducts: 48, UnitsPerShelf: 30, StationsPerStripe: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		wl, err := workload.Uniform(m.W, 480)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("components=%d", m.S.NumComponents()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{SkipRealization: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProductScaling (E8) shows near-insensitivity to the product
// count at fixed map and fixed total units.
func BenchmarkProductScaling(b *testing.B) {
	for _, products := range []int{16, 48, 96, 192} {
		m, err := maps.Generate(maps.Params{
			Stripes: 4, Rows: 3, BayWidth: 12, CorridorWidth: 3,
			MaxComponentLen: 7, DoubleShelfRows: true,
			NumProducts: products, UnitsPerShelf: 30, StationsPerStripe: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		wl, err := workload.Uniform(m.W, 480)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("products=%d", products), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{SkipRealization: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSynthesizerAblation (E9) compares the three synthesis strategies
// on an instance small enough for the faithful contract→ILP path.
func BenchmarkSynthesizerAblation(b *testing.B) {
	w, s := testmaps.MustRing()
	wl, err := warehouse.NewWorkload(w, []int{8, 5})
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []core.Strategy{core.RoutePacking, core.SequentialFlows, core.ContractILP} {
		b.Run(strat.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Solve(context.Background(), s, wl, 800, core.Options{Strategy: strat, SkipRealization: true}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	// The exact-arithmetic contract path.
	b.Run("contract-ilp-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			opts := core.Options{Strategy: core.ContractILP, SkipRealization: true, Limits: lp.Limits{Exact: true}}
			if _, err := core.Solve(context.Background(), s, wl, 800, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// lpTerm builds an lp.Term with an integer coefficient.
func lpTerm(v lp.VarID, coef int64) lp.Term { return lp.Term{Var: v, Coef: big.NewRat(coef, 1)} }

// contractShapedILP builds an ILP with the shape the §IV-D contract
// compiler emits: per-arc per-commodity integer flow variables over a
// component ring, conservation equalities per (component, commodity), a
// shared capacity row per arc, and pickup/drop demand rows per product.
// With ring=4, products=2 it matches the ablation instance's 16-variable
// scale; larger parameters stress the solver the way co-design sweeps do.
func contractShapedILP(ring, products int) *lp.Problem {
	p := &lp.Problem{}
	ncom := products + 1 // commodity 0 is the empty flow
	fv := make([][]lp.VarID, ring)
	zero := big.NewRat(0, 1)
	for e := 0; e < ring; e++ {
		fv[e] = make([]lp.VarID, ncom)
		for k := 0; k < ncom; k++ {
			fv[e][k] = p.AddIntVar(fmt.Sprintf("f_%d_%d", e, k), zero, nil)
		}
	}
	// Conservation: flow in = flow out on every component, per commodity,
	// except commodity exchange at component 0 (the pick row): product k is
	// created there and the empty commodity absorbed symmetrically.
	for c := 0; c < ring; c++ {
		in, out := (c+ring-1)%ring, c
		for k := 0; k < ncom; k++ {
			terms := []lp.Term{lpTerm(fv[in][k], 1), lpTerm(fv[out][k], -1)}
			if c == 0 && k > 0 {
				// Pick row converts empties into product-k carriers.
				p.AddConstraint(fmt.Sprintf("pick_%d", k), terms, lp.GE, big.NewRat(-int64(2+k), 1))
				continue
			}
			p.AddConstraint(fmt.Sprintf("cons_%d_%d", c, k), terms, lp.EQ, zero)
		}
	}
	// Arc capacity: total concurrent flow per arc bounded by the corridor
	// width, the contract guarantee that makes the ILP nontrivial.
	for e := 0; e < ring; e++ {
		terms := make([]lp.Term, ncom)
		for k := 0; k < ncom; k++ {
			terms[k] = lpTerm(fv[e][k], 1)
		}
		p.AddConstraint(fmt.Sprintf("cap_%d", e), terms, lp.LE, big.NewRat(int64(3+products), 1))
	}
	// Demand: each product must ship at least its workload quota. Quotas
	// sum to at most the arc capacity so every size stays feasible.
	for k := 1; k < ncom; k++ {
		p.AddConstraint(fmt.Sprintf("demand_%d", k),
			[]lp.Term{lpTerm(fv[ring/2][k], 1)}, lp.GE, big.NewRat(int64(1+k%2), 1))
	}
	return p
}

// BenchmarkLP isolates the internal/lp solver on contract-shaped problems:
// the full branch-and-bound ILP in both engines. These are the
// microbenchmarks behind the `SynthesizeContract` / `refine.MinimalHorizon`
// costs.
func BenchmarkLP(b *testing.B) {
	sizes := []struct {
		name           string
		ring, products int
	}{
		{"ring=4_products=2", 4, 2},
		{"ring=8_products=4", 8, 4},
		// Demand quotas must fit the shared arc capacity (3+products), which
		// caps products at 6; the large instance grows the ring instead.
		{"ring=24_products=6", 24, 6},
	}
	for _, sz := range sizes {
		ilp := contractShapedILP(sz.ring, sz.products)
		for _, eng := range []struct {
			name string
			opts lp.ILPOptions
		}{
			{"ILPExact", lp.ILPOptions{Engine: lp.EngineExact}},
			{"ILPFloat", lp.ILPOptions{Engine: lp.EngineFloat}},
		} {
			b.Run(eng.name+"/"+sz.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sol, err := lp.NewModel(ilp).ResolveILP(eng.opts)
					if err != nil || sol.Status != lp.StatusOptimal {
						b.Fatalf("status %v err %v", sol.Status, err)
					}
				}
			})
		}
	}
}

// BenchmarkContractAttempt times one contract-synthesis attempt (the §IV-D
// conjunction solved by the default float engine, no realization) on three
// seed-1 corpus instances: one the search solves, one it proves
// unsatisfiable and one that runs out of its node budget. Unlike
// BenchmarkLP's synthetic rings, these reach the corpus's budget-bound
// searches, where the simplex spends its time. work/op is the deterministic
// simplex work of one attempt (the calibrate pins hold the same figures),
// so a change to it means the pivot sequence changed.
func BenchmarkContractAttempt(b *testing.B) {
	insts, err := datasets.Generate(1)
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{Strategy: core.ContractILP, MaxAttempts: 1, SkipRealization: true}
	for _, c := range []struct {
		name    string
		verdict calibrate.Verdict
	}{
		{"stripes/S1-R3-V2-L6-st1", calibrate.VerdictSolved},
		{"rings/14x8-L6-st2", calibrate.VerdictInfeasible},
		{"demand/bursty-0", calibrate.VerdictBudget},
	} {
		var in *datasets.Instance
		for _, cand := range insts {
			if cand.Name == c.name {
				in = cand
			}
		}
		if in == nil {
			b.Fatalf("corpus seed 1 has no instance %s", c.name)
		}
		// The verdict suffix keeps benchjson from reading an instance name's
		// trailing "-0" as a GOMAXPROCS suffix.
		b.Run(c.name+"/"+string(c.verdict), func(b *testing.B) {
			sc := &core.Scratch{}
			w0 := lp.WorkMeter()
			for i := 0; i < b.N; i++ {
				_, err := core.SolveScratch(context.Background(), in.Sys, in.WL, in.T, opts, sc)
				if v := calibrate.Classify(err); v != c.verdict {
					b.Fatalf("verdict %s (%v), want %s", v, err, c.verdict)
				}
			}
			b.ReportMetric(float64(lp.WorkMeter()-w0)/float64(b.N), "work/op")
		})
	}
}

// BenchmarkBaselineComparison (E6) reproduces the §V comparison: the
// search-based baseline's effort explodes with team size while the contract
// pipeline (BenchmarkTableI) stays flat. Expansions per solve are reported
// as a metric; runs that exhaust the budget report the cap (the paper's
// baseline ran out of its one-hour budget the same way).
func BenchmarkBaselineComparison(b *testing.B) {
	m, err := maps.SortingCenter()
	if err != nil {
		b.Fatal(err)
	}
	for _, agents := range []int{1, 2, 4, 8} {
		starts, goals := baselineTasks(m, agents, 2)
		b.Run(fmt.Sprintf("IteratedECBS_agents=%d", agents), func(b *testing.B) {
			var exp int
			for i := 0; i < b.N; i++ {
				sol, _ := mapf.IteratedECBS(m.W.Graph, starts, goals, mapf.IteratedOptions{
					Window: 20,
					Limits: mapf.Limits{MaxExpansions: 500_000, Horizon: horizonT},
				})
				exp = sol.Expansions
			}
			b.ReportMetric(float64(exp), "expansions")
		})
	}
}

// baselineTasks gives each baseline agent a distinct start, a distinct shelf
// cell, and a station, with `tours` shelf→station round trips — the "same
// sequence of shelves and stations" protocol of §V.
func baselineTasks(m *maps.Map, n, tours int) ([]grid.VertexID, [][]grid.VertexID) {
	var starts []grid.VertexID
	var goals [][]grid.VertexID
	rows := m.S.ShelvingRows()
	used := map[grid.VertexID]bool{}
	for a := 0; a < n; a++ {
		row := m.S.Components[rows[a%len(rows)]]
		shelf := row.Cells[(1+2*(a/len(rows)))%row.Len()]
		station := m.W.Stations[a%len(m.W.Stations)]
		start := grid.None
		for _, v := range row.Cells {
			if !used[v] && v != shelf {
				start = v
				break
			}
		}
		if start == grid.None {
			continue
		}
		used[start] = true
		starts = append(starts, start)
		var seq []grid.VertexID
		for t := 0; t < tours; t++ {
			seq = append(seq, shelf, station)
		}
		goals = append(goals, seq)
	}
	return starts, goals
}

// BenchmarkTopologyDesignSpace (E10) sweeps the co-design space: corridor
// width and component-length cap against a fixed workload.
func BenchmarkTopologyDesignSpace(b *testing.B) {
	cases := []struct {
		name string
		p    maps.Params
	}{
		{"V2_L6", maps.Params{Stripes: 4, Rows: 2, BayWidth: 12, CorridorWidth: 2, MaxComponentLen: 6, DoubleShelfRows: true, NumProducts: 48, UnitsPerShelf: 30, StationsPerStripe: 1}},
		{"V3_L7", maps.Params{Stripes: 4, Rows: 3, BayWidth: 12, CorridorWidth: 3, MaxComponentLen: 7, DoubleShelfRows: true, NumProducts: 48, UnitsPerShelf: 30, StationsPerStripe: 1}},
		{"V4_L9", maps.Params{Stripes: 4, Rows: 4, BayWidth: 12, CorridorWidth: 4, MaxComponentLen: 9, DoubleShelfRows: true, NumProducts: 48, UnitsPerShelf: 30, StationsPerStripe: 1}},
	}
	for _, tc := range cases {
		m, err := maps.Generate(tc.p)
		if err != nil {
			b.Fatal(err)
		}
		wl, err := workload.Uniform(m.W, 480)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			var serviced int
			for i := 0; i < b.N; i++ {
				res, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				serviced = res.Sim.ServicedAt
			}
			b.ReportMetric(float64(serviced), "serviced@step")
		})
	}
}

// BenchmarkFailureRobustness (extension) measures makespan dilation when
// one agent freezes mid-plan, under the minimal-communication execution
// policy (sim.ExecuteMCP).
func BenchmarkFailureRobustness(b *testing.B) {
	m, err := maps.SortingCenter()
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 320)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	res.Plan.Rows() // build the deferred plan outside the timed loops
	for _, dur := range []int{0, 120, 480} {
		b.Run(fmt.Sprintf("freeze=%d", dur), func(b *testing.B) {
			var serviced int
			for i := 0; i < b.N; i++ {
				var failures []sim.Failure
				if dur > 0 {
					failures = []sim.Failure{{Agent: 0, At: 100, Duration: dur}}
				}
				ex, err := sim.ExecuteMCP(m.W, res.Plan, wl, failures, 6*horizonT)
				if err != nil {
					b.Fatal(err)
				}
				serviced = ex.ServicedAt
			}
			b.ReportMetric(float64(serviced), "serviced@step")
		})
	}
}

// BenchmarkRefinement (extension, §VI future work) measures the two
// refinement passes: cycle merging and horizon minimization.
func BenchmarkRefinement(b *testing.B) {
	m, err := maps.SortingCenter()
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 320)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("MergeCycles", func(b *testing.B) {
		cs, err := cycles.Synthesize(m.S, wl, horizonT, cycles.Options{MaxLegsPerCycle: 6})
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := refine.MergeCycles(cs, wl); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("MinimalHorizon", func(b *testing.B) {
		var minT int
		for i := 0; i < b.N; i++ {
			hr, err := refine.MinimalHorizon(context.Background(), m.S, wl, horizonT, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			minT = hr.T
		}
		b.ReportMetric(float64(minT), "minimal-T")
	})
	// The faithful contract→ILP path, where every probe re-solves the same
	// contract conjunction at a different horizon — the repeated-solve
	// workload the incremental model layer targets.
	b.Run("MinimalHorizonContract", func(b *testing.B) {
		w, s := testmaps.MustRing()
		rwl, err := warehouse.NewWorkload(w, []int{8, 5})
		if err != nil {
			b.Fatal(err)
		}
		var minT int
		for i := 0; i < b.N; i++ {
			hr, err := refine.MinimalHorizon(context.Background(), s, rwl, 1600, core.Options{Strategy: core.ContractILP})
			if err != nil {
				b.Fatal(err)
			}
			minT = hr.T
		}
		b.ReportMetric(float64(minT), "minimal-T")
	})
}

// BenchmarkLifelong (extension, §II-A lifelong WSP) measures the epoch loop:
// staggered batches force repeated re-synthesis over the residual demand on
// near-identical instances. The contract-ILP variant re-solves the same
// contract conjunction every epoch, so it is the lifelong face of the
// repeated-solve workload.
func BenchmarkLifelong(b *testing.B) {
	_, s := testmaps.MustRing()
	batches := []lifelong.Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
		{Release: 1800, Units: []int{4, 4}},
	}
	for _, strat := range []core.Strategy{core.RoutePacking, core.ContractILP} {
		b.Run(strat.String(), func(b *testing.B) {
			var epochs int
			for i := 0; i < b.N; i++ {
				rep, err := lifelong.Run(context.Background(), s, batches, 4800, lifelong.Options{Core: core.Options{Strategy: strat}})
				if err != nil {
					b.Fatal(err)
				}
				epochs = rep.Epochs
			}
			b.ReportMetric(float64(epochs), "epochs")
		})
	}
}

// BenchmarkLifelongStream measures what observation costs: the same
// staggered-batch run event-free (nil observer — the engine skips all
// event bookkeeping) versus with a counting observer consuming every
// epoch, delivery, and completion event. Streaming should be ~free next
// to the epoch solves.
func BenchmarkLifelongStream(b *testing.B) {
	_, s := testmaps.MustRing()
	batches := []lifelong.Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
		{Release: 1800, Units: []int{4, 4}},
	}
	run := func(b *testing.B, opts lifelong.Options) {
		for i := 0; i < b.N; i++ {
			if _, err := lifelong.Run(context.Background(), s, batches, 4800, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("nil-observer", func(b *testing.B) {
		run(b, lifelong.Options{})
	})
	b.Run("observer", func(b *testing.B) {
		var events int
		run(b, lifelong.Options{Observer: lifelong.ObserverFuncs{
			Epoch:         func(lifelong.EpochReport) { events++ },
			Delivery:      func(lifelong.Delivery) { events++ },
			BatchComplete: func(int, lifelong.BatchStats) { events++ },
		}})
		b.ReportMetric(float64(events)/float64(b.N), "events/run")
	})
}

// BenchmarkDesignSweep measures one design-sweep cell: the same topology
// evaluated at a series of workload levels as one solver-pool batch, which
// is the unit of work the `wsp sweep` grid walk repeats per topology. The
// contract-ILP strategy re-solves the same contract conjunction per level.
func BenchmarkDesignSweep(b *testing.B) {
	w, s := testmaps.MustRing()
	var reqs []solverpool.Request
	for _, units := range [][]int{{4, 2}, {6, 4}, {8, 5}} {
		wl, err := warehouse.NewWorkload(w, units)
		if err != nil {
			b.Fatal(err)
		}
		reqs = append(reqs, solverpool.Request{
			S: s, WL: wl, T: 1600,
			Opts: core.Options{Strategy: core.ContractILP, SkipRealization: true},
		})
	}
	b.Run("contract-series", func(b *testing.B) {
		pool := solverpool.New(1)
		for i := 0; i < b.N; i++ {
			for _, r := range pool.SolveBatch(context.Background(), reqs) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
	})
}

// largestTableISolve solves the largest Table I instance (Fulfillment2,
// 1440 units) end to end, for the realization and validation benchmarks.
func largestTableISolve(b *testing.B) (*maps.Map, warehouse.Workload, *core.Result) {
	b.Helper()
	m, err := maps.Fulfillment2()
	if err != nil {
		b.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 1440)
	if err != nil {
		b.Fatal(err)
	}
	res, err := core.Solve(context.Background(), m.S, wl, horizonT, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	return m, wl, res
}

// benchPlan keeps the benchmarked calls' results live.
var benchPlan *warehouse.Plan

// BenchmarkRealization isolates Algorithm 1: agentplan.Realize on the
// precomputed cycle set of the largest Table I instance, reported per
// agent-step.
func BenchmarkRealization(b *testing.B) {
	_, wl, pre := largestTableISolve(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, _, err := agentplan.Realize(pre.CycleSet, wl, horizonT)
		if err != nil {
			b.Fatal(err)
		}
		benchPlan = plan
	}
	b.ReportMetric(float64(pre.Stats.Agents*horizonT), "agent-steps/op")
}

// BenchmarkValidate isolates validation by simulation: sim.Run replaying the
// realized plan of the largest Table I instance, reported per agent-step.
func BenchmarkValidate(b *testing.B) {
	m, wl, pre := largestTableISolve(b)
	pre.Plan.Rows() // build the deferred plan outside the timed loop
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sim.Run(m.W, pre.Plan, wl); len(res.Violations) > 0 || res.ServicedAt < 0 {
			b.Fatalf("plan rejected: %d violations, serviced at %d", len(res.Violations), res.ServicedAt)
		}
	}
	b.ReportMetric(float64(pre.Stats.Agents*horizonT), "agent-steps/op")
}

// BenchmarkRealizeValidate times the stage core.Solve runs in place of the
// two above: Algorithm 1 on the largest Table I instance's cycle set,
// streamed tile by tile into a warehouse.Replayer that checks each tile on
// its own goroutine while the next is realized (warehouse.Feeder), with no
// plan kept. The target is at most 25 ns per agent-step. It times only
// Fulfillment2 at 1,440 units, the Table I instance that gains least from
// replaying the periodic movement; BenchmarkTableIEndToEnd covers one
// instance of each map.
func BenchmarkRealizeValidate(b *testing.B) {
	m, wl, pre := largestTableISolve(b)
	agents := pre.Stats.Agents
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed := warehouse.NewReplayer(m.W, agents, horizonT, wl).Async()
		_, err := agentplan.Stream(pre.CycleSet, wl, horizonT, func(tile []warehouse.AgentState, steps int) error {
			feed.Feed(tile, steps)
			return nil
		})
		rep := feed.Finish()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Violations) > 0 || rep.ServicedAt < 0 {
			b.Fatalf("plan rejected: %d violations, serviced at %d", len(rep.Violations), rep.ServicedAt)
		}
	}
	steps := float64(agents * horizonT)
	b.ReportMetric(steps, "agent-steps/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/steps, "ns/agent-step")
}
