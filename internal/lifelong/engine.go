package lifelong

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/grid"
	"repro/internal/lp"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// The event-driven lifelong engine. The monolithic controller loop is
// split into an explicit state machine with four phases per Step:
//
//	release  — absorb every batch whose release time has arrived, or jump
//	           the clock to the next release when the backlog is empty
//	plan     — rebuild the warehouse with depleted stock, re-wire the
//	           traffic system, and synthesize a plan for the outstanding
//	           demand (core.SolveScratch), with a halved-workload retry
//	           reserved for infeasibility/budget errors
//	execute  — attribute the simulated deliveries FIFO to open batches and
//	           deplete physical stock
//	account  — extend the Report (epoch log, peaks, totals) and advance
//	           the clock past the changeover + servicing time
//
// Observers see each phase's outcome as it happens: OnDelivery per
// (batch, product) attribution, OnEpoch once per completed epoch with a
// cumulative streaming throughput series (sim.Window), OnBatchComplete
// when a batch's last unit lands. Run drives the engine to completion
// with a nil observer and is bit-identical to the pre-engine loop.

// Observer receives engine events as a lifelong run progresses. Callbacks
// fire synchronously on the engine's goroutine, in event order: the
// deliveries of an epoch, then the epoch report, then any batch
// completions that epoch caused. A slow observer stalls the run — stream
// consumers that cannot keep up should buffer on their side.
type Observer interface {
	// OnEpoch fires once per completed epoch, after the epoch's deliveries.
	OnEpoch(EpochReport)
	// OnDelivery fires for every non-empty FIFO attribution of delivered
	// units to an open batch.
	OnDelivery(Delivery)
	// OnBatchComplete fires when the last unit of a batch is delivered.
	OnBatchComplete(batch int, stats BatchStats)
}

// ObserverFuncs adapts plain functions to the Observer interface; nil
// fields are skipped.
type ObserverFuncs struct {
	Epoch         func(EpochReport)
	Delivery      func(Delivery)
	BatchComplete func(batch int, stats BatchStats)
}

// OnEpoch implements Observer.
func (o ObserverFuncs) OnEpoch(r EpochReport) {
	if o.Epoch != nil {
		o.Epoch(r)
	}
}

// OnDelivery implements Observer.
func (o ObserverFuncs) OnDelivery(d Delivery) {
	if o.Delivery != nil {
		o.Delivery(d)
	}
}

// OnBatchComplete implements Observer.
func (o ObserverFuncs) OnBatchComplete(batch int, stats BatchStats) {
	if o.BatchComplete != nil {
		o.BatchComplete(batch, stats)
	}
}

// EpochReport is the observer-facing view of one completed epoch. It
// extends the Report's EpochInfo with the epoch's own delivery and backlog
// state; Report and EpochInfo themselves stay exactly as the batch API
// always returned them.
type EpochReport struct {
	// Epoch is the 1-based epoch index (== Report.Epochs at fire time).
	Epoch int
	EpochInfo
	// Agents is the team size this epoch deployed.
	Agents int
	// Delivered is this epoch's per-product delivery count (clamped to the
	// outstanding demand, i.e. what the run accounted).
	Delivered []int
	// Outstanding is the per-product backlog remaining after this epoch.
	Outstanding []int
	// Throughput is the cumulative units-per-window series over global
	// time (sim.Window bins of Options.ThroughputWindow width), covering
	// every delivery simulated so far.
	Throughput []int
}

// Delivery is one FIFO attribution of delivered units to an open batch.
type Delivery struct {
	Epoch   int // 1-based epoch the units landed in
	Batch   int // index into Report.Batches
	Product int
	Units   int
}

// solveFn is the epoch planner's solver entry point — a seam so tests can
// inject epoch failures without constructing unsolvable instances.
type solveFn func(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts core.Options, sc *core.Scratch) (*core.Result, error)

// Engine steps a lifelong run one event at a time. Create one with
// NewEngine, then call Step until it reports done; Report is valid (and
// partial) at every point in between. An Engine is single-use and not
// safe for concurrent Steps.
type Engine struct {
	s    *traffic.System
	T    int
	opts Options

	sorted []Batch
	rep    *Report

	outstanding []int
	remaining   [][]int
	stock       [][]int
	paths       [][]grid.VertexID
	sc          *core.Scratch

	obs   Observer
	win   *sim.Window
	solve solveFn

	now  int
	next int // next batch to release
	done bool
}

// NewEngine validates batches and prepares a run. A batch needs one
// non-negative demand per product and a release in [0, T); an error names
// the offending batch by its index in batches. Batches sharing a release
// time are merged into one (their demand vectors summed), so
// Report.Batches holds one entry per distinct release time.
func NewEngine(s *traffic.System, batches []Batch, T int, opts Options) (*Engine, error) {
	w := s.W
	p := w.NumProducts
	for i, b := range batches {
		if len(b.Units) != p {
			return nil, fmt.Errorf("lifelong: batch %d has %d demands for %d products", i, len(b.Units), p)
		}
		for k, u := range b.Units {
			if u < 0 {
				return nil, fmt.Errorf("lifelong: batch %d demands %d units of product %d", i, u, k)
			}
		}
		if b.Release < 0 || b.Release >= T {
			return nil, fmt.Errorf("lifelong: batch %d released at %d outside [0, %d)", i, b.Release, T)
		}
	}
	sorted := append([]Batch(nil), batches...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Release < sorted[b].Release })
	sorted = mergeSameRelease(sorted)

	rep := &Report{Delivered: make([]int, p)}
	rep.Batches = make([]BatchStats, len(sorted))
	for i, b := range sorted {
		total := 0
		for _, u := range b.Units {
			total += u
		}
		rep.Batches[i] = BatchStats{Release: b.Release, Completed: -1, Units: total}
	}

	e := &Engine{
		s:      s,
		T:      T,
		opts:   opts,
		sorted: sorted,
		rep:    rep,
		// Outstanding demand per product, plus per-batch remaining counts
		// so deliveries can be attributed FIFO to the oldest open batch.
		outstanding: make([]int, p),
		remaining:   make([][]int, len(sorted)),
		// Physical stock depletes across epochs; each epoch solves on a
		// warehouse whose Λ reflects the units already shipped.
		stock: make([][]int, p),
		paths: make([][]grid.VertexID, len(s.Components)),
		// One synthesis scratch for the whole run: every epoch rebuilds the
		// same floorplan with depleted stock, so the structure signature is
		// stable and the ContractILP strategy re-targets one compiled
		// contract model on the residual demand instead of recompiling per
		// epoch (bit-identical to scratchless solves).
		sc:    &core.Scratch{},
		obs:   opts.Observer,
		solve: core.SolveScratch,
	}
	for i, b := range sorted {
		e.remaining[i] = append([]int(nil), b.Units...)
	}
	for k := 0; k < p; k++ {
		e.stock[k] = append([]int(nil), w.Stock[k]...)
	}
	for i, c := range s.Components {
		e.paths[i] = c.Cells
	}
	if e.obs != nil {
		width := opts.ThroughputWindow
		if width <= 0 {
			width = s.CycleTime()
		}
		e.win = sim.NewWindow(width)
	}
	return e, nil
}

// mergeSameRelease collapses batches sharing a release time into one batch
// with the demand vectors summed. The input must be sorted by release and
// validated; the slice is modified in place.
func mergeSameRelease(sorted []Batch) []Batch {
	out := sorted[:0]
	for _, b := range sorted {
		if n := len(out); n > 0 && out[n-1].Release == b.Release {
			merged := append([]int(nil), out[n-1].Units...)
			for k, u := range b.Units {
				merged[k] += u
			}
			out[n-1].Units = merged
			continue
		}
		out = append(out, b)
	}
	return out
}

// Report returns the run report accumulated so far. It is complete once
// Step reports done, and partial (epochs completed so far) before that or
// when a Step fails.
func (e *Engine) Report() *Report { return e.rep }

// Step advances the run by one event: either a clock jump to the next
// batch release (no epoch planned) or one full epoch — plan, execute,
// account. It returns done=true when every batch has been serviced, or
// with an error when the run cannot continue; the error cases mirror the
// batch Run contract (cancellation wraps lp.ErrCanceled, exhausted
// horizons report the outstanding backlog). Stepping a done engine is a
// no-op returning done=true.
func (e *Engine) Step(ctx context.Context) (bool, error) {
	if e.done {
		return true, nil
	}
	if e.next >= len(e.sorted) && sumPos(e.outstanding) == 0 {
		e.done = true
		return true, nil
	}
	// Release phase: absorb every batch released by `now`.
	for e.next < len(e.sorted) && e.sorted[e.next].Release <= e.now {
		for k, u := range e.sorted[e.next].Units {
			e.outstanding[k] += u
		}
		e.next++
	}
	if sumPos(e.outstanding) == 0 {
		if e.next >= len(e.sorted) {
			e.done = true
			return true, nil
		}
		e.now = e.sorted[e.next].Release
		return false, nil
	}
	// Epoch horizon: until the next release (we re-plan then anyway) or
	// the end of time, minus one cycle-time changeover.
	horizon := e.T - e.now
	if e.next < len(e.sorted) && e.sorted[e.next].Release-e.now < horizon {
		horizon = e.sorted[e.next].Release - e.now
	}
	horizon -= e.s.CycleTime() // changeover charge
	if horizon < e.s.CycleTime() {
		// Too little time to do anything before the next event.
		if e.next < len(e.sorted) {
			e.now = e.sorted[e.next].Release
			return false, nil
		}
		e.done = true
		return true, outOfTime(fmt.Sprintf("lifelong: %d units outstanding with no time left", sumPos(e.outstanding)))
	}
	res, err := e.planEpoch(ctx, horizon)
	if err != nil {
		e.done = true
		return true, err
	}
	e.executeEpoch(res, horizon)
	if e.now >= e.T && (e.next < len(e.sorted) || sumPos(e.outstanding) > 0) {
		e.done = true
		return true, outOfTime(fmt.Sprintf("lifelong: horizon exhausted with %d units outstanding", sumPos(e.outstanding)))
	}
	return false, nil
}

// outOfTime is the verdict of a run whose horizon ends with units still
// outstanding: it matches flow.ErrHorizonTooShort, like a synthesis given
// too short a horizon, and its message is its own.
type outOfTime string

func (e outOfTime) Error() string { return string(e) }

func (outOfTime) Unwrap() error { return flow.ErrHorizonTooShort }

// retryable reports whether an epoch solve failure may be cured by a
// smaller workload: the backlog didn't fit the epoch horizon or the solver
// budget. Anything else (construction bugs, validation failures, unknown
// strategies) propagates directly — retrying would only mask it.
func retryable(err error) bool {
	return errors.Is(err, flow.ErrInfeasible) ||
		errors.Is(err, flow.ErrHorizonTooShort) ||
		errors.Is(err, lp.ErrBudgetExhausted)
}

// planEpoch rebuilds the warehouse with the depleted stock, re-wires the
// same traffic-system components onto it, and synthesizes a plan for the
// outstanding demand. Infeasibility/budget failures are retried once with
// a halved workload before giving up.
func (e *Engine) planEpoch(ctx context.Context, horizon int) (*core.Result, error) {
	w := e.s.W
	we, err := warehouse.New(w.Graph, w.ShelfAccess, w.Stations, w.NumProducts, e.stock)
	if err != nil {
		return nil, fmt.Errorf("lifelong: epoch at t=%d: %w", e.now, err)
	}
	se, err := traffic.Build(we, e.paths)
	if err != nil {
		return nil, fmt.Errorf("lifelong: epoch at t=%d: %w", e.now, err)
	}
	wl, err := warehouse.NewWorkload(we, clampByStock(we, e.outstanding))
	if err != nil {
		return nil, fmt.Errorf("lifelong: epoch at t=%d: %w", e.now, err)
	}
	res, err := e.solve(ctx, se, wl, horizon, e.opts.Core, e.sc)
	if err != nil {
		if errors.Is(err, lp.ErrCanceled) {
			return nil, fmt.Errorf("lifelong: run canceled in epoch at t=%d: %w", e.now, err)
		}
		if !retryable(err) {
			return nil, fmt.Errorf("lifelong: epoch at t=%d failed: %w", e.now, err)
		}
		// The epoch may be too short for the whole backlog; retry with a
		// reduced target before giving up.
		half := halve(wl.Units)
		wl2, err2 := warehouse.NewWorkload(we, half)
		if err2 != nil {
			return nil, fmt.Errorf("lifelong: epoch at t=%d failed: %w", e.now, err)
		}
		res, err = e.solve(ctx, se, wl2, horizon, e.opts.Core, e.sc)
		if err != nil {
			return nil, fmt.Errorf("lifelong: epoch at t=%d failed: %w", e.now, err)
		}
	}
	return res, nil
}

// executeEpoch attributes the simulated deliveries FIFO to open batches,
// depletes physical stock, extends the Report, emits observer events, and
// advances the clock past the changeover + servicing time.
func (e *Engine) executeEpoch(res *core.Result, horizon int) {
	p := e.s.W.NumProducts
	e.rep.Epochs++
	epoch := e.rep.Epochs
	if res.Stats.Agents > e.rep.PeakAgents {
		e.rep.PeakAgents = res.Stats.Agents
	}
	var epochDelivered []int
	if e.obs != nil {
		epochDelivered = make([]int, p)
	}
	for k := 0; k < p; k++ {
		delivered := res.Sim.Delivered[k]
		if delivered > e.outstanding[k] {
			delivered = e.outstanding[k]
		}
		e.outstanding[k] -= delivered
		e.rep.Delivered[k] += delivered
		if epochDelivered != nil {
			epochDelivered[k] = delivered
		}
		deplete(e.stock[k], delivered)
		for bi := range e.remaining {
			if delivered == 0 {
				break
			}
			take := e.remaining[bi][k]
			if take > delivered {
				take = delivered
			}
			e.remaining[bi][k] -= take
			delivered -= take
			if take > 0 && e.obs != nil {
				e.obs.OnDelivery(Delivery{Epoch: epoch, Batch: bi, Product: k, Units: take})
			}
		}
	}
	epochEnd := e.now + e.s.CycleTime() + res.Sim.ServicedAt
	info := EpochInfo{
		Start:      e.now,
		Horizon:    horizon,
		Changeover: e.s.CycleTime(),
		ServicedAt: res.Sim.ServicedAt,
		End:        epochEnd,
	}
	e.rep.EpochLog = append(e.rep.EpochLog, info)
	if e.obs != nil {
		// Deliveries simulated this epoch land on the global clock after
		// the changeover; the window accumulates the raw simulation counts
		// (before clamping to outstanding), i.e. physical station drops.
		base := e.now + e.s.CycleTime()
		for _, t := range res.Sim.DeliveryTimes {
			e.win.Observe(base + t)
		}
		e.obs.OnEpoch(EpochReport{
			Epoch:       epoch,
			EpochInfo:   info,
			Agents:      res.Stats.Agents,
			Delivered:   epochDelivered,
			Outstanding: append([]int(nil), e.outstanding...),
			Throughput:  e.win.Bins(),
		})
	}
	for bi := range e.remaining {
		if e.rep.Batches[bi].Completed < 0 && sumPos(e.remaining[bi]) == 0 && e.sorted[bi].Release <= e.now {
			e.rep.Batches[bi].Completed = epochEnd
			if e.obs != nil {
				e.obs.OnBatchComplete(bi, e.rep.Batches[bi])
			}
		}
	}
	e.now = epochEnd
}
