// Package wsp is the public API (v1) of the Warehouse Servicing Problem
// reproduction: a context-aware facade over the internal pipeline of the
// paper's Fig. 2 — traffic-system contracts → agent flow synthesis → agent
// cycle mapping → plan realization → validation.
//
// The entry point is the Solver, built once with functional options and
// reused for any number of solves:
//
//	solver := wsp.New(
//		wsp.WithStrategy(wsp.ContractILP),
//		wsp.WithExact(true),
//	)
//	res, err := solver.Solve(ctx, wsp.Instance{System: sys, Workload: wl, Horizon: 3600})
//
// Every solving method takes a context.Context first and honors its
// cancellation down to the LP branch-and-bound work loops: the check rides
// the solver's deterministic work-budget accounting tick, so a cancelled
// solve stops within one simplex pivot and an uncancelled solve is
// bit-identical to one run under context.Background().
//
// Failures carry a typed taxonomy rooted in four sentinels — ErrInfeasible
// (match the concrete *InfeasibleError for the admission certificate),
// ErrHorizonTooShort, ErrBudgetExhausted, and ErrCanceled — all wrapped
// with %w at every layer, so errors.Is and errors.As work on any error the
// package returns.
//
// Besides Solve, the Solver exposes the higher-level workloads of the
// reproduction: SolveBatch (concurrent what-if batches over a bounded
// worker pool, bit-identical to sequential solves), MinimalHorizon (the
// §VI makespan refinement), Lifelong (epoch-based batch release), and
// Sweep (the Fig. 5 co-design grid).
package wsp

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/lifelong"
	"repro/internal/lp"
	"repro/internal/refine"
	"repro/internal/solverpool"
)

// Strategy selects how the agent flow / cycle set is synthesized.
type Strategy = core.Strategy

// Synthesis strategies.
const (
	// RoutePacking packs workload demand into cycles directly over
	// residual component capacities — the strategy that reaches the scale
	// of the paper's Table I.
	RoutePacking = core.RoutePacking
	// SequentialFlows synthesizes the per-period agent flow set one
	// commodity at a time with exact min-cost flow.
	SequentialFlows = core.SequentialFlows
	// ContractILP is the faithful §IV-D contract pipeline solved with the
	// built-in ILP engine (the Z3 substitute).
	ContractILP = core.ContractILP
)

// ParseStrategy resolves a strategy name ("route", "flows", "contract").
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "route":
		return RoutePacking, nil
	case "flows":
		return SequentialFlows, nil
	case "contract":
		return ContractILP, nil
	}
	return 0, fmt.Errorf("wsp: unknown strategy %q (want route, flows, or contract)", name)
}

// Config is the one solver configuration value, from the CLIs and wspd
// down to the ILP. It is core.Options itself:
//
//	Strategy        synthesis pipeline (default RoutePacking)
//	MaxAttempts     synthesize→realize→verify attempts (0 = 3)
//	SkipRealization stop after cycle synthesis
//	AdmissionCheck  gate synthesis on the LP-relaxation certificate
//	Limits          the ContractILP strategy's ILP: Exact, MaxWork, MaxNodes
//
// The zero value means defaults; Validate rejects negative counts.
//
//	cfg := wsp.Config{Strategy: wsp.ContractILP, Limits: wsp.Limits{Exact: true, MaxNodes: 300}}
type Config = core.Options

// Limits is the ContractILP strategy's ILP settings within a Config:
// exact arithmetic, and the per-attempt work and node budgets (0 selects
// the auto-scaled defaults; exhaustion wraps ErrBudgetExhausted).
type Limits = lp.Limits

// Option configures a Solver at construction.
type Option func(*Solver)

// WithStrategy selects the synthesis strategy.
func WithStrategy(s Strategy) Option { return func(sv *Solver) { sv.cfg.Strategy = s } }

// WithExact toggles exact rational arithmetic for the ContractILP strategy.
func WithExact(exact bool) Option { return func(sv *Solver) { sv.cfg.Exact = exact } }

// WithAdmissionCheck toggles the LP-relaxation admission certificate
// before synthesis.
func WithAdmissionCheck(check bool) Option { return func(sv *Solver) { sv.cfg.AdmissionCheck = check } }

// WithSkipRealization stops solves after cycle synthesis (no plan,
// no simulation).
func WithSkipRealization(skip bool) Option { return func(sv *Solver) { sv.cfg.SkipRealization = skip } }

// WithMaxAttempts bounds the synthesize→realize→verify retry loop.
func WithMaxAttempts(n int) Option { return func(sv *Solver) { sv.cfg.MaxAttempts = n } }

// WithWorkBudget bounds the contract path's per-attempt simplex work in
// deterministic row-update units; exhaustion surfaces as an error wrapping
// ErrBudgetExhausted.
func WithWorkBudget(units int64) Option { return func(sv *Solver) { sv.cfg.MaxWork = units } }

// WithNodeBudget bounds the contract path's per-attempt branch-and-bound
// tree.
func WithNodeBudget(nodes int) Option { return func(sv *Solver) { sv.cfg.MaxNodes = nodes } }

// WithParallel sets the worker-pool width used by SolveBatch and Sweep
// (0 selects GOMAXPROCS). It belongs to the Solver, not to Config: results
// are bit-identical for every width.
func WithParallel(workers int) Option { return func(sv *Solver) { sv.parallel = workers } }

// Solver is the facade over the whole pipeline. Build one with New and
// reuse it: a Solver is safe for concurrent use, and it recycles per-call
// synthesis scratch (compiled contract models, solver arenas) across
// solves, so repeated calls on similar instances skip recompilation.
type Solver struct {
	cfg Config
	// parallel is the SolveBatch / Sweep worker-pool width.
	parallel int
	// scratch recycles core.Scratch values across calls; each concurrent
	// Solve borrows one, so reuse never races and results stay
	// bit-identical to scratchless solves.
	scratch sync.Pool
}

// New builds a Solver from functional options.
func New(opts ...Option) *Solver {
	s := NewFromConfig(Config{})
	for _, o := range opts {
		o(s)
	}
	return s
}

// NewFromConfig builds a Solver from an already-resolved Config — the form
// a server uses when the knob set is computed per request (degradation
// ladders, per-client overrides) rather than fixed at construction. Its
// pool width is the default, GOMAXPROCS.
func NewFromConfig(cfg Config) *Solver {
	s := &Solver{cfg: cfg}
	s.scratch.New = func() any { return &core.Scratch{} }
	return s
}

// Config returns the Solver's resolved configuration.
func (s *Solver) Config() Config { return s.cfg }

// Instance is one Warehouse Servicing Problem: service Workload on the
// traffic system within Horizon timesteps.
type Instance struct {
	System   *System
	Workload Workload
	// Horizon is the timestep budget T.
	Horizon int
}

// Solve answers the WSP for one instance: synthesize, realize, validate.
// Cancelling ctx aborts the solve inside the LP search within one
// work-budget tick; the error then satisfies errors.Is(err, ErrCanceled).
func (s *Solver) Solve(ctx context.Context, inst Instance) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	sc := s.scratch.Get().(*core.Scratch)
	defer s.scratch.Put(sc)
	res, err := core.SolveScratch(ctx, inst.System, inst.Workload, inst.Horizon, s.cfg, sc)
	if err != nil {
		return nil, fmt.Errorf("wsp: solve (T=%d): %w", inst.Horizon, err)
	}
	return res, nil
}

// Scratch is an opaque, reusable synthesis scratch: compiled contract
// models, solver arenas, and packing buffers that persist across solves.
// A Solver's own sync.Pool already recycles scratch anonymously; an
// explicit Scratch exists for callers that know MORE than the pool does —
// a solve server keys warm scratches by traffic.StructureSignature so
// concurrent clients on the same topology reuse one compiled contract
// system instead of drawing an arbitrary (probably cold) pool entry. A
// Scratch must not be used by two solves concurrently; results are
// bit-identical whether a scratch is cold, warm, or absent.
type Scratch struct {
	sc core.Scratch
}

// NewScratch returns an empty Scratch, ready for SolveWithScratch.
func NewScratch() *Scratch { return &Scratch{} }

// SolveWithScratch is Solve with a caller-owned Scratch in place of the
// Solver's anonymous pool. The scratch may be shared across Solvers (its
// warmth is keyed by topology, not by configuration).
func (s *Solver) SolveWithScratch(ctx context.Context, inst Instance, sc *Scratch) (*Result, error) {
	if sc == nil {
		return s.Solve(ctx, inst)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	res, err := core.SolveScratch(ctx, inst.System, inst.Workload, inst.Horizon, s.cfg, &sc.sc)
	if err != nil {
		return nil, fmt.Errorf("wsp: solve (T=%d): %w", inst.Horizon, err)
	}
	return res, nil
}

// BatchResult pairs one SolveBatch instance's outcome with its wall-clock
// solve time.
type BatchResult = solverpool.Result

// SolveBatch solves every instance over a bounded worker pool (width
// WithParallel) and returns results in instance order, each bit-identical
// to a sequential Solve of the same instance. Cancelling ctx aborts
// in-flight solves and fails the not-yet-started rest fast; the pool
// always drains — every slot of the returned slice is filled and no
// goroutine outlives the call. Cancelled slots' errors wrap ErrCanceled.
func (s *Solver) SolveBatch(ctx context.Context, insts []Instance) []BatchResult {
	if ctx == nil {
		ctx = context.Background()
	}
	reqs := make([]solverpool.Request, len(insts))
	for i, inst := range insts {
		reqs[i] = solverpool.Request{S: inst.System, WL: inst.Workload, T: inst.Horizon, Opts: s.cfg}
	}
	return solverpool.New(s.parallel).SolveBatch(ctx, reqs)
}

// HorizonResult reports a MinimalHorizon search.
type HorizonResult = refine.HorizonResult

// MinimalHorizon binary-searches the smallest horizon at which the
// instance still solves (the §VI refinement), holding one synthesis
// scratch across all probes. Infeasible probes narrow the search;
// cancelling ctx aborts it with an error wrapping ErrCanceled.
func (s *Solver) MinimalHorizon(ctx context.Context, inst Instance) (*HorizonResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hr, err := refine.MinimalHorizon(ctx, inst.System, inst.Workload, inst.Horizon, s.cfg)
	if err != nil {
		return nil, fmt.Errorf("wsp: minimal horizon: %w", err)
	}
	return hr, nil
}

// Batch is a demand vector released at a point in time of a lifelong run.
type Batch = lifelong.Batch

// LifelongReport summarizes a lifelong run: per-batch completion, epoch
// timelines, peak team size, delivered units.
type LifelongReport = lifelong.Report

// Lifelong event types, re-exported for streaming observers.
type (
	// LifelongObserver receives engine events as a lifelong run
	// progresses; callbacks fire synchronously on the solving goroutine.
	LifelongObserver = lifelong.Observer
	// LifelongObserverFuncs adapts plain functions to LifelongObserver;
	// nil fields are skipped.
	LifelongObserverFuncs = lifelong.ObserverFuncs
	// EpochReport is the per-epoch streaming payload: the epoch timeline
	// plus delivery, backlog, and cumulative throughput state.
	EpochReport = lifelong.EpochReport
	// EpochInfo records one epoch's timeline within a LifelongReport.
	EpochInfo = lifelong.EpochInfo
	// BatchStats reports one batch's fate within a LifelongReport.
	BatchStats = lifelong.BatchStats
	// Delivery is one FIFO attribution of delivered units to a batch.
	Delivery = lifelong.Delivery
)

// LifelongOption configures one Lifelong run.
type LifelongOption func(*lifelong.Options)

// WithLifelongObserver streams engine events (epoch reports, delivery
// attributions, batch completions) to obs as the run progresses. A nil
// observer is the default: the engine then skips all event bookkeeping.
func WithLifelongObserver(obs LifelongObserver) LifelongOption {
	return func(o *lifelong.Options) { o.Observer = obs }
}

// WithLifelongThroughputWindow sets the bin width, in timesteps, of the
// streaming throughput series on EpochReport. Zero (the default) means one
// cycle time.
func WithLifelongThroughputWindow(width int) LifelongOption {
	return func(o *lifelong.Options) { o.ThroughputWindow = width }
}

// Lifelong services workload batches released over an open-ended horizon,
// re-synthesizing per epoch as demand arrives and stock depletes. Batches
// sharing a release time are merged; the report holds one entry per
// distinct release. Cancelling ctx aborts the epoch in flight; the partial
// report (epochs completed so far) is returned alongside the wrapping
// error.
func (s *Solver) Lifelong(ctx context.Context, sys *System, batches []Batch, T int, opts ...LifelongOption) (*LifelongReport, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	lo := lifelong.Options{Core: s.cfg}
	for _, opt := range opts {
		opt(&lo)
	}
	rep, err := lifelong.Run(ctx, sys, batches, T, lo)
	if err != nil {
		return rep, fmt.Errorf("wsp: %w", err)
	}
	return rep, nil
}
