// Package core orchestrates the end-to-end WSP methodology of Fig. 2:
// traffic-system contracts → agent flow synthesis → agent cycle mapping →
// plan realization → validation. It is the primary public entry point of
// the library; the packages underneath implement the individual stages.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/agentplan"
	"repro/internal/cycles"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Strategy selects how the agent flow set / cycle set is synthesized.
type Strategy int

// Synthesis strategies.
const (
	// RoutePacking packs workload demand into cycles directly over residual
	// component capacities. It works at total-unit granularity and is the
	// strategy that reaches the scale of the paper's Table I.
	RoutePacking Strategy = iota
	// SequentialFlows synthesizes the paper's per-period agent flow set one
	// commodity at a time with exact min-cost flow, then maps it to cycles
	// via the Property 4.2/4.3 decomposition.
	SequentialFlows
	// ContractILP is the faithful §IV-D pipeline: compose component
	// contracts, conjoin the workload contract, and solve the conjunction
	// with the ILP engine (the Z3 substitute). Exponential in the worst
	// case; intended for small and mid-size instances.
	ContractILP
)

func (s Strategy) String() string {
	switch s {
	case RoutePacking:
		return "route-packing"
	case SequentialFlows:
		return "sequential-flows"
	case ContractILP:
		return "contract-ilp"
	}
	return "unknown"
}

// Options tunes Solve.
type Options struct {
	Strategy Strategy
	// MaxAttempts bounds the synthesize→realize→verify retry loop; each
	// retry doubles the warm-up margin. Zero means 3.
	MaxAttempts int
	// SkipRealization stops after cycle synthesis (Table I times only the
	// flow-set generation; "the time required to convert an agent flow set
	// into a plan is small").
	SkipRealization bool
	// ExactILP switches the ContractILP strategy to exact rational
	// arithmetic.
	ExactILP bool
	// Hybrid selects the float-first/exact-verify hybrid solve mode for the
	// contract path's exact solves and the admission LP (flow.Options.Hybrid).
	// Certified hybrid answers are bit-identical to exact-only ones.
	Hybrid bool
	// RootCuts enables Gomory fractional and knapsack-cover cuts at the
	// branch-and-bound root of the contract path's exact ILP solves. The
	// optimal objective is exactly preserved; alternate integer optima may
	// surface differently than the cut-free search.
	RootCuts bool
	// AdmissionCheck runs the LP-relaxation infeasibility certificate
	// (flow.Admit) before synthesis, failing fast with a sound proof when
	// no agent flow set can exist. The relaxation has |Es|·(|ρ|+1)
	// variables, so enable it only for instances where one LP solve is
	// cheaper than the retry loop. The admission LP has no work budget:
	// MaxWork and MaxNodes bound synthesis only, so the check runs to a
	// verdict and stops early only when ctx is cancelled.
	AdmissionCheck bool
	// MaxWork overrides the contract path's per-attempt deterministic
	// simplex work budget (lp.ILPOptions.MaxWork units); 0 keeps the
	// tableau-footprint-scaled default. Exhaustion surfaces as an error
	// wrapping lp.ErrBudgetExhausted.
	MaxWork int64
	// MaxNodes overrides the contract path's per-attempt branch-and-bound
	// node budget; 0 keeps the default.
	MaxNodes int
	// SearchParallel distributes open branch-and-bound subtrees of each
	// contract-path ILP solve across up to this many workers
	// (lp.ILPOptions.SearchParallel; 0 or 1 = sequential). Bit-identical
	// results at every width; extra workers are clamped by a process-wide
	// token pool, so solver-pool workers stacking this knob cannot
	// oversubscribe the machine.
	SearchParallel int
	// PackParallel probes route-packing cycle candidates with up to this
	// many workers (cycles.Options.PackParallel; 0 or 1 = sequential).
	// Same bit-identity and oversubscription guarantees.
	PackParallel int
}

// Timing breaks down where Solve spent its time.
type Timing struct {
	Synthesis time.Duration // flow/cycle synthesis (the Table I column)
	Mapping   time.Duration // flow set → cycle set
	Realize   time.Duration // Algorithm 1
	Validate  time.Duration // simulation / servicing check
}

// Result is a solved WSP instance.
type Result struct {
	Plan     *warehouse.Plan // nil when SkipRealization is set
	CycleSet *cycles.Set
	FlowSet  *flow.Set // nil for the RoutePacking strategy
	Stats    agentplan.Stats
	Sim      sim.Result
	Timing   Timing
	Attempts int
}

// Scratch holds reusable synthesis state for repeated Solve calls. A
// solver-pool worker (or any caller solving many instances back to back)
// keeps one Scratch per goroutine so the synthesis hot path reuses its
// working memory instead of reallocating it per solve — and, for the
// ContractILP strategy, so the compiled contract system and its solver
// arena persist across solves: retry attempts, horizon-refinement probes,
// lifelong epochs, and design-sweep evaluations re-target the cached model
// instead of recompiling (results stay bit-identical to scratchless
// solves; see flow.ContractModel). A Scratch must not be shared between
// concurrent SolveScratch calls; the zero value is ready to use.
type Scratch struct {
	cyc      cycles.Scratch
	contract flow.ContractModel
}

// Solve answers Problem 3.1: find a T-timestep plan (with however many
// agents the cycle set needs) that services workload wl on warehouse w
// under traffic system s. The plan is synthesized, realized, and verified;
// if the realization falls short of the workload (warm-up underestimate),
// synthesis is retried with a doubled warm-up margin.
//
// Cancelling ctx aborts the solve — inside the LP branch and bound within
// one work-budget accounting tick — and the returned error wraps
// lp.ErrCanceled. A solve that is never cancelled is bit-identical to one
// run under context.Background().
func Solve(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) (*Result, error) {
	return SolveScratch(ctx, s, wl, T, opts, nil)
}

// SolveScratch is Solve with caller-owned scratch buffers; sc may be nil.
func SolveScratch(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options, sc *Scratch) (*Result, error) {
	maxAttempts := opts.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 3
	}
	if sc == nil {
		sc = &Scratch{}
	}
	if opts.AdmissionCheck {
		// The admission LP runs on the same compiled contract model the
		// ContractILP strategy would use, so a gated synthesis pays the
		// compilation once.
		if err := sc.contract.MustAdmit(ctx, s, wl, T, flow.Options{Hybrid: opts.Hybrid}); err != nil {
			return nil, lp.WrapCancelCause(ctx, err)
		}
	}
	margin := 0 // 0 = automatic, per strategy
	var lastErr error
	for attempt := 1; attempt <= maxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, lp.WrapCancelCause(ctx,
				fmt.Errorf("core: solve canceled before attempt %d: %w", attempt, lp.ErrCanceled))
		}
		res, err := solveOnce(ctx, s, wl, T, opts, margin, sc)
		if err == nil {
			res.Attempts = attempt
			return res, nil
		}
		if errors.Is(err, lp.ErrCanceled) {
			// Retrying a cancelled attempt would grind on work the caller
			// already walked away from. Annotate WHY the context fired here
			// — the one place on this path that still holds it — so a
			// deadline expiry stays distinguishable from an explicit cancel
			// all the way up (the wspd server maps them to 504 vs 499).
			return nil, lp.WrapCancelCause(ctx, err)
		}
		lastErr = err
		// Double the margin (starting from the automatic default).
		if margin == 0 {
			margin = defaultMargin(s, T)
		}
		margin *= 2
		if qc := T / s.CycleTime(); margin > qc-1 {
			margin = qc - 1
		}
	}
	return nil, fmt.Errorf("core: %d attempts failed, last error: %w", maxAttempts, lastErr)
}

func defaultMargin(s *traffic.System, T int) int {
	tc := s.CycleTime()
	if tc == 0 {
		return 1
	}
	m := s.NumComponents() + 2
	if qc := T / tc; m > qc/4 {
		m = qc / 4
	}
	if m < 1 {
		m = 1
	}
	return m
}

func solveOnce(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options, margin int, sc *Scratch) (*Result, error) {
	res := &Result{}
	start := time.Now()

	var cs *cycles.Set
	switch opts.Strategy {
	case RoutePacking:
		c, err := cycles.Synthesize(s, wl, T, cycles.Options{WarmupMargin: margin, Scratch: &sc.cyc, Cancel: ctx.Done(),
			PackParallel: opts.PackParallel})
		if err != nil {
			return nil, err
		}
		res.Timing.Synthesis = time.Since(start)
		cs = c
	case SequentialFlows, ContractILP:
		fopts := flow.Options{WarmupMargin: margin, ExactILP: opts.ExactILP, Hybrid: opts.Hybrid,
			RootCuts: opts.RootCuts, MaxWork: opts.MaxWork, MaxNodes: opts.MaxNodes,
			SearchParallel: opts.SearchParallel}
		var set *flow.Set
		var err error
		if opts.Strategy == SequentialFlows {
			set, err = flow.SynthesizeSequential(ctx, s, wl, T, fopts)
		} else {
			// Model-reusing variant of flow.SynthesizeContract: bit-identical
			// output, with contract compilation and the solver arena amortized
			// across every solve this Scratch serves.
			set, err = sc.contract.Synthesize(ctx, s, wl, T, fopts)
		}
		if err != nil {
			return nil, err
		}
		res.Timing.Synthesis = time.Since(start)
		res.FlowSet = set
		mapStart := time.Now()
		cs, err = cycles.FromFlowSet(set, wl)
		if err != nil {
			return nil, err
		}
		res.Timing.Mapping = time.Since(mapStart)
	default:
		return nil, fmt.Errorf("core: unknown strategy %d", opts.Strategy)
	}
	res.CycleSet = cs

	if opts.SkipRealization {
		return res, nil
	}
	realizeStart := time.Now()
	plan, stats, err := agentplan.Realize(cs, wl, T)
	if err != nil {
		return nil, err
	}
	res.Timing.Realize = time.Since(realizeStart)
	res.Plan = plan
	res.Stats = stats

	valStart := time.Now()
	res.Sim = sim.Run(s.W, plan, wl)
	res.Timing.Validate = time.Since(valStart)
	if len(res.Sim.Violations) > 0 {
		return nil, fmt.Errorf("core: realized plan violates feasibility: %w", res.Sim.Violations[0])
	}
	if res.Sim.ServicedAt < 0 {
		return nil, fmt.Errorf("core: plan delivers %v of %v within %d steps (warm-up shortfall)",
			res.Sim.Delivered, wl.Units, T)
	}
	return res, nil
}
