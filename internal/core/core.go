// Package core orchestrates the end-to-end WSP methodology of Fig. 2:
// traffic-system contracts → agent flow synthesis → agent cycle mapping →
// plan realization → validation. It is the primary public entry point of
// the library; the packages underneath implement the individual stages.
package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// MarshalText renders the strategy by name, so JSON reports stay readable
// and stable across enum reorders.
func (s Strategy) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

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

// Options tunes Solve. It is the one solver configuration value: the
// facade's wsp.Config is this type, the corpus report's "knobs" object is
// its JSON form, and wspd applies request overrides onto it. Zero fields
// select defaults.
type Options struct {
	Strategy Strategy `json:"strategy"`
	// MaxAttempts bounds the synthesize→realize→verify retry loop; each
	// retry doubles the warm-up margin. Zero means 3.
	MaxAttempts int `json:"max_attempts,omitempty"`
	// SkipRealization stops after cycle synthesis (Table I times only the
	// flow-set generation; "the time required to convert an agent flow set
	// into a plan is small").
	SkipRealization bool `json:"skip_realization,omitempty"`
	// Limits configures the ContractILP strategy's ILP per attempt: exact
	// arithmetic, and work and node budgets that override flow's defaults
	// when non-zero. Exhaustion wraps lp.ErrBudgetExhausted.
	lp.Limits
}

// Validate rejects the settings no solve can honor: a negative attempt
// count or budget. Zero selects a default everywhere, so every other value
// is valid. SolveScratch calls it before any work; wspd and the corpus
// CLIs call it on their inputs.
func (o Options) Validate() error {
	switch {
	case o.MaxAttempts < 0:
		return fmt.Errorf("core: MaxAttempts %d is negative (0 selects the default)", o.MaxAttempts)
	case o.MaxWork < 0:
		return fmt.Errorf("core: MaxWork %d is negative (0 selects the default)", o.MaxWork)
	case o.MaxNodes < 0:
		return fmt.Errorf("core: MaxNodes %d is negative (0 selects the default)", o.MaxNodes)
	}
	return nil
}

// Timing breaks down where Solve spent its time.
type Timing struct {
	Synthesis time.Duration // flow/cycle synthesis (the Table I column)
	Mapping   time.Duration // flow set → cycle set
	// Realize is Algorithm 1 together with the validation that checks its
	// states as they are produced, tile by tile: one fused pass, whose two
	// halves overlap on two goroutines. It is the pass's wall time, not the
	// sum of the two halves' busy times.
	Realize time.Duration
}

// Result is a solved WSP instance.
type Result struct {
	// Plan is the realized plan, nil when SkipRealization is set. It is
	// deferred: the solve validated the plan's states as they streamed by
	// and kept none of them, and the first Plan.Rows call rebuilds them by
	// realizing CycleSet again, which is deterministic and so yields the
	// states the solve validated.
	Plan *warehouse.Plan
	// CycleSet is the synthesized cycle set. It is read-only: the deferred
	// Plan rebuilds from it.
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
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	maxAttempts := opts.MaxAttempts
	if maxAttempts == 0 {
		maxAttempts = 3
	}
	if sc == nil {
		sc = &Scratch{}
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
		c, err := cycles.Synthesize(s, wl, T, cycles.Options{WarmupMargin: margin, Scratch: &sc.cyc, Cancel: ctx.Done()})
		if err != nil {
			return nil, err
		}
		res.Timing.Synthesis = time.Since(start)
		cs = c
	case SequentialFlows, ContractILP:
		fopts := flow.Options{WarmupMargin: margin, Limits: opts.Limits}
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
	// Realize and validate in one pass: each tile Algorithm 1 fills goes
	// straight to the replayer, so no agents×T plan is kept. The replayer
	// runs on the feeder's goroutine and checks each tile while this
	// goroutine realizes the next.
	realizeStart := time.Now()
	feed := warehouse.NewReplayer(s.W, cs.NumAgents(), T, wl).Async()
	stats, err := agentplan.Stream(cs, wl, T, func(tile []warehouse.AgentState, width, steps int) error {
		if ctx.Err() != nil {
			return fmt.Errorf("core: realization canceled: %w", lp.ErrCanceled)
		}
		feed.Feed(tile, width, steps)
		return nil
	})
	res.Sim = feed.Finish()
	if err != nil {
		return nil, err
	}
	res.Timing.Realize = time.Since(realizeStart)
	res.Stats = stats
	if len(res.Sim.Violations) > 0 {
		return nil, fmt.Errorf("core: realized plan violates feasibility: %w", res.Sim.Violations[0])
	}
	if res.Sim.ServicedAt < 0 {
		// The plan is valid but does not finish in T: the same verdict as a
		// synthesis shortfall, undecided whether another plan could.
		return nil, &flow.InfeasibleError{Cert: flow.CertMaybeFeasible, Horizon: T,
			Reason: fmt.Sprintf("core: plan delivers %v of %v within %d steps (warm-up shortfall)",
				res.Sim.Delivered, wl.Units, T)}
	}
	units := slices.Clone(wl.Units)
	res.Plan = warehouse.NewDeferredPlan(stats.Agents, T, func() [][]warehouse.AgentState {
		plan, _, err := agentplan.Realize(cs, warehouse.Workload{Units: units}, T)
		if err != nil {
			// These inputs were realized once already, and Realize is
			// deterministic.
			panic(fmt.Sprintf("core: rebuilding a realized plan: %v", err))
		}
		return plan.Rows()
	})
	return res, nil
}
