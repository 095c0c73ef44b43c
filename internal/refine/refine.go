// Package refine implements the paper's stated future work (§VI): taking
// the feasible solution the methodology produces and iteratively refining
// it toward a bounded-suboptimal one. Two refinements are provided:
//
//   - MergeCycles reduces the team size: cycles that traverse the same
//     component loop and have spare delivery budget are fused, freeing one
//     full loop's worth of agents per merge while preserving every
//     validated invariant.
//   - MinimalHorizon binary-searches for the smallest timestep budget T at
//     which the instance still solves. Feasibility is not monotone in T
//     (warm-up margins quantize with the cycle-period count), so the result
//     is a certified upper bound on the minimal makespan within the
//     methodology's solution space rather than a global minimum.
package refine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// MergeCycles fuses cycles with identical component loops while their
// combined quotas fit one cycle's delivery budget (qeff per queue visit).
// The result is Check-validated; the input set is not modified.
func MergeCycles(cs *cycles.Set, wl warehouse.Workload) (*cycles.Set, error) {
	out := &cycles.Set{S: cs.S, Tc: cs.Tc, Qc: cs.Qc, QEff: cs.QEff}
	type bucket struct {
		cyc    *cycles.Cycle
		budget int
	}
	byLoop := make(map[string][]*bucket)
	keyOf := func(c *cycles.Cycle) string {
		// Loops are rotation-invariant in principle, but route packing
		// emits them with a canonical start, so the plain sequence works as
		// the merge key.
		key := make([]byte, 0, 4*len(c.Components))
		for _, comp := range c.Components {
			key = append(key, byte(comp), byte(comp>>8), byte(comp>>16), ',')
		}
		return string(key)
	}
	queueVisits := func(c *cycles.Cycle) int {
		n := 0
		for _, comp := range c.Components {
			if cs.S.Components[comp].Kind == traffic.StationQueue {
				n++
			}
		}
		return n
	}
	for _, c := range cs.Cycles {
		quota := 0
		for _, leg := range c.Legs {
			quota += leg.Quota
		}
		key := keyOf(c)
		merged := false
		for _, b := range byLoop[key] {
			if b.budget >= quota {
				// Fuse: legs indices refer to the identical loop, so they
				// transfer unchanged.
				b.cyc.Legs = append(b.cyc.Legs, c.Legs...)
				b.budget -= quota
				merged = true
				break
			}
		}
		if merged {
			continue
		}
		clone := &cycles.Cycle{
			Components: append([]traffic.ComponentID(nil), c.Components...),
			Legs:       append([]cycles.Leg(nil), c.Legs...),
		}
		out.Cycles = append(out.Cycles, clone)
		byLoop[key] = append(byLoop[key], &bucket{
			cyc:    clone,
			budget: cs.QEff*queueVisits(clone) - quota,
		})
	}
	if errs := out.Check(wl); len(errs) > 0 {
		return nil, fmt.Errorf("refine: merged cycle set invalid: %v", errs[0])
	}
	return out, nil
}

// HorizonResult reports a MinimalHorizon search.
type HorizonResult struct {
	// T is the smallest horizon for which Solve succeeded.
	T int
	// Result is the solution at that horizon.
	Result *core.Result
	// Probes counts the Solve attempts the search spent.
	Probes int
}

// MinimalHorizon binary-searches the smallest T' in [lo, T] for which the
// instance solves, where lo defaults to one cycle period. The returned
// solution is fully realized and validated at T'.
//
// Every probe solves the same instance at a different horizon, so the
// search holds one core.Scratch across all probes: for the ContractILP
// strategy each probe edits the horizon-dependent right-hand sides of the
// cached contract model and re-solves in the retained arena instead of
// recompiling the contract system per probe. Probe outcomes are
// bit-identical to scratchless core.Solve calls, so the search trajectory
// and result are unchanged.
//
// The errors keep the solve's taxonomy. Cancelling ctx aborts the probe in
// flight and returns an error wrapping lp.ErrCanceled; a horizon below one
// cycle period wraps flow.ErrHorizonTooShort; and a failed first probe, at
// T itself, wraps that solve's error. Any later failed probe just narrows
// the search window, so invalid options — SkipRealization among them,
// since the search reads the serviced timestep of every probe's plan — are
// rejected before the first probe.
func MinimalHorizon(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts core.Options) (*HorizonResult, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if opts.SkipRealization {
		return nil, fmt.Errorf("refine: MinimalHorizon needs realization (SkipRealization must be false)")
	}
	lo := s.CycleTime()
	hi := T
	if lo > hi {
		return nil, fmt.Errorf("refine: horizon %d below one cycle period %d: %w", T, lo, flow.ErrHorizonTooShort)
	}
	probes := 0
	sc := &core.Scratch{}
	solve := func(t int) (*core.Result, error) {
		probes++
		res, err := core.SolveScratch(ctx, s, wl, t, opts, sc)
		if errors.Is(err, lp.ErrCanceled) {
			return nil, fmt.Errorf("refine: horizon search canceled at probe %d: %w", probes, err)
		}
		return res, err
	}
	best, err := solve(hi)
	switch {
	case errors.Is(err, lp.ErrCanceled):
		return nil, err
	case err != nil:
		return nil, fmt.Errorf("refine: instance unsolvable at the initial horizon %d: %w", T, err)
	}
	bestT := hi
	// The serviced timestep bounds the answer from below much tighter than
	// tc; use it to shrink the search window.
	if sa := best.Sim.ServicedAt; sa > lo {
		lo = sa
	}
	for lo < bestT {
		mid := lo + (bestT-lo)/2
		res, err := solve(mid)
		switch {
		case errors.Is(err, lp.ErrCanceled):
			return nil, err
		case err != nil:
			lo = mid + 1 // an infeasible probe: a search datum, not a failure
		default:
			best, bestT = res, mid
			if sa := res.Sim.ServicedAt; sa > lo {
				lo = sa
			}
		}
	}
	return &HorizonResult{T: bestT, Result: best, Probes: probes}, nil
}
