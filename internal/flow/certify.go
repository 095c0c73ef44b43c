package flow

import (
	"context"
	"fmt"

	"repro/internal/contracts"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Certificate classifies an admission check.
type Certificate int

// Admission outcomes.
const (
	// CertInfeasible: the LP relaxation of the contract conjunction is
	// infeasible, which soundly proves no agent flow set (integral or not)
	// services the workload in the given horizon.
	CertInfeasible Certificate = iota
	// CertMaybeFeasible: the relaxation is satisfiable; the integral
	// problem may or may not be.
	CertMaybeFeasible
)

func (c Certificate) String() string {
	switch c {
	case CertInfeasible:
		return "infeasible"
	case CertMaybeFeasible:
		return "maybe-feasible"
	}
	return "unknown"
}

// Admit runs the fast admission test: it compiles the §IV-D contract
// conjunction and solves only its continuous relaxation — no branch and
// bound — so it can gate expensive synthesis attempts. The relaxation is
// solved once, exactly: the lp core's int64 small-rational fast path makes
// the exact engine competitive with the float one on contract-shaped
// problems, and an exact verdict needs no confirmation pass (the seed
// implementation solved in float first and re-solved exactly to confirm
// infeasibility).
//
// Of opts, Admit reads only WarmupMargin. The admission LP has no work
// budget: MaxWork and MaxNodes bound the synthesis search, not this check,
// so the LP runs to a verdict and stops early only when ctx is cancelled.
func Admit(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts Options) (Certificate, error) {
	margin := opts.WarmupMargin
	if margin == 0 {
		margin = autoMargin(s, T)
	}
	_, qc, qeff, err := periods(s, T, margin)
	if err != nil {
		// A horizon below one cycle period cannot host any plan with
		// positive demand.
		if wl.TotalUnits() > 0 {
			return CertInfeasible, nil
		}
		return CertMaybeFeasible, nil
	}
	cts, err := CompileSystemContract(s, qc)
	if err != nil {
		return CertMaybeFeasible, err
	}
	cw, err := CompileWorkloadContract(s, wl, qeff)
	if err != nil {
		return CertMaybeFeasible, err
	}
	goal, err := contracts.Conjoin(cts, cw)
	if err != nil {
		return CertMaybeFeasible, err
	}
	p, _ := goal.ToProblem()
	sol, err := lp.SolveLPWith(p, lp.SolveOptions{Cancel: cancelOf(ctx)})
	if err != nil {
		return CertMaybeFeasible, err
	}
	switch sol.Status {
	case lp.StatusInfeasible:
		return CertInfeasible, nil
	case lp.StatusCanceled:
		return CertMaybeFeasible, fmt.Errorf("flow: admission check abandoned: %w", lp.ErrCanceled)
	}
	return CertMaybeFeasible, nil
}
