package wsp

import (
	"context"

	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/mapf"
)

// The error taxonomy of API v1. Every error the package returns wraps (via
// %w, at every internal layer) exactly one of these sentinels when the
// corresponding condition holds, so errors.Is classifies failures without
// string matching:
//
//	res, err := solver.Solve(ctx, inst)
//	switch {
//	case errors.Is(err, wsp.ErrCanceled):        // ctx fired mid-solve
//	case errors.Is(err, wsp.ErrInfeasible):      // no flow set exists
//	case errors.Is(err, wsp.ErrHorizonTooShort): // T below one cycle period
//	case errors.Is(err, wsp.ErrBudgetExhausted): // search undecided in budget
//	}
var (
	// ErrInfeasible: no agent flow set services the workload within the
	// instance's horizon. Use errors.As with *InfeasibleError to read the
	// certificate that tells an instance admitting no flow set at all
	// from one on which only the synthesis failed.
	ErrInfeasible = flow.ErrInfeasible

	// ErrHorizonTooShort: the horizon is below one traffic-system cycle
	// period — too short to host a single agent cycle.
	ErrHorizonTooShort = flow.ErrHorizonTooShort

	// ErrBudgetExhausted: the ILP search ran out of its deterministic
	// node or work budget (WithWorkBudget / WithNodeBudget) before
	// deciding.
	ErrBudgetExhausted = lp.ErrBudgetExhausted

	// ErrCanceled: the context was cancelled and the solve was abandoned
	// — inside the LP search, within one work-budget accounting tick.
	// WHY the context fired stays visible: a solve cut short by
	// context.WithDeadline/WithTimeout additionally satisfies
	// errors.Is(err, ErrDeadlineExceeded), and a context.CancelCause cause
	// rides along the same way, so a server can map deadline expiry and
	// client disconnect to different responses (wspd: 504 vs 499).
	ErrCanceled = lp.ErrCanceled

	// ErrDeadlineExceeded is context.DeadlineExceeded, re-exported so the
	// deadline/cancel distinction is part of the documented taxonomy. It
	// always co-occurs with ErrCanceled, never replaces it.
	ErrDeadlineExceeded = context.DeadlineExceeded

	// ErrExpansionLimit: a MAPF baseline planner (IteratedECBS) exhausted
	// its search budget — the "failed to terminate" outcome the paper
	// reports for the baseline.
	ErrExpansionLimit = mapf.ErrExpansionLimit
)

// InfeasibleError is the concrete infeasibility verdict behind
// ErrInfeasible; it carries a Certificate.
type InfeasibleError = flow.InfeasibleError

// Certificate classifies the evidence behind an infeasibility verdict.
type Certificate = flow.Certificate

// Certificates carried by InfeasibleError.
const (
	// CertInfeasible: no agent flow set, integral or not, services the
	// workload. Sweep reports it for a demand level beyond what the
	// generated topology stocks.
	CertInfeasible = flow.CertInfeasible
	// CertMaybeFeasible: no plan was found, but nothing rules out a
	// fractional flow set: the integral search proved the contract
	// conjunction unsatisfiable, the sequential decomposition or route
	// packing fell short, or the realized plan did not finish in time.
	CertMaybeFeasible = flow.CertMaybeFeasible
)
