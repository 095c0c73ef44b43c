package flow

import (
	"errors"
	"fmt"
)

// Sentinel errors of the synthesis layer. The wsp facade re-exports them
// (wsp.ErrInfeasible, wsp.ErrHorizonTooShort); every layer in between
// wraps with %w so errors.Is/As work at any altitude.
var (
	// ErrInfeasible reports that no agent flow set can service the
	// workload within the instance's horizon. Match the concrete
	// *InfeasibleError with errors.As to read its certificate.
	ErrInfeasible = errors.New("flow: no agent flow set services the workload")

	// ErrHorizonTooShort reports a horizon below one traffic-system
	// cycle period — too short to host even a single cycle.
	ErrHorizonTooShort = errors.New("flow: horizon shorter than one cycle period")
)

// Certificate classifies the evidence behind an infeasibility verdict.
type Certificate int

// Certificates carried by InfeasibleError.
const (
	// CertInfeasible: the instance admits no agent flow set, integral or
	// not. The design sweep gives it to a demand level beyond what the
	// generated topology stocks.
	CertInfeasible Certificate = iota
	// CertMaybeFeasible: no plan was found, but nothing rules out a
	// fractional flow set: the integral search proved the contract
	// conjunction unsatisfiable, the sequential decomposition or route
	// packing fell short, or the realized plan did not finish in time.
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

// InfeasibleError is the concrete infeasibility verdict: it satisfies
// errors.Is(err, ErrInfeasible) and carries a certificate, so callers can
// distinguish an instance that admits no flow set at all (CertInfeasible)
// from one on which the synthesis failed (CertMaybeFeasible).
type InfeasibleError struct {
	// Cert is CertInfeasible when no flow set exists, integral or not,
	// and CertMaybeFeasible when only the synthesis failed.
	Cert Certificate
	// Horizon is the timestep budget of the failed instance.
	Horizon int
	// Reason names the stage that produced the verdict.
	Reason string
}

func (e *InfeasibleError) Error() string {
	return fmt.Sprintf("flow: %s: no agent flow set services the workload in %d timesteps (certificate: %v)",
		e.Reason, e.Horizon, e.Cert)
}

// Is makes errors.Is(err, ErrInfeasible) match any InfeasibleError.
func (e *InfeasibleError) Is(target error) bool { return target == ErrInfeasible }
