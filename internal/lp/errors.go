package lp

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors of the solver layer. They are the roots of the public
// error taxonomy: every layer above (contracts, flow, core, the wsp facade)
// wraps them with %w so errors.Is works end to end, and the wsp package
// re-exports them as wsp.ErrCanceled / wsp.ErrBudgetExhausted.
var (
	// ErrCanceled reports that a solve was abandoned because its
	// cancellation channel (ILPOptions.Cancel / SolveOptions.Cancel,
	// normally a context's Done channel) fired. The cancellation check
	// piggybacks on the MaxWork accounting tick, so a running solve
	// returns within one pivot of the channel closing, and a solve that
	// is never cancelled executes the exact same arithmetic as one with
	// no channel installed.
	ErrCanceled = errors.New("lp: solve canceled")

	// ErrBudgetExhausted reports that a branch-and-bound search ran out
	// of its deterministic node (MaxNodes) or work (MaxWork) budget
	// before reaching a decision.
	ErrBudgetExhausted = errors.New("lp: search budget exhausted")

	// ErrUnboundedIntDomain reports that branch and bound marched too far
	// into the open side of a one-sided integer domain: the variable is
	// missing a bound, no finite implied bound was derivable from the
	// constraint rows (see integerBox in intbox.go), and the branching
	// chain kept tightening into the open direction — the signature of an
	// integer-infeasible instance whose relaxations stay feasible forever.
	// The search rejects the solve with this error instead of hanging.
	// Solves that decide before branching runs away (an infeasible
	// relaxation, or an integral point found first) are unaffected by the
	// guard.
	ErrUnboundedIntDomain = errors.New("lp: integer variable with unbounded domain")
)

// WrapCancelCause annotates a cancellation error with its context's cancel
// cause, so callers can tell a deadline expiry apart from an explicit
// cancellation. The solver layer itself sees only a closed channel — WHY it
// closed lives in the context — so every ctx-bearing layer that surfaces an
// error wrapping ErrCanceled routes it through this helper. After that,
// errors.Is(err, context.DeadlineExceeded) holds exactly when the context's
// deadline fired (and likewise for any custom context.CancelCause), while a
// plain context.Canceled adds nothing. Non-cancellation errors and nil pass
// through untouched.
func WrapCancelCause(ctx context.Context, err error) error {
	if err == nil || ctx == nil || !errors.Is(err, ErrCanceled) {
		return err
	}
	cause := context.Cause(ctx)
	if cause == nil || cause == context.Canceled || errors.Is(err, cause) {
		return err
	}
	return fmt.Errorf("%w: %w", cause, err)
}
