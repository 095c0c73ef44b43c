package contracts

import (
	"fmt"
	"math/big"

	"repro/internal/lp"
)

// Compiled pairs a contract's one-time ILP compilation with a persistent
// solver model, for callers that re-solve the same contract system under
// edited right-hand sides or variable bounds: horizon refinement probes,
// lifelong epochs, and design-sweep evaluations all differ from their
// predecessor only in a handful of numbers, not in structure.
//
// The compilation (variable ordering, constraint ordering, coefficients) is
// frozen at Compile time; Satisfy and RelaxationFeasible answers are
// bit-identical to re-compiling the edited contract and solving it from
// scratch (see lp.Model for how the warm paths preserve that guarantee).
// The source Contract must not gain variables or constraints afterwards.
type Compiled struct {
	Contract *Contract
	Prob     *lp.Problem
	// Index maps variable names to problem variables, as ToProblem returns.
	Index map[string]lp.VarID

	rows  map[string]int // constraint name → row
	model *lp.Model
}

// Compile freezes the contract's conjunction Ã ∧ G̃ into an editable ILP
// model. It is the one-time counterpart of ToProblem + SolveILP.
//
// Constraint names are the edit handles, so a name shared by several rows
// is poisoned rather than silently resolved to the first occurrence:
// SetRHS on it would retarget one row and leave its twins stale, breaking
// the bit-identity-with-recompile guarantee without a trace. (The flow
// compiler emits unique names; this guards the public seam.)
func (c *Contract) Compile() *Compiled {
	p, index := c.ToProblem()
	rows := make(map[string]int, len(p.Constraints))
	for i := range p.Constraints {
		name := p.Constraints[i].Name
		if _, dup := rows[name]; dup {
			rows[name] = -1 // ambiguous handle: reject edits through it
			continue
		}
		rows[name] = i
	}
	return &Compiled{Contract: c, Prob: p, Index: index, rows: rows, model: lp.NewModel(p)}
}

// SetRHS retargets the named constraint's right-hand side for the next
// solve. The edit keeps any warm basis usable (dual-simplex reentry).
func (cc *Compiled) SetRHS(name string, rhs *big.Rat) error {
	i, ok := cc.rows[name]
	if !ok {
		return fmt.Errorf("contracts: no constraint %q in compiled %s", name, cc.Contract.Name)
	}
	if i < 0 {
		return fmt.Errorf("contracts: constraint name %q is shared by several rows of compiled %s; edits through it are ambiguous", name, cc.Contract.Name)
	}
	cc.model.SetRHS(i, rhs)
	return nil
}

// Row resolves a constraint name to its row index, for callers that edit
// the same rows every solve and want to skip the name lookup (SetRHSAt).
// Names shared by several rows do not resolve.
func (cc *Compiled) Row(name string) (int, bool) {
	i, ok := cc.rows[name]
	return i, ok && i >= 0
}

// SetRHSAt is SetRHS addressed by row index (from Row).
func (cc *Compiled) SetRHSAt(row int, rhs *big.Rat) {
	cc.model.SetRHS(row, rhs)
}

// SetVarBound replaces the named variable's bounds (nil = unbounded).
func (cc *Compiled) SetVarBound(name string, lo, hi *big.Rat) error {
	id, ok := cc.Index[name]
	if !ok {
		return fmt.Errorf("contracts: no variable %q in compiled %s", name, cc.Contract.Name)
	}
	cc.model.SetBound(id, lo, hi)
	return nil
}

// Satisfy searches for a satisfying assignment of the edited system — the
// incremental counterpart of Contract.SatisfyOpts, with the same nil-means-
// unsatisfiable convention and bit-identical assignments.
func (cc *Compiled) Satisfy(opts lp.ILPOptions) (Assignment, error) {
	sol, err := cc.model.ResolveILP(opts)
	if err != nil {
		return nil, err
	}
	switch sol.Status {
	case lp.StatusOptimal:
		out := make(Assignment, len(cc.Index))
		for name, id := range cc.Index {
			out[name] = sol.Value(id)
		}
		return out, nil
	case lp.StatusInfeasible:
		return nil, nil
	case lp.StatusCanceled:
		return nil, fmt.Errorf("contracts: %s solve abandoned: %w", cc.Contract.Name, lp.ErrCanceled)
	case lp.StatusLimit:
		return nil, fmt.Errorf("contracts: %s undecided: %w", cc.Contract.Name, lp.ErrBudgetExhausted)
	default:
		return nil, fmt.Errorf("contracts: solver returned %v for %s", sol.Status, cc.Contract.Name)
	}
}

// RelaxationFeasible decides the continuous relaxation of the edited system
// with the exact engine — the incremental counterpart of the admission
// test's SolveLP call. Infeasibility verdicts ride the warm dual reentry,
// which is the common fast path when probing ever-tighter horizons.
//
// Only a proven StatusInfeasible counts as infeasible, exactly as the
// from-scratch admission test maps statuses: an unbounded relaxation (only
// possible once a caller installs an objective) still has feasible points.
func (cc *Compiled) RelaxationFeasible() (bool, error) {
	return cc.RelaxationFeasibleOpts(lp.SolveOptions{})
}

// RelaxationFeasibleOpts is RelaxationFeasible with per-call solve options
// (hybrid mode and cancellation channel).
func (cc *Compiled) RelaxationFeasibleOpts(opts lp.SolveOptions) (bool, error) {
	sol, err := cc.model.ResolveWith(opts)
	if err != nil {
		return false, err
	}
	if sol.Status == lp.StatusCanceled {
		return false, fmt.Errorf("contracts: %s relaxation solve abandoned: %w", cc.Contract.Name, lp.ErrCanceled)
	}
	return sol.Status != lp.StatusInfeasible, nil
}
