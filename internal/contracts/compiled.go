package contracts

import (
	"fmt"
	"math/big"

	"repro/internal/lp"
)

// Compiled pairs a contract's one-time ILP compilation with a persistent
// solver model, for callers that re-solve the same contract system under
// edited right-hand sides: horizon refinement probes, lifelong epochs, and
// design-sweep evaluations all differ from their predecessor only in a
// handful of numbers, not in structure.
//
// The compilation (variable ordering, constraint ordering, coefficients) is
// frozen at Compile time; Satisfy and RelaxationFeasibleOpts answers are
// bit-identical to re-compiling the edited contract and solving it from
// scratch, because lp.Model re-solves cold inside its retained arena.
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
// model. It is the one-time counterpart of ToProblem + lp.NewModel.
//
// Constraint names are the edit handles, so a name shared by several rows
// is poisoned rather than silently resolved to the first occurrence:
// editing through it would retarget one row and leave its twins stale,
// breaking the bit-identity-with-recompile guarantee without a trace. (The
// flow compiler emits unique names; this guards the public seam.)
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

// Row resolves a constraint name to its row index, the handle SetRHSAt
// edits through. Names shared by several rows do not resolve.
func (cc *Compiled) Row(name string) (int, bool) {
	i, ok := cc.rows[name]
	return i, ok && i >= 0
}

// SetRHSAt retargets the right-hand side of row (from Row) for the next
// solve.
func (cc *Compiled) SetRHSAt(row int, rhs *big.Rat) {
	cc.model.SetRHS(row, rhs)
}

// Satisfy searches for a satisfying assignment of the edited system. It
// returns nil (no error) if the system is unsatisfiable; Contract.SatisfyOpts
// is this on a fresh compilation.
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

// RelaxationFeasibleOpts decides the continuous relaxation of the edited
// system with the exact engine under the given solve options (the
// cancellation channel) — the incremental counterpart of the admission
// test's SolveLPWith call, with the same answer and work: a cold solve in
// the retained arena, which saves only the arena build.
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
