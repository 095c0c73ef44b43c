// Package contracts implements a small assume–guarantee (A/G) contract
// algebra over linear integer arithmetic, standing in for the CHASE
// requirement-engineering framework the paper uses (§II-B, [8]).
//
// A contract C̃ = (V, Ã, G̃) has a set of named integer/rational variables V,
// a set of assumptions Ã (linear constraints the environment must satisfy)
// and a set of guarantees G̃ (linear constraints the component promises when
// the assumptions hold). Contracts combine by composition (⊗) — describing
// the system formed by wiring two components together — and conjunction (∧)
// — combining the requirements of two contracts on one component.
//
// The decision procedure behind every semantic operation (satisfiability,
// entailment, refinement) is the exact ILP solver in internal/lp, which
// decides the same quantifier-free linear-integer fragment the paper
// discharges to Z3.
package contracts

import (
	"fmt"
	"math/big"
	"sort"
	"strings"

	"repro/internal/lp"
)

// VarSpec declares one contract variable.
type VarSpec struct {
	Name    string
	Lower   *big.Rat // nil = -inf
	Upper   *big.Rat // nil = +inf
	Integer bool
}

// NatSpec returns the declaration of an integer variable over {0} ∪ N, the
// domain the paper assigns every agent flow.
func NatSpec(name string) VarSpec {
	return VarSpec{Name: name, Lower: new(big.Rat), Integer: true}
}

// LinTerm is one coefficient–variable product, referencing the variable by
// name so constraints are meaningful across contracts.
type LinTerm struct {
	Coef *big.Rat
	Var  string
}

// Constraint is the linear predicate  Σ Terms  (Sense)  RHS.
type Constraint struct {
	Name  string
	Terms []LinTerm
	Sense lp.Sense
	RHS   *big.Rat
}

// CT builds a constraint from integer coefficients; a convenience for the
// flow-contract compiler and tests.
func CT(name string, sense lp.Sense, rhs int64, terms ...LinTerm) Constraint {
	return Constraint{Name: name, Terms: terms, Sense: sense, RHS: big.NewRat(rhs, 1)}
}

// LT builds a term with an integer coefficient.
func LT(coef int64, v string) LinTerm { return LinTerm{Coef: big.NewRat(coef, 1), Var: v} }

// Contract is an A/G contract over named variables.
type Contract struct {
	Name        string
	Vars        map[string]VarSpec
	Assumptions []Constraint
	Guarantees  []Constraint
}

// New creates an empty contract.
func New(name string) *Contract {
	return &Contract{Name: name, Vars: make(map[string]VarSpec)}
}

// DeclareVar adds (or re-asserts) a variable. Re-declaring with a different
// spec is an error: shared variables must agree across contracts.
func (c *Contract) DeclareVar(v VarSpec) error {
	if prev, ok := c.Vars[v.Name]; ok {
		if !specEqual(prev, v) {
			return fmt.Errorf("contracts: variable %q re-declared with different spec", v.Name)
		}
		return nil
	}
	c.Vars[v.Name] = v
	return nil
}

func specEqual(a, b VarSpec) bool {
	return a.Name == b.Name && a.Integer == b.Integer && ratEq(a.Lower, b.Lower) && ratEq(a.Upper, b.Upper)
}

func ratEq(a, b *big.Rat) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

// Assume appends an assumption. Variables mentioned must be declared.
func (c *Contract) Assume(con Constraint) error {
	if err := c.checkVars(con); err != nil {
		return err
	}
	c.Assumptions = append(c.Assumptions, con)
	return nil
}

// Guarantee appends a guarantee. Variables mentioned must be declared.
func (c *Contract) Guarantee(con Constraint) error {
	if err := c.checkVars(con); err != nil {
		return err
	}
	c.Guarantees = append(c.Guarantees, con)
	return nil
}

func (c *Contract) checkVars(con Constraint) error {
	for _, t := range con.Terms {
		if _, ok := c.Vars[t.Var]; !ok {
			return fmt.Errorf("contracts: constraint %q references undeclared variable %q", con.Name, t.Var)
		}
	}
	return nil
}

// mergeVars unions variable declarations, requiring agreement on shared ones.
func mergeVars(dst map[string]VarSpec, srcs ...map[string]VarSpec) error {
	for _, src := range srcs {
		for name, spec := range src {
			if prev, ok := dst[name]; ok {
				if !specEqual(prev, spec) {
					return fmt.Errorf("contracts: conflicting declarations for shared variable %q", name)
				}
				continue
			}
			dst[name] = spec
		}
	}
	return nil
}

// Compose returns c1 ⊗ c2, the contract of the system built from the two
// components. In the conjunctive linear fragment used here the composite
// guarantees are G1 ∧ G2; the composite assumptions start as A1 ∧ A2 and
// each assumption already entailed by the other component's guarantees is
// discharged (dropped), the standard saturation-free approximation of the
// contract algebra's quotient.
func Compose(c1, c2 *Contract) (*Contract, error) {
	out := New(c1.Name + "⊗" + c2.Name)
	if err := mergeVars(out.Vars, c1.Vars, c2.Vars); err != nil {
		return nil, err
	}
	out.Guarantees = append(append([]Constraint(nil), c1.Guarantees...), c2.Guarantees...)
	// Discharge assumptions entailed by the peer's guarantees.
	for _, pair := range []struct {
		own  *Contract
		peer *Contract
	}{{c1, c2}, {c2, c1}} {
		for _, a := range pair.own.Assumptions {
			entailed, err := entails(out.Vars, pair.peer.Guarantees, a)
			if err != nil {
				return nil, err
			}
			if !entailed {
				out.Assumptions = append(out.Assumptions, a)
			}
		}
	}
	return out, nil
}

// ComposeAll folds Compose over a list of contracts, mirroring the paper's
// C̃TS := ⊗ C̃i over all traffic-system components. Assumption discharge runs
// one entailment query per assumption; for large systems prefer
// ComposeAllFast.
func ComposeAll(cs []*Contract) (*Contract, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("contracts: nothing to compose")
	}
	acc := cs[0]
	var err error
	for _, c := range cs[1:] {
		acc, err = Compose(acc, c)
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// ComposeAllFast composes contracts without assumption discharge: the result
// keeps every assumption and every guarantee. Its satisfying set (Ã ∧ G̃) is
// identical to ComposeAll's, so synthesis over the composite is unaffected;
// only the assume/guarantee split is coarser.
func ComposeAllFast(cs []*Contract) (*Contract, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("contracts: nothing to compose")
	}
	out := New("⊗composite")
	for _, c := range cs {
		if err := mergeVars(out.Vars, c.Vars); err != nil {
			return nil, err
		}
		out.Assumptions = append(out.Assumptions, c.Assumptions...)
		out.Guarantees = append(out.Guarantees, c.Guarantees...)
	}
	return out, nil
}

// Conjoin returns c1 ∧ c2: a single component must satisfy both contracts,
// so assumptions and guarantees are both conjoined. This is the operation
// Fig. 3 applies between the traffic-system contract and the workload
// contract before synthesis.
func Conjoin(c1, c2 *Contract) (*Contract, error) {
	out := New(c1.Name + "∧" + c2.Name)
	if err := mergeVars(out.Vars, c1.Vars, c2.Vars); err != nil {
		return nil, err
	}
	out.Assumptions = append(append([]Constraint(nil), c1.Assumptions...), c2.Assumptions...)
	out.Guarantees = append(append([]Constraint(nil), c1.Guarantees...), c2.Guarantees...)
	return out, nil
}

// ToProblem compiles the conjunction of the contract's assumptions and
// guarantees into an ILP feasibility problem. The returned index maps
// variable names to problem variables.
func (c *Contract) ToProblem() (*lp.Problem, map[string]lp.VarID) {
	return compile(c.Vars, append(append([]Constraint(nil), c.Assumptions...), c.Guarantees...))
}

func compile(vars map[string]VarSpec, cons []Constraint) (*lp.Problem, map[string]lp.VarID) {
	p := &lp.Problem{}
	index := make(map[string]lp.VarID, len(vars))
	names := make([]string, 0, len(vars))
	for name := range vars {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic variable order
	for _, name := range names {
		spec := vars[name]
		if spec.Integer {
			index[name] = p.AddIntVar(name, spec.Lower, spec.Upper)
		} else {
			index[name] = p.AddVar(name, spec.Lower, spec.Upper)
		}
	}
	for _, con := range cons {
		terms := make([]lp.Term, len(con.Terms))
		for i, t := range con.Terms {
			terms[i] = lp.Term{Var: index[t.Var], Coef: t.Coef}
		}
		p.AddConstraint(con.Name, terms, con.Sense, con.RHS)
	}
	return p, index
}

// Assignment maps variable names to exact rational values.
type Assignment map[string]*big.Rat

// Satisfy searches for an assignment satisfying Ã ∧ G̃ with the given solver
// engine. It returns nil (no error) if the contract is unsatisfiable.
func (c *Contract) Satisfy(engine lp.Engine) (Assignment, error) {
	return c.SatisfyOpts(lp.ILPOptions{Engine: engine})
}

// SatisfyOpts is Satisfy with explicit solver options, letting callers set
// node and pivot budgets. Contract conjunctions in the integer-rate regime
// can be feasible in rationals yet integrally infeasible, and pure branch
// and bound may need an exponential tree to prove that; budgets turn such
// searches into a bounded "undecided" error instead of an unbounded grind.
func (c *Contract) SatisfyOpts(opts lp.ILPOptions) (Assignment, error) {
	return c.Compile().Satisfy(opts)
}

// Consistent reports whether the guarantees alone are satisfiable.
func (c *Contract) Consistent(engine lp.Engine) (bool, error) {
	p, _ := compile(c.Vars, c.Guarantees)
	return feasible(p, engine)
}

// Compatible reports whether the assumptions alone are satisfiable.
func (c *Contract) Compatible(engine lp.Engine) (bool, error) {
	p, _ := compile(c.Vars, c.Assumptions)
	return feasible(p, engine)
}

func feasible(p *lp.Problem, engine lp.Engine) (bool, error) {
	sol, err := lp.SolveILP(p, lp.ILPOptions{Engine: engine})
	if err != nil {
		return false, err
	}
	return sol.Status == lp.StatusOptimal, nil
}

// Refines reports whether c1 ≼ c2 (c1 refines c2): c1 assumes no more than
// c2 (every assumption of c1 is entailed by c2's assumptions) and guarantees
// no less (every guarantee of c2 is entailed by c1's guarantees conjoined
// with c2's assumptions).
func Refines(c1, c2 *Contract) (bool, error) {
	vars := make(map[string]VarSpec)
	if err := mergeVars(vars, c1.Vars, c2.Vars); err != nil {
		return false, err
	}
	for _, a := range c1.Assumptions {
		ok, err := entails(vars, c2.Assumptions, a)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	premise := append(append([]Constraint(nil), c1.Guarantees...), c2.Assumptions...)
	for _, g := range c2.Guarantees {
		ok, err := entails(vars, premise, g)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// entails decides premise ⊨ goal over the declared variables by optimizing
// the goal's left-hand side subject to the premise: for "lhs ≤ rhs" the goal
// is entailed iff max lhs ≤ rhs (and symmetrically for ≥; equalities check
// both directions). An infeasible premise entails everything. The premise
// system is compiled once and reused across both directions of an equality
// goal — the solver treats the Problem as read-only, so only the objective
// sense changes between the two solves.
func entails(vars map[string]VarSpec, premise []Constraint, goal Constraint) (bool, error) {
	p, index := compile(vars, premise)
	terms := make([]lp.Term, len(goal.Terms))
	for i, t := range goal.Terms {
		terms[i] = lp.Term{Var: index[t.Var], Coef: t.Coef}
	}
	if len(terms) == 0 {
		// A term-free goal is the constant predicate 0 (Sense) RHS. Deciding
		// it through the optimizer would build a pure feasibility problem
		// whose Solution carries a nil Objective — and dereferencing that
		// was a crash on this path. Decide the constant directly; a false
		// constant is still entailed by an infeasible premise (vacuously).
		zero := new(big.Rat)
		cmp := zero.Cmp(goal.RHS)
		holds := (goal.Sense == lp.LE && cmp <= 0) || (goal.Sense == lp.GE && cmp >= 0) || (goal.Sense == lp.EQ && cmp == 0)
		if holds {
			return true, nil
		}
		sol, err := lp.SolveILP(p, lp.ILPOptions{Engine: lp.EngineExact})
		if err != nil {
			return false, err
		}
		return sol.Status == lp.StatusInfeasible, nil
	}
	dir := func(maximize bool) (bool, error) {
		p.SetObjective(terms, maximize)
		sol, err := lp.SolveILP(p, lp.ILPOptions{Engine: lp.EngineExact})
		if err != nil {
			return false, err
		}
		switch sol.Status {
		case lp.StatusInfeasible:
			return true, nil // vacuous entailment
		case lp.StatusUnbounded:
			return false, nil
		case lp.StatusOptimal:
			if maximize {
				return sol.Objective.Cmp(goal.RHS) <= 0, nil
			}
			return sol.Objective.Cmp(goal.RHS) >= 0, nil
		}
		return false, fmt.Errorf("contracts: entailment solver returned %v", sol.Status)
	}
	switch goal.Sense {
	case lp.LE:
		return dir(true)
	case lp.GE:
		return dir(false)
	case lp.EQ:
		le, err := dir(true)
		if err != nil || !le {
			return false, err
		}
		return dir(false)
	}
	return false, fmt.Errorf("contracts: unknown sense %v", goal.Sense)
}

// String renders the contract for debugging.
func (c *Contract) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "contract %s\n", c.Name)
	names := make([]string, 0, len(c.Vars))
	for n := range c.Vars {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(&b, "  vars: %s\n", strings.Join(names, ", "))
	for _, a := range c.Assumptions {
		fmt.Fprintf(&b, "  assume %s\n", renderConstraint(a))
	}
	for _, g := range c.Guarantees {
		fmt.Fprintf(&b, "  guarantee %s\n", renderConstraint(g))
	}
	return b.String()
}

func renderConstraint(c Constraint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", c.Name)
	for _, t := range c.Terms {
		fmt.Fprintf(&b, " %s*%s", t.Coef.RatString(), t.Var)
	}
	fmt.Fprintf(&b, " %s %s", c.Sense, c.RHS.RatString())
	return b.String()
}
