// Package contracts implements a small assume–guarantee (A/G) contract
// algebra over linear integer arithmetic, standing in for the CHASE
// requirement-engineering framework the paper uses (§II-B, [8]).
//
// A contract C̃ = (V, Ã, G̃) has a set of named integer/rational variables V,
// a set of assumptions Ã (linear constraints the environment must satisfy)
// and a set of guarantees G̃ (linear constraints the component promises when
// the assumptions hold). Contracts combine by composition (⊗) — describing
// the system formed by wiring components together — and conjunction (∧)
// — combining the requirements of two contracts on one component.
//
// The one semantic question the synthesis of §IV-D asks is satisfiability:
// does an integral assignment satisfy Ã ∧ G̃ of the composed component
// contracts conjoined with the workload contract? The ILP solver in
// internal/lp decides it, over the same quantifier-free linear-integer
// fragment the paper discharges to Z3. Entailment and refinement are not
// implemented: no synthesis step asks them.
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

// ComposeAllFast returns ⊗ cs, the contract of the system built from all
// the components, mirroring the paper's C̃TS := ⊗ C̃i over the traffic
// system. It keeps every assumption and every guarantee rather than
// discharging the assumptions one component's guarantees entail: the
// satisfying set Ã ∧ G̃, the only thing synthesis asks about, is the same
// either way, and discharge would cost one solve per assumption.
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

// SatisfyOpts searches for an assignment satisfying Ã ∧ G̃ under the given
// solver options and returns nil (no error) if the contract is
// unsatisfiable. The options set the engine and the node and work budgets:
// contract conjunctions in the integer-rate regime can be feasible in
// rationals yet integrally infeasible, and pure branch and bound may need
// an exponential tree to prove that; budgets turn such searches into a
// bounded "undecided" error instead of an unbounded grind.
func (c *Contract) SatisfyOpts(opts lp.ILPOptions) (Assignment, error) {
	return c.Compile().Satisfy(opts)
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
