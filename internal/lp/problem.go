// Package lp is a self-contained linear and integer-linear feasibility
// solver used as the decision procedure behind the contract framework.
//
// The paper discharges flow-synthesis queries to the Z3 SMT solver; those
// queries are quantifier-free linear integer arithmetic feasibility problems
// (the paper notes the synthesis "is reducible to the Integer Linear
// Programming problem"). This package decides the same fragment, and only
// it: a problem has no objective, and a solve answers whether some point
// satisfies every row and bound, returning one if so. The relaxation runs a
// phase-1 primal simplex — in exact rational arithmetic (guaranteed
// termination through Bland's fallback) or in float64 with tolerances
// (fast path) — and a branch-and-bound wrapper adds integrality.
package lp

import (
	"fmt"
	"math/big"
	"strings"
)

// VarID identifies a decision variable within a Problem.
type VarID int

// Sense is the relational operator of a constraint.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // Σ terms ≤ rhs
	GE              // Σ terms ≥ rhs
	EQ              // Σ terms = rhs
)

func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	}
	return "?"
}

// Term is one coefficient–variable product in a linear expression.
type Term struct {
	Var  VarID
	Coef *big.Rat
}

// Var describes one decision variable.
type Var struct {
	Name    string
	Lower   *big.Rat // nil means -inf
	Upper   *big.Rat // nil means +inf
	Integer bool
}

// Constraint is a linear constraint Σ Coef·Var (Sense) RHS.
type Constraint struct {
	Name  string
	Terms []Term
	Sense Sense
	RHS   *big.Rat
}

// Problem is a linear (or mixed-integer linear) feasibility problem. The
// zero value is empty; add variables and constraints, then hand it to
// NewModel.
type Problem struct {
	Vars        []Var
	Constraints []Constraint
}

// AddVar declares a continuous variable with the given bounds (nil = ±inf)
// and returns its ID.
func (p *Problem) AddVar(name string, lower, upper *big.Rat) VarID {
	p.Vars = append(p.Vars, Var{Name: name, Lower: lower, Upper: upper})
	return VarID(len(p.Vars) - 1)
}

// AddIntVar declares an integer variable with the given bounds.
func (p *Problem) AddIntVar(name string, lower, upper *big.Rat) VarID {
	p.Vars = append(p.Vars, Var{Name: name, Lower: lower, Upper: upper, Integer: true})
	return VarID(len(p.Vars) - 1)
}

// AddConstraint appends a constraint and returns its index. Terms mentioning
// out-of-range variables cause a panic: that is a programming error, not an
// input error.
func (p *Problem) AddConstraint(name string, terms []Term, sense Sense, rhs *big.Rat) int {
	for _, t := range terms {
		if t.Var < 0 || int(t.Var) >= len(p.Vars) {
			panic(fmt.Sprintf("lp: constraint %q references unknown variable %d", name, t.Var))
		}
		if t.Coef == nil {
			panic(fmt.Sprintf("lp: constraint %q has nil coefficient", name))
		}
	}
	if rhs == nil {
		panic(fmt.Sprintf("lp: constraint %q has nil rhs", name))
	}
	p.Constraints = append(p.Constraints, Constraint{Name: name, Terms: terms, Sense: sense, RHS: rhs})
	return len(p.Constraints) - 1
}

// NumVars returns the number of declared variables.
func (p *Problem) NumVars() int { return len(p.Vars) }

// Status classifies the outcome of a solve.
type Status int

// Solve outcomes.
const (
	StatusOptimal    Status = iota // a satisfying assignment was found
	StatusInfeasible               // no assignment satisfies the constraints
	StatusLimit                    // ILP search hit its node or work budget before deciding
	StatusCanceled                 // solve abandoned: the cancellation channel fired
)

func (s Status) String() string {
	switch s {
	case StatusOptimal:
		return "optimal"
	case StatusInfeasible:
		return "infeasible"
	case StatusLimit:
		return "limit"
	case StatusCanceled:
		return "canceled"
	}
	return "unknown"
}

// Solution is the verdict of a solve and, with StatusOptimal, an
// assignment of rationals to every variable that satisfies the problem.
type Solution struct {
	Status Status
	Values []*big.Rat
}

// Value returns the assigned value of v.
func (s *Solution) Value(v VarID) *big.Rat { return s.Values[v] }

// Check verifies an assignment against every constraint and bound of p using
// exact arithmetic. It returns nil if the assignment is feasible; otherwise
// an error naming the first violated constraint. Integrality of integer
// variables is enforced.
func (p *Problem) Check(values []*big.Rat) error {
	if len(values) != len(p.Vars) {
		return fmt.Errorf("lp: %d values for %d variables", len(values), len(p.Vars))
	}
	for i, v := range p.Vars {
		x := values[i]
		if v.Lower != nil && x.Cmp(v.Lower) < 0 {
			return fmt.Errorf("lp: %s = %s below lower bound %s", v.Name, x, v.Lower)
		}
		if v.Upper != nil && x.Cmp(v.Upper) > 0 {
			return fmt.Errorf("lp: %s = %s above upper bound %s", v.Name, x, v.Upper)
		}
		if v.Integer && !x.IsInt() {
			return fmt.Errorf("lp: %s = %s is not integral", v.Name, x)
		}
	}
	for _, c := range p.Constraints {
		lhs := new(big.Rat)
		tmp := new(big.Rat)
		for _, t := range c.Terms {
			lhs.Add(lhs, tmp.Mul(t.Coef, values[t.Var]))
		}
		cmp := lhs.Cmp(c.RHS)
		ok := (c.Sense == LE && cmp <= 0) || (c.Sense == GE && cmp >= 0) || (c.Sense == EQ && cmp == 0)
		if !ok {
			return fmt.Errorf("lp: constraint %q violated: lhs=%s %s rhs=%s", c.Name, lhs, c.Sense, c.RHS)
		}
	}
	return nil
}

// String renders the problem in an LP-file-like format, useful in tests and
// error messages.
func (p *Problem) String() string {
	var b strings.Builder
	for _, c := range p.Constraints {
		fmt.Fprintf(&b, "%s:", c.Name)
		for _, t := range c.Terms {
			fmt.Fprintf(&b, " %s*%s", t.Coef.RatString(), p.Vars[t.Var].Name)
		}
		fmt.Fprintf(&b, " %s %s\n", c.Sense, c.RHS.RatString())
	}
	for _, v := range p.Vars {
		lo, hi := "-inf", "+inf"
		if v.Lower != nil {
			lo = v.Lower.RatString()
		}
		if v.Upper != nil {
			hi = v.Upper.RatString()
		}
		kind := "cont"
		if v.Integer {
			kind = "int"
		}
		fmt.Fprintf(&b, "%s in [%s, %s] %s\n", v.Name, lo, hi, kind)
	}
	return b.String()
}
