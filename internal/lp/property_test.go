package lp

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// bruteFeasible enumerates all integer points in [0,ub]^n and reports
// whether any satisfies the constraints.
func bruteFeasible(p *Problem, ub int) bool {
	n := len(p.Vars)
	point := make([]*big.Rat, n)
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == n {
			return p.Check(point) == nil
		}
		for v := 0; v <= ub; v++ {
			point[i] = big.NewRat(int64(v), 1)
			if rec(i + 1) {
				return true
			}
		}
		return false
	}
	return rec(0)
}

// Property: solveILP agrees with brute-force enumeration on feasibility of
// random small integer programs, and any solution it returns passes Check.
func TestSolveILPMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const ub = 4
		nVars := 2 + rng.Intn(2)
		p := &Problem{}
		for i := 0; i < nVars; i++ {
			p.AddIntVar("x", rat(0, 1), rat(ub, 1))
		}
		nCons := 1 + rng.Intn(3)
		for c := 0; c < nCons; c++ {
			var terms []Term
			for i := 0; i < nVars; i++ {
				coef := int64(rng.Intn(7) - 3)
				if coef != 0 {
					terms = append(terms, T(VarID(i), coef))
				}
			}
			if len(terms) == 0 {
				terms = append(terms, T(0, 1))
			}
			sense := []Sense{LE, GE, EQ}[rng.Intn(3)]
			rhs := int64(rng.Intn(13) - 4)
			p.AddConstraint("c", terms, sense, rat(rhs, 1))
		}
		for _, engine := range []Engine{EngineExact, EngineFloat} {
			sol, err := solveILP(p, ILPOptions{Engine: engine})
			if err != nil {
				return false
			}
			want := bruteFeasible(p, ub)
			switch sol.Status {
			case StatusOptimal:
				if !want {
					return false // found a solution where none exists
				}
				if p.Check(sol.Values) != nil {
					return false // returned an invalid solution
				}
			case StatusInfeasible:
				// The float engine may (rarely) misreport feasible systems as
				// infeasible due to rounding; the exact engine must not.
				if want && engine == EngineExact {
					return false
				}
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: the LP relaxation bounds the integer optimum. Asked as
// feasibility queries, for random 2-variable knapsacks and any threshold
// t, if some integral point reaches value ≥ t then so does a rational one,
// and an ILP "yes" comes with a point the exact Check accepts.
func TestSolveLPBoundsIntegerOptimum(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := &Problem{}
		n := 2
		for i := 0; i < n; i++ {
			p.AddIntVar("x", rat(0, 1), rat(5, 1))
		}
		var value []Term
		for i := 0; i < n; i++ {
			value = append(value, T(VarID(i), int64(1+rng.Intn(5))))
		}
		p.AddConstraint("cap", []Term{T(0, 1), T(1, 1)}, LE, rat(int64(2+rng.Intn(6)), 1))
		p.AddConstraint("value", value, GE, rat(int64(rng.Intn(40)), 2))

		relax, err := solveLP(p)
		if err != nil {
			return false
		}
		ilp, err := solveILP(p, ILPOptions{Engine: EngineExact})
		if err != nil {
			return false
		}
		if ilp.Status == StatusOptimal {
			return relax.Status == StatusOptimal && p.Check(ilp.Values) == nil
		}
		return ilp.Status == StatusInfeasible
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
