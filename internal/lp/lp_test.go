package lp

import (
	"math/big"
	"slices"
	"testing"
)

func rat(n, d int64) *big.Rat { return big.NewRat(n, d) }

// T builds a Term with an integer coefficient.
func T(v VarID, coef int64) Term { return Term{Var: v, Coef: big.NewRat(coef, 1)} }

// solveILP decides p by branch and bound on a fresh Model: the from-scratch
// solve the retained-Model tests hold ResolveILP to.
func solveILP(p *Problem, opts ILPOptions) (*Solution, error) { return NewModel(p).ResolveILP(opts) }

// addNat declares an integer variable over {0} ∪ N, the domain the paper
// gives every agent flow.
func addNat(p *Problem, name string) VarID { return p.AddIntVar(name, rat(0, 1), nil) }

// relaxation returns a copy of p with every integrality marker cleared.
// Branch and bound on it decides at the root node: one cold solve of p's
// continuous relaxation.
func relaxation(p *Problem) *Problem {
	q := &Problem{Vars: slices.Clone(p.Vars), Constraints: slices.Clone(p.Constraints)}
	for i := range q.Vars {
		q.Vars[i].Integer = false
	}
	return q
}

// solveLP decides p's continuous relaxation with the exact engine:
// ResolveILP on a fresh Model of its relaxation.
func solveLP(p *Problem) (*Solution, error) { return solveILP(relaxation(p), ILPOptions{}) }

// resolveLP decides the continuous relaxation of mo's problem in mo's
// retained exact arena: the one cold solve under the declared bounds that
// ResolveILP makes of the relaxation, with its rat64 → big.Rat promotion,
// which lets a test interleave relaxations with the Model's ILP solves.
func resolveLP(mo *Model) (*Solution, error) {
	mo.checkStructure()
	if !mo.promoted {
		var sol *Solution
		if promote(func() { sol = rootSolve[rat64](mo.arena64(), mo.p) }) {
			return sol, nil
		}
		mo.dropRat64()
	}
	return rootSolve[*big.Rat](mo.arenaBig(), mo.p), nil
}

// solveLPFloat decides p's continuous relaxation once on the float engine:
// the relaxation every EngineFloat branch-and-bound node solves, reported
// without the exact Check that ResolveILP makes of its point (a fractional
// float vertex seldom satisfies the rows exactly).
func solveLPFloat(p *Problem) (*Solution, error) {
	return rootSolve[float64](newRevisedFloat(p), p), nil
}

// rootSolve runs one cold solve in tb under p's declared bounds and reads
// the point off the arena.
func rootSolve[T any](tb arena[T], p *Problem) *Solution {
	tb.startSearch(0)
	lo, hi := declaredBounds(p)
	if st := tb.solveNode(lo, hi); st != StatusOptimal {
		return &Solution{Status: st}
	}
	values := make([]*big.Rat, len(p.Vars))
	for i := range values {
		values[i] = new(big.Rat)
	}
	tb.extractInto(values)
	return &Solution{Status: StatusOptimal, Values: values}
}

// declaredBounds returns the per-variable declared bounds of p, the bound
// vectors of a root solve.
func declaredBounds(p *Problem) (lo, hi []*big.Rat) {
	lo = make([]*big.Rat, len(p.Vars))
	hi = make([]*big.Rat, len(p.Vars))
	for i := range p.Vars {
		lo[i] = p.Vars[i].Lower
		hi[i] = p.Vars[i].Upper
	}
	return lo, hi
}

// lpEngines runs a relaxation through both engines.
var lpEngines = map[string]func(*Problem) (*Solution, error){"exact": solveLP, "float": solveLPFloat}

// requireStatus fails the test unless solve(p) reports want.
func requireStatus(t *testing.T, tag string, solve func(*Problem) (*Solution, error), p *Problem, want Status) *Solution {
	t.Helper()
	sol, err := solve(p)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if sol.Status != want {
		t.Fatalf("%s: status = %v, want %v", tag, sol.Status, want)
	}
	return sol
}

// TestSolveLPSimpleMax decides "max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6,
// x,y ≥ 0 is 12" the way a feasibility solver does: the system with
// 3x + 2y ≥ 12 added is satisfiable, and only at the vertex (4,0), while
// 3x + 2y ≥ 25/2 is not.
func TestSolveLPSimpleMax(t *testing.T) {
	build := func(atLeast *big.Rat) *Problem {
		p := &Problem{}
		x := p.AddVar("x", rat(0, 1), nil)
		y := p.AddVar("y", rat(0, 1), nil)
		p.AddConstraint("c1", []Term{T(x, 1), T(y, 1)}, LE, rat(4, 1))
		p.AddConstraint("c2", []Term{T(x, 1), T(y, 3)}, LE, rat(6, 1))
		p.AddConstraint("obj", []Term{T(x, 3), T(y, 2)}, GE, atLeast)
		return p
	}
	for name, solve := range lpEngines {
		requireStatus(t, name+" at 12", solve, build(rat(12, 1)), StatusOptimal)
		requireStatus(t, name+" at 25/2", solve, build(rat(25, 2)), StatusInfeasible)
	}
	sol := requireStatus(t, "exact at 12", solveLP, build(rat(12, 1)), StatusOptimal)
	if sol.Values[0].Cmp(rat(4, 1)) != 0 || sol.Values[1].Sign() != 0 {
		t.Errorf("(x,y) = (%s,%s), want (4,0)", sol.Values[0], sol.Values[1])
	}
}

// TestSolveLPFractionalOptimum: 2y ≤ 1 with y ≥ 1/2 pins the fractional
// vertex y = 1/2 exactly.
func TestSolveLPFractionalOptimum(t *testing.T) {
	p := &Problem{}
	y := p.AddVar("y", rat(0, 1), nil)
	p.AddConstraint("c", []Term{T(y, 2)}, LE, rat(1, 1))
	p.AddConstraint("lo", []Term{T(y, 1)}, GE, rat(1, 2))
	sol := requireStatus(t, "exact", solveLP, p, StatusOptimal)
	if sol.Values[y].Cmp(rat(1, 2)) != 0 {
		t.Errorf("y = %s, want 1/2", sol.Values[y])
	}
}

func TestSolveLPInfeasible(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", rat(0, 1), nil)
	p.AddConstraint("lo", []Term{T(x, 1)}, GE, rat(5, 1))
	p.AddConstraint("hi", []Term{T(x, 1)}, LE, rat(3, 1))
	for name, solve := range lpEngines {
		requireStatus(t, name, solve, p, StatusInfeasible)
	}
}

// TestSolveLPUnbounded: an unbounded feasible region is a feasible one.
// The relaxation returns a point of it, in both engines.
func TestSolveLPUnbounded(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", rat(0, 1), nil)
	y := p.AddVar("y", nil, nil)
	p.AddConstraint("c", []Term{T(x, 1), T(y, -1)}, GE, rat(5, 1))
	for name, solve := range lpEngines {
		requireStatus(t, name, solve, p, StatusOptimal)
	}
	if err := p.Check(requireStatus(t, "exact", solveLP, p, StatusOptimal).Values); err != nil {
		t.Error(err)
	}
}

func TestSolveLPEqualityAndNegativeRHS(t *testing.T) {
	// x - y = -2, x + y = 4  -> x=1, y=3.
	p := &Problem{}
	x := p.AddVar("x", rat(0, 1), nil)
	y := p.AddVar("y", rat(0, 1), nil)
	p.AddConstraint("e1", []Term{T(x, 1), T(y, -1)}, EQ, rat(-2, 1))
	p.AddConstraint("e2", []Term{T(x, 1), T(y, 1)}, EQ, rat(4, 1))
	sol, err := solveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Values[x].Cmp(rat(1, 1)) != 0 || sol.Values[y].Cmp(rat(3, 1)) != 0 {
		t.Errorf("(x,y) = (%s,%s), want (1,3)", sol.Values[x], sol.Values[y])
	}
}

// TestSolveLPFreeVariable: a free variable must move below zero when a row
// demands it (x ≤ −7 with x declared free lands on the vertex x = −7).
func TestSolveLPFreeVariable(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", nil, nil)
	p.AddConstraint("c", []Term{T(x, 1)}, LE, rat(-7, 1))
	sol := requireStatus(t, "exact", solveLP, p, StatusOptimal)
	if sol.Values[x].Cmp(rat(-7, 1)) != 0 {
		t.Errorf("x = %s, want -7", sol.Values[x])
	}
}

// TestSolveLPBounds: declared bounds hold without rows, and a row pressing
// against either bound lands exactly on it.
func TestSolveLPBounds(t *testing.T) {
	for _, tc := range []struct {
		sense Sense
		rhs   int64
	}{{GE, 5}, {LE, 2}} {
		p := &Problem{}
		x := p.AddVar("x", rat(2, 1), rat(5, 1))
		p.AddConstraint("c", []Term{T(x, 1)}, tc.sense, rat(tc.rhs, 1))
		sol := requireStatus(t, "exact", solveLP, p, StatusOptimal)
		if sol.Values[x].Cmp(rat(tc.rhs, 1)) != 0 {
			t.Errorf("x %s %d: x = %s, want %d", tc.sense, tc.rhs, sol.Values[x], tc.rhs)
		}
	}
}

func TestSolveLPFixedVariable(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", rat(3, 1), rat(3, 1))
	y := p.AddVar("y", rat(0, 1), nil)
	p.AddConstraint("c", []Term{T(x, 1), T(y, 1)}, EQ, rat(10, 1))
	sol, err := solveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Values[x].Cmp(rat(3, 1)) != 0 || sol.Values[y].Cmp(rat(7, 1)) != 0 {
		t.Errorf("(x,y) = (%s,%s), want (3,7)", sol.Values[x], sol.Values[y])
	}
}

func TestSolveLPContradictoryBounds(t *testing.T) {
	p := &Problem{}
	p.AddVar("x", rat(5, 1), rat(3, 1))
	sol, err := solveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

// TestSolveILPKnapsack decides the Wolsey-style 0/1 knapsack "max 8a + 11b
// + 6c + 4d s.t. 5a + 7b + 4c + 3d ≤ 14 is 21" as two feasibility queries:
// value ≥ 21 is satisfiable (by {b, c, d}; the LP relaxation is fractional),
// value ≥ 22 is not.
func TestSolveILPKnapsack(t *testing.T) {
	build := func(atLeast int64) *Problem {
		p := &Problem{}
		a := p.AddIntVar("a", rat(0, 1), rat(1, 1))
		b := p.AddIntVar("b", rat(0, 1), rat(1, 1))
		c := p.AddIntVar("c", rat(0, 1), rat(1, 1))
		d := p.AddIntVar("d", rat(0, 1), rat(1, 1))
		p.AddConstraint("wt", []Term{T(a, 5), T(b, 7), T(c, 4), T(d, 3)}, LE, rat(14, 1))
		p.AddConstraint("value", []Term{T(a, 8), T(b, 11), T(c, 6), T(d, 4)}, GE, rat(atLeast, 1))
		return p
	}
	for _, engine := range []Engine{EngineExact, EngineFloat} {
		p := build(21)
		sol, err := solveILP(p, ILPOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusOptimal {
			t.Fatalf("engine %v: status = %v", engine, sol.Status)
		}
		if err := p.Check(sol.Values); err != nil {
			t.Errorf("engine %v: solution fails exact check: %v", engine, err)
		}
		sol, err = solveILP(build(22), ILPOptions{Engine: engine})
		if err != nil {
			t.Fatal(err)
		}
		if sol.Status != StatusInfeasible {
			t.Errorf("engine %v: value ≥ 22: status = %v, want infeasible", engine, sol.Status)
		}
	}
}

func TestSolveILPFeasibilityFirstSolution(t *testing.T) {
	// Pure feasibility: 3x + 5y = 22, x,y in N -> (4,2) or (... only (4,2)).
	p := &Problem{}
	x := addNat(p, "x")
	y := addNat(p, "y")
	p.AddConstraint("c", []Term{T(x, 3), T(y, 5)}, EQ, rat(22, 1))
	sol, err := solveILP(p, ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusOptimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if err := p.Check(sol.Values); err != nil {
		t.Errorf("solution invalid: %v", err)
	}
	got := new(big.Rat).Add(new(big.Rat).Mul(rat(3, 1), sol.Values[x]), new(big.Rat).Mul(rat(5, 1), sol.Values[y]))
	if got.Cmp(rat(22, 1)) != 0 {
		t.Errorf("3x+5y = %s, want 22", got)
	}
}

func TestSolveILPInfeasible(t *testing.T) {
	// 2x + 4y = 7 has no integer solution (parity).
	p := &Problem{}
	x := addNat(p, "x")
	y := addNat(p, "y")
	p.AddConstraint("c", []Term{T(x, 2), T(y, 4)}, EQ, rat(7, 1))
	p.AddConstraint("boundX", []Term{T(x, 1)}, LE, rat(10, 1))
	p.AddConstraint("boundY", []Term{T(y, 1)}, LE, rat(10, 1))
	sol, err := solveILP(p, ILPOptions{Engine: EngineExact})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveILPNodeLimit(t *testing.T) {
	p := &Problem{}
	vars := make([]VarID, 12)
	terms := make([]Term, 12)
	for i := range vars {
		vars[i] = p.AddIntVar("x", rat(0, 1), rat(1, 1))
		terms[i] = T(vars[i], int64(2*i+3))
	}
	// An equality unlikely to be hit immediately forces branching.
	p.AddConstraint("c", terms, EQ, rat(1, 1)) // infeasible: min positive term is 3
	sol, err := solveILP(p, ILPOptions{Engine: EngineExact, MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit && sol.Status != StatusInfeasible {
		t.Errorf("status = %v, want limit or infeasible", sol.Status)
	}
}

func TestCheckRejects(t *testing.T) {
	p := &Problem{}
	x := p.AddIntVar("x", rat(0, 1), rat(5, 1))
	p.AddConstraint("c", []Term{T(x, 2)}, LE, rat(6, 1))
	cases := []struct {
		name string
		vals []*big.Rat
	}{
		{"tooFew", nil},
		{"belowLower", []*big.Rat{rat(-1, 1)}},
		{"aboveUpper", []*big.Rat{rat(6, 1)}},
		{"fractional", []*big.Rat{rat(1, 2)}},
		{"violates", []*big.Rat{rat(4, 1)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := p.Check(tc.vals); err == nil {
				t.Error("Check accepted invalid assignment")
			}
		})
	}
	if err := p.Check([]*big.Rat{rat(3, 1)}); err != nil {
		t.Errorf("Check rejected valid assignment: %v", err)
	}
}

func TestRatFloorAndRound(t *testing.T) {
	cases := []struct {
		in         *big.Rat
		floor, rnd int64
	}{
		{rat(7, 2), 3, 4},    // 3.5
		{rat(-7, 2), -4, -3}, // -3.5 rounds to -3 (floor -4 + frac 1/2 -> up)
		{rat(5, 1), 5, 5},
		{rat(-5, 1), -5, -5},
		{rat(1, 3), 0, 0},
		{rat(-1, 3), -1, 0},
	}
	for _, tc := range cases {
		if got := ratFloor(tc.in); got.Cmp(rat(tc.floor, 1)) != 0 {
			t.Errorf("ratFloor(%s) = %s, want %d", tc.in, got, tc.floor)
		}
		if got := ratRound(tc.in); got.Cmp(rat(tc.rnd, 1)) != 0 {
			t.Errorf("ratRound(%s) = %s, want %d", tc.in, got, tc.rnd)
		}
	}
}

func TestProblemString(t *testing.T) {
	p := &Problem{}
	x := addNat(p, "x")
	p.AddConstraint("c", []Term{T(x, 2)}, LE, rat(6, 1))
	s := p.String()
	for _, want := range []string{"c:", "2*x", "<= 6", "x in [0, +inf] int"} {
		if !contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
