package lp

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"
)

// sameSolution compares two solutions field by field with exact arithmetic.
func sameSolution(a, b *Solution) error {
	if a.Status != b.Status {
		return fmt.Errorf("status %v vs %v", a.Status, b.Status)
	}
	if len(a.Values) != len(b.Values) {
		return fmt.Errorf("value count %d vs %d", len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		if a.Values[i].Cmp(b.Values[i]) != 0 {
			return fmt.Errorf("value %d: %s vs %s", i, a.Values[i], b.Values[i])
		}
	}
	return nil
}

// randomEditProblem builds a small random problem in the shape the model
// layer serves: bounded integer variables and mixed-sense rows.
func randomEditProblem(rng *rand.Rand) *Problem {
	p := &Problem{}
	nVars := 2 + rng.Intn(3)
	for i := 0; i < nVars; i++ {
		p.AddIntVar(fmt.Sprintf("x%d", i), rat(0, 1), rat(int64(3+rng.Intn(4)), 1))
	}
	nCons := 1 + rng.Intn(4)
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
		p.AddConstraint(fmt.Sprintf("c%d", c), terms, sense, rat(int64(rng.Intn(13)-4), 1))
	}
	return p
}

// mutate applies one random edit to the model's problem p: a right-hand
// side through SetRHS, or variable bounds in p, which every solve reads.
func mutate(mo *Model, p *Problem, rng *rand.Rand) {
	switch rng.Intn(2) {
	case 0: // retarget a right-hand side
		mo.SetRHS(rng.Intn(len(p.Constraints)), rat(int64(rng.Intn(15)-5), 1))
	case 1: // move a variable's bounds, occasionally to a conflicting pair
		v := VarID(rng.Intn(len(p.Vars)))
		lo := int64(rng.Intn(5) - 1)
		hi := lo + int64(rng.Intn(6)-1) // sometimes hi < lo
		var loR, hiR *big.Rat
		if rng.Intn(5) > 0 {
			loR = rat(lo, 1)
		}
		if rng.Intn(5) > 0 {
			hiR = rat(hi, 1)
		}
		p.Vars[v].Lower, p.Vars[v].Upper = loR, hiR
	}
}

// Property: across randomized bound/RHS edit sequences, the model's
// retained-arena relaxations (resolveLP) and ResolveILP solves stay
// bit-identical to handing the edited Problem to a from-scratch solveLP /
// solveILP — statuses and values all equal, under both ILP engines.
func TestModelResolveBitIdenticalToScratch(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := randomEditProblem(rng)
		mo := NewModel(p)
		for step := 0; step < 8; step++ {
			if step > 0 {
				mutate(mo, p, rng)
			}
			switch rng.Intn(3) {
			case 0:
				got, err := resolveLP(mo)
				if err != nil {
					t.Logf("seed %d step %d: resolve: %v", seed, step, err)
					return false
				}
				want, err := solveLP(p)
				if err != nil {
					t.Logf("seed %d step %d: scratch: %v", seed, step, err)
					return false
				}
				if err := sameSolution(got, want); err != nil {
					t.Logf("seed %d step %d: LP diverged: %v", seed, step, err)
					return false
				}
			case 1, 2:
				engine := EngineExact
				if rng.Intn(2) == 0 {
					engine = EngineFloat
				}
				// Budget the search like every production caller does: edits
				// can produce unbounded integer-infeasible programs, where
				// pure branch and bound is exponential (DESIGN.md); the
				// deterministic work budget makes both sides stop at the
				// same StatusLimit instead of grinding.
				opts := ILPOptions{Engine: engine, MaxNodes: 5000, MaxWork: 2_000_000}
				got, err := mo.ResolveILP(opts)
				want, werr := solveILP(p, opts)
				if err != nil || werr != nil {
					// An edit can strip the last bound of an integer
					// variable; both sides must then reject the unbounded
					// domain with the same typed error.
					if errors.Is(err, ErrUnboundedIntDomain) && errors.Is(werr, ErrUnboundedIntDomain) {
						continue
					}
					t.Logf("seed %d step %d: resolveILP: %v / scratch ILP: %v", seed, step, err, werr)
					return false
				}
				if err := sameSolution(got, want); err != nil {
					t.Logf("seed %d step %d: ILP diverged: %v", seed, step, err)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// Re-solves must survive promotion: an RHS edit that overflows int64
// mid-model drops the rat64 arena and re-solves over big.Rat, still
// matching the from-scratch answer.
func TestModelPromotionKeepsParity(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", rat(0, 1), nil)
	y := p.AddVar("y", rat(0, 1), nil)
	p.AddConstraint("r0", []Term{T(x, 1), T(y, 1)}, LE, rat(10, 1))
	p.AddConstraint("r1", []Term{T(x, 1), T(y, -1)}, GE, rat(0, 1))
	p.AddConstraint("r2", []Term{T(x, 1)}, GE, rat(3, 1))
	mo := NewModel(p)
	if _, err := mo.ResolveILP(ILPOptions{}); err != nil {
		t.Fatal(err)
	}
	huge := new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 80), big.NewInt(3))
	mo.SetRHS(0, huge)
	mo.SetRHS(2, huge)
	got, err := mo.ResolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if mo.r64 != nil || !mo.promoted {
		t.Fatal("the edit did not promote the model to big.Rat")
	}
	want, err := solveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSolution(got, want); err != nil {
		t.Fatalf("post-promotion divergence: %v", err)
	}
}

// Structure growth behind the model's back (new variable + constraint) is
// detected and handled by a rebuild rather than a wrong answer.
func TestModelStructureGrowthRebuilds(t *testing.T) {
	p := &Problem{}
	x := p.AddVar("x", rat(0, 1), rat(5, 1))
	p.AddConstraint("r", []Term{T(x, 1)}, GE, rat(1, 1))
	mo := NewModel(p)
	if _, err := mo.ResolveILP(ILPOptions{}); err != nil {
		t.Fatal(err)
	}
	y := p.AddVar("y", rat(0, 1), rat(5, 1))
	p.AddConstraint("r2", []Term{T(x, 1), T(y, 1)}, GE, rat(4, 1))
	got, err := mo.ResolveILP(ILPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveLP(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSolution(got, want); err != nil {
		t.Fatalf("post-growth divergence: %v", err)
	}
}
