package lp

import (
	"math/big"
	"testing"
)

// TestSetBoundAliasedFixed pins the bound-installation contract: bounds are
// compared by VALUE, so passing the same *big.Rat pointer as both lo and hi
// (the natural way to fix a variable) behaves exactly like passing two
// distinct pointers with equal values. An earlier revision short-circuited
// the lo>hi conflict check on pointer equality, which made the aliased and
// non-aliased spellings take different code paths.
func TestSetBoundAliasedFixed(t *testing.T) {
	// x + y ≤ 12 and 2x + 3y ≥ 32 with x fixed at 4 leave exactly y = 8.
	build := func() *Problem {
		p := &Problem{}
		x := p.AddIntVar("x", big.NewRat(0, 1), big.NewRat(10, 1))
		y := p.AddIntVar("y", big.NewRat(0, 1), big.NewRat(10, 1))
		p.AddConstraint("sum", []Term{T(x, 1), T(y, 1)}, LE, big.NewRat(12, 1))
		p.AddConstraint("value", []Term{T(x, 2), T(y, 3)}, GE, big.NewRat(32, 1))
		return p
	}
	// "revised" solves through a retained Model, "dense" from scratch on
	// the dense oracle; both install bounds through installBounds.
	for _, sx := range []struct {
		name string
		lp   func(*Model, *Problem) (*Solution, error)
		ilp  func(*Model, *Problem) (*Solution, error)
	}{
		{"dense",
			func(_ *Model, p *Problem) (*Solution, error) { return denseLP(p) },
			func(_ *Model, p *Problem) (*Solution, error) { return denseILP(p, ILPOptions{}) }},
		{"revised",
			func(mo *Model, _ *Problem) (*Solution, error) { return mo.ResolveWith(SolveOptions{}) },
			func(mo *Model, _ *Problem) (*Solution, error) { return mo.ResolveILP(ILPOptions{}) }},
	} {
		t.Run(sx.name, func(t *testing.T) {
			aliased, distinct := build(), build()
			fixed := big.NewRat(4, 1)
			aliased.Vars[0].Lower, aliased.Vars[0].Upper = fixed, fixed // one pointer, both ends
			distinct.Vars[0].Lower, distinct.Vars[0].Upper = big.NewRat(4, 1), big.NewRat(4, 1)

			for _, p := range []*Problem{aliased, distinct} {
				mo := NewModel(p)
				sol, err := sx.lp(mo, p)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != StatusOptimal {
					t.Fatalf("status %v", sol.Status)
				}
				if sol.Value(0).Cmp(fixed) != 0 {
					t.Fatalf("fixed variable drifted to %s", sol.Value(0))
				}
				if want := big.NewRat(8, 1); sol.Value(1).Cmp(want) != 0 {
					t.Fatalf("y = %s, want %s", sol.Value(1), want)
				}
				isol, err := sx.ilp(mo, p)
				if err != nil {
					t.Fatal(err)
				}
				if isol.Status != StatusOptimal || isol.Value(0).Cmp(fixed) != 0 {
					t.Fatalf("ILP: status %v x=%v", isol.Status, isol.Value(0))
				}
			}

			// Conflicting bounds (distinct pointers, lo > hi) still prove
			// infeasibility before any pivoting.
			conflicted := build()
			conflicted.Vars[0].Lower, conflicted.Vars[0].Upper = big.NewRat(7, 1), big.NewRat(3, 1)
			sol, err := sx.lp(NewModel(conflicted), conflicted)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != StatusInfeasible {
				t.Fatalf("conflicting bounds: status %v", sol.Status)
			}
		})
	}
}
