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
	build := func() *Problem {
		p := &Problem{}
		x := p.AddIntVar("x", big.NewRat(0, 1), big.NewRat(10, 1))
		y := p.AddIntVar("y", big.NewRat(0, 1), big.NewRat(10, 1))
		p.AddConstraint("sum", []Term{T(x, 1), T(y, 1)}, LE, big.NewRat(12, 1))
		p.SetObjective([]Term{T(x, 2), T(y, 3)}, true)
		return p
	}
	// "revised" solves through the retained Model, "dense" from scratch on
	// the dense oracle; both install bounds through installBounds.
	for _, sx := range []struct {
		name string
		lp   func(*Model) (*Solution, error)
		ilp  func(*Model) (*Solution, error)
	}{
		{"dense",
			func(mo *Model) (*Solution, error) { return denseLP(mo.Problem()) },
			func(mo *Model) (*Solution, error) { return denseILP(mo.Problem(), ILPOptions{}) }},
		{"revised",
			(*Model).Resolve,
			func(mo *Model) (*Solution, error) { return mo.ResolveILP(ILPOptions{}) }},
	} {
		t.Run(sx.name, func(t *testing.T) {
			aliased := NewModel(build())
			distinct := NewModel(build())

			fixed := big.NewRat(4, 1)
			aliased.SetBound(0, fixed, fixed) // one pointer, both ends
			distinct.SetBound(0, big.NewRat(4, 1), big.NewRat(4, 1))

			for _, mo := range []*Model{aliased, distinct} {
				sol, err := sx.lp(mo)
				if err != nil {
					t.Fatal(err)
				}
				if sol.Status != StatusOptimal {
					t.Fatalf("status %v", sol.Status)
				}
				if sol.Value(0).Cmp(fixed) != 0 {
					t.Fatalf("fixed variable drifted to %s", sol.Value(0))
				}
				// max 2x+3y s.t. x=4, x+y ≤ 12, y ≤ 10 → y=8, objective 32.
				if want := big.NewRat(32, 1); sol.Objective.Cmp(want) != 0 {
					t.Fatalf("objective %s, want %s", sol.Objective, want)
				}
				isol, err := sx.ilp(mo)
				if err != nil {
					t.Fatal(err)
				}
				if isol.Status != StatusOptimal || isol.Value(0).Cmp(fixed) != 0 {
					t.Fatalf("ILP: status %v x=%v", isol.Status, isol.Value(0))
				}
			}

			// Conflicting bounds (distinct pointers, lo > hi) still prove
			// infeasibility before any pivoting.
			conflicted := NewModel(build())
			conflicted.SetBound(0, big.NewRat(7, 1), big.NewRat(3, 1))
			sol, err := sx.lp(conflicted)
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status != StatusInfeasible {
				t.Fatalf("conflicting bounds: status %v", sol.Status)
			}
		})
	}
}
