package contracts

import (
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/lp"
)

// randomContract builds a small contract over shared variable names a..c.
// Variables carry finite bounds so branch-and-bound always terminates
// (plain B&B cannot refute infeasibility over unbounded integers).
func randomContract(rng *rand.Rand, name string) *Contract {
	c := New(name)
	for i := 0; i < 3; i++ {
		_ = c.DeclareVar(VarSpec{
			Name:    varName(i),
			Lower:   big.NewRat(0, 1),
			Upper:   big.NewRat(20, 1),
			Integer: true,
		})
	}
	nA, nG := rng.Intn(3), rng.Intn(3)
	mk := func() Constraint {
		var terms []LinTerm
		for i := 0; i < 3; i++ {
			if coef := rng.Intn(5) - 2; coef != 0 {
				terms = append(terms, LT(int64(coef), varName(i)))
			}
		}
		if len(terms) == 0 {
			terms = append(terms, LT(1, varName(0)))
		}
		return CT("r", lp.Sense(rng.Intn(3)), int64(rng.Intn(15)-3), terms...)
	}
	for i := 0; i < nA; i++ {
		_ = c.Assume(mk())
	}
	for i := 0; i < nG; i++ {
		_ = c.Guarantee(mk())
	}
	return c
}

func varName(i int) string { return string(rune('a' + i)) }

// Property: composition and conjunction have the same satisfying set in
// this fragment (both are Ã ∧ G̃ over the same constraints), so
// ComposeAllFast and Conjoin of two random contracts agree on
// satisfiability, and an assignment of the composite satisfies the
// conjunction's problem.
func TestComposeFastEquisatisfiableProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c1 := randomContract(rng, "a")
		c2 := randomContract(rng, "b")
		conj, err := Conjoin(c1, c2)
		if err != nil {
			return false
		}
		fast, err := ComposeAllFast([]*Contract{c1, c2})
		if err != nil {
			return false
		}
		asnConj, err := conj.SatisfyOpts(exact)
		if err != nil {
			return false
		}
		asnFast, err := fast.SatisfyOpts(exact)
		if err != nil {
			return false
		}
		if (asnFast == nil) != (asnConj == nil) {
			return false
		}
		if asnFast != nil {
			p, idx := conj.ToProblem()
			vec := make([]*big.Rat, p.NumVars())
			for name, id := range idx {
				if v, ok := asnFast[name]; ok {
					vec[id] = v
				}
			}
			for i := range vec {
				if vec[i] == nil {
					return false // all variables are shared by construction
				}
			}
			if p.Check(vec) != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
