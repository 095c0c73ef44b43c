package contracts

import (
	"math/big"
	"testing"

	"repro/internal/lp"
)

// editable builds a small contract with the shapes the pipeline edits:
// a capacity assumption, a conservation guarantee, and a demand guarantee.
func editable(t *testing.T) *Contract {
	t.Helper()
	c := New("editable")
	for _, v := range []string{"a", "b", "c"} {
		if err := c.DeclareVar(NatSpec(v)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Assume(CT("cap", lp.LE, 6, LT(1, "a"), LT(1, "b"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Guarantee(CT("cons", lp.EQ, 0, LT(1, "a"), LT(-1, "c"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Guarantee(CT("demand", lp.GE, 3, LT(1, "c"))); err != nil {
		t.Fatal(err)
	}
	return c
}

// setRHS retargets the named row through Row and SetRHSAt.
func setRHS(t *testing.T, cc *Compiled, name string, rhs *big.Rat) {
	t.Helper()
	row, ok := cc.Row(name)
	if !ok {
		t.Fatalf("no row %q", name)
	}
	cc.SetRHSAt(row, rhs)
}

// Compiled edits must track a from-scratch solve of the equivalently edited
// contract: Satisfy after SetRHSAt is bit-identical to SatisfyOpts on a
// rebuilt contract, feasible and infeasible alike.
func TestCompiledEditsMatchScratch(t *testing.T) {
	cc := editable(t).Compile()
	opts := lp.ILPOptions{Engine: lp.EngineExact}
	// The capacity assumption a + b ≤ 6 with a = c caps the demand at 6.
	for _, demand := range []int64{3, 5, 9, 2, 6, 7} {
		setRHS(t, cc, "demand", big.NewRat(demand, 1))
		got, err := cc.Satisfy(opts)
		if err != nil {
			t.Fatalf("demand=%d: %v", demand, err)
		}
		scratch := editable(t)
		scratch.Guarantees[1].RHS = big.NewRat(demand, 1)
		want, err := scratch.SatisfyOpts(opts)
		if err != nil {
			t.Fatalf("demand=%d scratch: %v", demand, err)
		}
		if (got == nil) != (want == nil) || (want == nil) != (demand > 6) {
			t.Fatalf("demand=%d: compiled sat=%v, scratch sat=%v", demand, got != nil, want != nil)
		}
		for name, v := range want {
			if got[name].Cmp(v) != 0 {
				t.Errorf("demand=%d: %s = %s, scratch %s", demand, name, got[name], v)
			}
		}
		// Over the naturals the relaxation of this system is feasible
		// exactly when the ILP is.
		feasible, err := cc.RelaxationFeasibleOpts(lp.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if feasible != (want != nil) {
			t.Errorf("demand=%d: relaxation feasible=%v, ILP sat=%v", demand, feasible, want != nil)
		}
	}
}

// A name shared by several rows is an ambiguous edit handle: it must not
// resolve to a row, so no edit can retarget only the first one.
func TestCompiledRejectsDuplicateNameEdits(t *testing.T) {
	c := New("dup")
	if err := c.DeclareVar(NatSpec("a")); err != nil {
		t.Fatal(err)
	}
	if err := c.Guarantee(CT("g", lp.LE, 5, LT(1, "a"))); err != nil {
		t.Fatal(err)
	}
	if err := c.Guarantee(CT("g", lp.GE, 1, LT(1, "a"))); err != nil {
		t.Fatal(err)
	}
	cc := c.Compile()
	if _, ok := cc.Row("g"); ok {
		t.Error("duplicated constraint name resolved to a single row")
	}
	// Solving the untouched system still works.
	if _, err := cc.Satisfy(lp.ILPOptions{Engine: lp.EngineExact}); err != nil {
		t.Fatal(err)
	}
}

func TestCompiledRejectsUnknownNames(t *testing.T) {
	cc := editable(t).Compile()
	if _, ok := cc.Row("cap"); !ok {
		t.Error("known constraint not found")
	}
	if _, ok := cc.Row("nope"); ok {
		t.Error("unknown constraint resolved to a row")
	}
}
