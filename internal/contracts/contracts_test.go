package contracts

import (
	"math/big"
	"testing"

	"repro/internal/lp"
)

func nat(c *Contract, t *testing.T, names ...string) {
	t.Helper()
	for _, n := range names {
		if err := c.DeclareVar(NatSpec(n)); err != nil {
			t.Fatal(err)
		}
	}
}

// exact selects the exact engine for SatisfyOpts.
var exact = lp.ILPOptions{Engine: lp.EngineExact}

func mustAssume(t *testing.T, c *Contract, con Constraint) {
	t.Helper()
	if err := c.Assume(con); err != nil {
		t.Fatal(err)
	}
}

func mustGuarantee(t *testing.T, c *Contract, con Constraint) {
	t.Helper()
	if err := c.Guarantee(con); err != nil {
		t.Fatal(err)
	}
}

func TestDeclareVarConflict(t *testing.T) {
	c := New("c")
	nat(c, t, "x")
	if err := c.DeclareVar(NatSpec("x")); err != nil {
		t.Errorf("re-declaring identical spec failed: %v", err)
	}
	if err := c.DeclareVar(VarSpec{Name: "x", Integer: false}); err == nil {
		t.Error("conflicting re-declaration accepted")
	}
}

func TestAssumeRejectsUndeclared(t *testing.T) {
	c := New("c")
	if err := c.Assume(CT("a", lp.LE, 1, LT(1, "ghost"))); err == nil {
		t.Error("assumption over undeclared variable accepted")
	}
	if err := c.Guarantee(CT("g", lp.LE, 1, LT(1, "ghost"))); err == nil {
		t.Error("guarantee over undeclared variable accepted")
	}
}

func TestSatisfyFindsAssignment(t *testing.T) {
	// x + y <= 4 (assumption), x >= 1, y >= 2 (guarantees).
	c := New("c")
	nat(c, t, "x", "y")
	mustAssume(t, c, CT("cap", lp.LE, 4, LT(1, "x"), LT(1, "y")))
	mustGuarantee(t, c, CT("gx", lp.GE, 1, LT(1, "x")))
	mustGuarantee(t, c, CT("gy", lp.GE, 2, LT(1, "y")))
	asn, err := c.SatisfyOpts(exact)
	if err != nil {
		t.Fatal(err)
	}
	if asn == nil {
		t.Fatal("satisfiable contract reported unsatisfiable")
	}
	sum := new(big.Rat).Add(asn["x"], asn["y"])
	if sum.Cmp(big.NewRat(4, 1)) > 0 {
		t.Errorf("assignment violates assumption: x+y = %s", sum)
	}
	if asn["x"].Cmp(big.NewRat(1, 1)) < 0 || asn["y"].Cmp(big.NewRat(2, 1)) < 0 {
		t.Errorf("assignment violates guarantees: %v", asn)
	}
}

func TestSatisfyUnsat(t *testing.T) {
	c := New("c")
	nat(c, t, "x")
	mustAssume(t, c, CT("lo", lp.GE, 5, LT(1, "x")))
	mustGuarantee(t, c, CT("hi", lp.LE, 3, LT(1, "x")))
	asn, err := c.SatisfyOpts(exact)
	if err != nil {
		t.Fatal(err)
	}
	if asn != nil {
		t.Errorf("unsatisfiable contract returned %v", asn)
	}
}

// ComposeAllFast keeps every assumption, including one the peer's
// guarantees already entail (inflow ≤ 2 entails inflow ≤ 3): it does not
// discharge, so the composite's satisfying set is exactly Ã ∧ G̃.
func TestComposeKeepsUndischargedAssumptions(t *testing.T) {
	c1 := New("consumer")
	nat(c1, t, "inflow")
	mustAssume(t, c1, CT("a", lp.LE, 3, LT(1, "inflow")))
	c2 := New("producer")
	nat(c2, t, "inflow")
	mustGuarantee(t, c2, CT("g", lp.LE, 2, LT(1, "inflow")))

	comp, err := ComposeAllFast([]*Contract{c1, c2})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Assumptions) != 1 || len(comp.Guarantees) != 1 {
		t.Errorf("assumptions %v, guarantees %v: want each kept", comp.Assumptions, comp.Guarantees)
	}
	if len(comp.Vars) != 1 {
		t.Errorf("vars = %v, want the shared inflow once", comp.Vars)
	}
}

func TestComposeAll(t *testing.T) {
	if _, err := ComposeAllFast(nil); err == nil {
		t.Error("ComposeAllFast(nil) succeeded")
	}
	var cs []*Contract
	for i := 0; i < 3; i++ {
		c := New("c")
		nat(c, t, "x")
		mustAssume(t, c, CT("a", lp.GE, int64(i), LT(1, "x")))
		mustGuarantee(t, c, CT("g", lp.LE, int64(10+i), LT(1, "x")))
		cs = append(cs, c)
	}
	comp, err := ComposeAllFast(cs)
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Assumptions) != 3 || len(comp.Guarantees) != 3 {
		t.Errorf("assumptions = %d, guarantees = %d, want 3 and 3", len(comp.Assumptions), len(comp.Guarantees))
	}
	asn, err := comp.SatisfyOpts(exact)
	if err != nil {
		t.Fatal(err)
	}
	if asn == nil || asn["x"].Cmp(big.NewRat(2, 1)) < 0 || asn["x"].Cmp(big.NewRat(10, 1)) > 0 {
		t.Errorf("composite assignment %v, want x in [2,10]", asn)
	}
}

func TestConjoin(t *testing.T) {
	c1 := New("ts")
	nat(c1, t, "f")
	mustGuarantee(t, c1, CT("cap", lp.LE, 7, LT(1, "f")))
	c2 := New("workload")
	nat(c2, t, "f")
	mustGuarantee(t, c2, CT("demand", lp.GE, 5, LT(1, "f")))
	conj, err := Conjoin(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	asn, err := conj.SatisfyOpts(exact)
	if err != nil {
		t.Fatal(err)
	}
	if asn == nil {
		t.Fatal("conjunction unsatisfiable")
	}
	f := asn["f"]
	if f.Cmp(big.NewRat(5, 1)) < 0 || f.Cmp(big.NewRat(7, 1)) > 0 {
		t.Errorf("f = %s outside [5,7]", f)
	}
}

func TestConjoinConflictingVarSpecs(t *testing.T) {
	c1 := New("a")
	nat(c1, t, "x")
	c2 := New("b")
	if err := c2.DeclareVar(VarSpec{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	if _, err := Conjoin(c1, c2); err == nil {
		t.Error("conjoin with conflicting specs succeeded")
	}
	if _, err := ComposeAllFast([]*Contract{c1, c2}); err == nil {
		t.Error("compose with conflicting specs succeeded")
	}
}

func TestContractString(t *testing.T) {
	c := New("demo")
	nat(c, t, "x")
	mustAssume(t, c, CT("a", lp.LE, 3, LT(1, "x")))
	mustGuarantee(t, c, CT("g", lp.GE, 1, LT(2, "x")))
	s := c.String()
	for _, want := range []string{"contract demo", "assume a:", "guarantee g:", "1*x <= 3", "2*x >= 1"} {
		if !containsStr(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestToProblemDeterministicOrder(t *testing.T) {
	c := New("c")
	nat(c, t, "b", "a", "c")
	p, idx := c.ToProblem()
	if p.NumVars() != 3 {
		t.Fatalf("NumVars = %d", p.NumVars())
	}
	if idx["a"] != 0 || idx["b"] != 1 || idx["c"] != 2 {
		t.Errorf("variable order not sorted: %v", idx)
	}
}
