package lp

// Tests for the a-priori integer box (intbox.go) and the in-search
// open-march guard (search.go) — together the fix for the historical
// non-termination of branch and bound on one-sided integer domains
// (edit-corpus seed 1376).

import (
	"errors"
	"math/big"
	"testing"
)

// boxBounds materializes the derived chain over the declared bounds.
func boxBounds(t *testing.T, p *Problem) (lo, hi []*big.Rat) {
	t.Helper()
	chain := integerBox(p)
	if chain == nil {
		t.Fatal("expected a derived bound chain")
	}
	lo = make([]*big.Rat, len(p.Vars))
	hi = make([]*big.Rat, len(p.Vars))
	chain.materialize(p, lo, hi, nil)
	return lo, hi
}

// Fully boxed problems must take the nil fast path: their searches replay
// bit for bit as before the box existed.
func TestIntegerBoxFastPath(t *testing.T) {
	p := &Problem{}
	p.AddIntVar("x", rat(0, 1), rat(5, 1))
	p.AddVar("y", nil, nil) // open continuous vars don't need a box
	if integerBox(p) != nil {
		t.Fatal("fully boxed integers: want nil chain")
	}
}

// Natural-number flow variables under a capacity row — the shape every compiled
// contract emits — get their implied upper bounds, floored to integrality.
func TestIntegerBoxCapacityRow(t *testing.T) {
	p := &Problem{}
	x := addNat(p, "x")
	y := addNat(p, "y")
	p.AddConstraint("cap", []Term{T(x, 1), T(y, 2)}, LE, rat(7, 1))
	_, hi := boxBounds(t, p)
	if hi[x] == nil || hi[x].Cmp(rat(7, 1)) != 0 {
		t.Errorf("hi[x] = %v, want 7", hi[x])
	}
	if hi[y] == nil || hi[y].Cmp(rat(3, 1)) != 0 { // ⌊7/2⌋
		t.Errorf("hi[y] = %v, want 3", hi[y])
	}
}

// A GE row with finite partner bounds implies a lower bound, ceiled to
// integrality; an EQ row implies both sides.
func TestIntegerBoxSenses(t *testing.T) {
	p := &Problem{}
	x := p.AddIntVar("x", nil, nil)
	y := p.AddIntVar("y", rat(0, 1), rat(3, 1))
	p.AddConstraint("ge", []Term{T(x, 2), T(y, 1)}, GE, rat(3, 1))
	z := p.AddIntVar("z", nil, nil)
	p.AddConstraint("eq", []Term{T(z, 2)}, EQ, rat(6, 1))
	lo, hi := boxBounds(t, p)
	if lo[x] == nil || lo[x].Cmp(rat(0, 1)) != 0 { // ⌈(3−3)/2⌉
		t.Errorf("lo[x] = %v, want 0", lo[x])
	}
	if lo[z] == nil || lo[z].Cmp(rat(3, 1)) != 0 {
		t.Errorf("lo[z] = %v, want 3", lo[z])
	}
	if hi[z] == nil || hi[z].Cmp(rat(3, 1)) != 0 {
		t.Errorf("hi[z] = %v, want 3", hi[z])
	}
}

// Derived bounds are implied by the constraints, so installing the box
// never changes the answer: with x + y ≤ 6 over the naturals, the box
// x, y ≤ 6 still admits the extreme point y = 6 that 2x + 3y ≥ 18 needs,
// and 2x + 3y ≥ 19 stays infeasible.
func TestIntegerBoxPreservesOptimum(t *testing.T) {
	build := func(atLeast int64) *Problem {
		p := &Problem{}
		x := addNat(p, "x")
		y := addNat(p, "y")
		p.AddConstraint("cap", []Term{T(x, 1), T(y, 1)}, LE, rat(6, 1))
		p.AddConstraint("value", []Term{T(x, 2), T(y, 3)}, GE, rat(atLeast, 1))
		return p
	}
	for _, cfg := range engineConfigs() {
		p := build(18)
		sol, err := solveILP(p, cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.tag, err)
		}
		if sol.Status != StatusOptimal || sol.Values[0].Sign() != 0 || sol.Values[1].Cmp(rat(6, 1)) != 0 {
			t.Fatalf("%s: got %v %v, want (0, 6)", cfg.tag, sol.Status, sol.Values)
		}
		sol, err = solveILP(build(19), cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.tag, err)
		}
		if sol.Status != StatusInfeasible {
			t.Fatalf("%s: value ≥ 19: status %v, want infeasible", cfg.tag, sol.Status)
		}
	}
}

// Values past int64 must promote the whole propagation to the big.Rat
// path (mirroring the simplex engines) and still derive the right bound.
func TestIntegerBoxPromotesOnOverflow(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 80))
	p := &Problem{}
	x := addNat(p, "x")
	p.AddConstraint("cap", []Term{T(x, 1)}, LE, huge)
	_, hi := boxBounds(t, p)
	if hi[x] == nil || hi[x].Cmp(huge) != 0 {
		t.Errorf("hi[x] = %v, want 2^80", hi[x])
	}
}

// Both arithmetics are exact, so on any instance they must derive the
// identical chain — the promotion fallback can never change the box.
func TestIntegerBoxArithAgreement(t *testing.T) {
	p := &Problem{}
	x := addNat(p, "x")
	y := addNat(p, "y")
	z := p.AddIntVar("z", nil, nil)
	p.AddConstraint("cap", []Term{T(x, 3), T(y, 2)}, LE, rat(17, 3))
	p.AddConstraint("link", []Term{T(z, 2), T(x, -1)}, EQ, rat(5, 2))
	fast := boxPropagate[rat64, rat64Arith](p, rat64Arith{})
	slow := boxPropagate[*big.Rat, ratArith](p, ratArith{})
	if fast == nil || slow == nil {
		t.Fatalf("expected chains from both paths, got %v / %v", fast, slow)
	}
	nv := len(p.Vars)
	flo, fhi := make([]*big.Rat, nv), make([]*big.Rat, nv)
	slo, shi := make([]*big.Rat, nv), make([]*big.Rat, nv)
	fast.materialize(p, flo, fhi, nil)
	slow.materialize(p, slo, shi, nil)
	for i := 0; i < nv; i++ {
		if (flo[i] == nil) != (slo[i] == nil) || (flo[i] != nil && flo[i].Cmp(slo[i]) != 0) {
			t.Errorf("var %d: lo %v (rat64) vs %v (big.Rat)", i, flo[i], slo[i])
		}
		if (fhi[i] == nil) != (shi[i] == nil) || (fhi[i] != nil && fhi[i].Cmp(shi[i]) != 0) {
			t.Errorf("var %d: hi %v (rat64) vs %v (big.Rat)", i, fhi[i], shi[i])
		}
	}
}

// The pathological shape: LP-feasible at every depth (x = y + 1/2),
// integer-infeasible, and no upper bound derivable for either variable.
// The open-march guard must reject it with the typed error — identically
// across engines and representations, and through the fenced task loop
// exactly as through the oracle — instead of hanging.
func TestOpenMarchGuardRejectsUnboundedDomain(t *testing.T) {
	lowFence(t, 3)
	p := &Problem{}
	x := addNat(p, "x")
	y := addNat(p, "y")
	p.AddConstraint("gap", []Term{T(x, 2), T(y, -2)}, EQ, rat(1, 1))
	if integerBox(p) != nil {
		// Neither upper side is derivable (each needs the other's); the box
		// must leave them open for the guard rather than inventing bounds.
		t.Fatal("expected no derivable bounds")
	}
	for _, cfg := range engineConfigs() {
		_, err := solveILP(p, cfg.opts)
		if !errors.Is(err, ErrUnboundedIntDomain) {
			t.Fatalf("%s: err = %v, want ErrUnboundedIntDomain", cfg.tag, err)
		}
		requireOracle(t, cfg.tag, p, cfg.opts)
	}
}

// Solves that decide before branching runs away must NOT be rejected: an
// open domain with an unbounded feasible region (2x ≥ 3 over the naturals;
// no upper bound is derivable) branches once into its open side and
// returns the integral point x = 2.
func TestOpenDomainUnboundedRelaxationStillDecides(t *testing.T) {
	p := &Problem{}
	x := addNat(p, "x")
	p.AddConstraint("lo", []Term{T(x, 2)}, GE, rat(3, 1))
	if integerBox(p) != nil {
		t.Fatal("expected no derivable bounds")
	}
	for _, cfg := range engineConfigs() {
		sol, err := solveILP(p, cfg.opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.tag, err)
		}
		if sol.Status != StatusOptimal || sol.Values[x].Cmp(rat(2, 1)) != 0 {
			t.Fatalf("%s: status %v values %v, want x = 2", cfg.tag, sol.Status, sol.Values)
		}
	}
}
