package lp

import (
	"math/big"
	"testing"
)

// TestBealeCyclingExample runs Beale's classic degenerate LP, on which
// Dantzig's rule cycles forever, as the feasibility query "its minimum is
// −1/20": the objective becomes a row, so phase 1 prices exactly Beale's
// objective through the degenerate vertex at the origin, and Bland's
// fallback must carry it out. The row at −1/20 is satisfiable; at −51/1000
// it is not.
//
//	-3/4 x4 + 150 x5 - 1/50 x6 + 6 x7 <= z
//	 1/4 x4 -  60 x5 - 1/25 x6 + 9 x7 <= 0
//	 1/2 x4 -  90 x5 - 1/50 x6 + 3 x7 <= 0
//	                                x6 <= 1
func TestBealeCyclingExample(t *testing.T) {
	build := func(z *big.Rat) *Problem {
		p := &Problem{}
		x4 := p.AddVar("x4", new(big.Rat), nil)
		x5 := p.AddVar("x5", new(big.Rat), nil)
		x6 := p.AddVar("x6", new(big.Rat), nil)
		x7 := p.AddVar("x7", new(big.Rat), nil)
		p.AddConstraint("r1", []Term{
			{x4, big.NewRat(1, 4)}, {x5, big.NewRat(-60, 1)}, {x6, big.NewRat(-1, 25)}, {x7, big.NewRat(9, 1)},
		}, LE, new(big.Rat))
		p.AddConstraint("r2", []Term{
			{x4, big.NewRat(1, 2)}, {x5, big.NewRat(-90, 1)}, {x6, big.NewRat(-1, 50)}, {x7, big.NewRat(3, 1)},
		}, LE, new(big.Rat))
		p.AddConstraint("r3", []Term{{x6, big.NewRat(1, 1)}}, LE, big.NewRat(1, 1))
		p.AddConstraint("obj", []Term{
			{x4, big.NewRat(-3, 4)}, {x5, big.NewRat(150, 1)}, {x6, big.NewRat(-1, 50)}, {x7, big.NewRat(6, 1)},
		}, LE, z)
		return p
	}
	p := build(big.NewRat(-1, 20))
	if err := p.Check(requireStatus(t, "at -1/20", solveLP, p, StatusOptimal).Values); err != nil {
		t.Error(err)
	}
	requireStatus(t, "at -51/1000", solveLP, build(big.NewRat(-51, 1000)), StatusInfeasible)
}

// TestKleeMintyCube: the n=3 Klee–Minty cube, worst case for Dantzig
// pivoting, asked whether 2^2 x1 + 2 x2 + x3 reaches its maximum 5^3 = 125
// (yes) or 126 (no), in both engines.
func TestKleeMintyCube(t *testing.T) {
	build := func(atLeast int64) *Problem {
		p := &Problem{}
		x1 := p.AddVar("x1", new(big.Rat), nil)
		x2 := p.AddVar("x2", new(big.Rat), nil)
		x3 := p.AddVar("x3", new(big.Rat), nil)
		p.AddConstraint("c1", []Term{T(x1, 1)}, LE, big.NewRat(5, 1))
		p.AddConstraint("c2", []Term{T(x1, 4), T(x2, 1)}, LE, big.NewRat(25, 1))
		p.AddConstraint("c3", []Term{T(x1, 8), T(x2, 4), T(x3, 1)}, LE, big.NewRat(125, 1))
		p.AddConstraint("obj", []Term{T(x1, 4), T(x2, 2), T(x3, 1)}, GE, big.NewRat(atLeast, 1))
		return p
	}
	for name, solve := range lpEngines {
		requireStatus(t, name+" at 125", solve, build(125), StatusOptimal)
		requireStatus(t, name+" at 126", solve, build(126), StatusInfeasible)
	}
}
