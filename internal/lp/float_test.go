package lp

import (
	"fmt"
	"math/rand"
	"testing"
)

// This file pins the partial-pricing float engine to the exact one: the
// float engine's answers are approximate, so it must reach the exact
// verdict, and an integral point it returns must pass the exact Check.

// TestFloatRevisedPartialLP sanity-checks the partial-pricing float
// relaxation against the exact one: the same verdict on contract-shaped
// networks and on the small bounded LPs the parity tests use.
func TestFloatRevisedPartialLP(t *testing.T) {
	check := func(tag string, p *Problem) {
		t.Helper()
		exact, err := solveLP(p)
		if err != nil {
			t.Fatalf("%s: exact: %v", tag, err)
		}
		fl, err := solveLPFloat(p)
		if err != nil {
			t.Fatalf("%s: float: %v", tag, err)
		}
		if exact.Status != fl.Status {
			t.Fatalf("%s: status exact=%v float=%v", tag, exact.Status, fl.Status)
		}
	}
	rounds := parityRounds(t, 40)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(12000 + seed)))
		check(fmt.Sprintf("network seed %d", seed), randomSparseNetwork(rng, 12+rng.Intn(6), 4+rng.Intn(3), false))
	}
	for seed := 0; seed < parityRounds(t, 400); seed++ {
		check(fmt.Sprintf("bounded seed %d", seed), randomBoundedProblem(rand.New(rand.NewSource(int64(seed))), false))
	}
}

// TestFloatRevisedPartialILP is the branch-and-bound twin of
// TestFloatRevisedPartialLP: EngineFloat must reach EngineExact's verdict
// on the parity tests' small bounded ILPs, with a point that passes Check.
func TestFloatRevisedPartialILP(t *testing.T) {
	for seed := 0; seed < parityRounds(t, 200); seed++ {
		p := randomBoundedProblem(rand.New(rand.NewSource(int64(seed))), true)
		tag := fmt.Sprintf("ILP seed %d", seed)
		exact, err := solveILP(p, ILPOptions{Engine: EngineExact})
		if err != nil {
			t.Fatalf("%s: exact: %v", tag, err)
		}
		fl, err := solveILP(p, ILPOptions{Engine: EngineFloat})
		if err != nil {
			t.Fatalf("%s: float: %v", tag, err)
		}
		if exact.Status != fl.Status {
			t.Fatalf("%s: status exact=%v float=%v", tag, exact.Status, fl.Status)
		}
		if fl.Status == StatusOptimal {
			if err := p.Check(fl.Values); err != nil {
				t.Fatalf("%s: float point: %v", tag, err)
			}
		}
	}
}
