package lp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// This file pins the partial-pricing float engine to the exact one: the
// float engine's answers are approximate, so it must reach the exact
// status and an optimal objective within float tolerance.

// TestFloatRevisedPartialLP sanity-checks the partial-pricing float engine
// against the exact optimum: same status and an objective within float
// tolerance, on contract-shaped networks and on the small bounded LPs the
// parity tests use.
func TestFloatRevisedPartialLP(t *testing.T) {
	check := func(tag string, p *Problem) {
		t.Helper()
		exact, err := SolveLP(p)
		if err != nil {
			t.Fatalf("%s: exact: %v", tag, err)
		}
		fl, err := SolveLPFloat(p)
		if err != nil {
			t.Fatalf("%s: float: %v", tag, err)
		}
		requireFloatAgrees(t, tag, exact, fl)
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
// TestFloatRevisedPartialLP: EngineFloat must reach EngineExact's status
// and optimal objective on the parity tests' small bounded ILPs.
func TestFloatRevisedPartialILP(t *testing.T) {
	for seed := 0; seed < parityRounds(t, 200); seed++ {
		p := randomBoundedProblem(rand.New(rand.NewSource(int64(seed))), true)
		tag := fmt.Sprintf("ILP seed %d", seed)
		exact, err := SolveILP(p, ILPOptions{Engine: EngineExact})
		if err != nil {
			t.Fatalf("%s: exact: %v", tag, err)
		}
		fl, err := SolveILP(p, ILPOptions{Engine: EngineFloat})
		if err != nil {
			t.Fatalf("%s: float: %v", tag, err)
		}
		requireFloatAgrees(t, tag, exact, fl)
	}
}

// requireFloatAgrees fails the test unless a float solve reports the exact
// solve's status and, at an optimum, its objective within a relative 1e-6.
func requireFloatAgrees(t *testing.T, tag string, exact, fl *Solution) {
	t.Helper()
	if exact.Status != fl.Status {
		t.Fatalf("%s: status exact=%v float=%v", tag, exact.Status, fl.Status)
	}
	if exact.Status != StatusOptimal || exact.Objective == nil {
		return
	}
	want, _ := exact.Objective.Float64()
	got, _ := fl.Objective.Float64()
	if math.Abs(want-got) > 1e-6*math.Max(1, math.Abs(want)) {
		t.Fatalf("%s: objective exact=%g float=%g", tag, want, got)
	}
}
