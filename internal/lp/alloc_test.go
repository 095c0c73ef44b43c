package lp

import (
	"math/big"
	"testing"
)

// parityProblem builds a deliberately branchy feasibility ILP: Σ 2·x_i over
// 0/1 variables can never equal an odd RHS, so branch and bound explores
// nodes until MaxNodes with a deterministic node count, which lets the test
// below measure the marginal allocation cost of one node.
func parityProblem(nVars int) *Problem {
	p := &Problem{}
	terms := make([]Term, nVars)
	for i := 0; i < nVars; i++ {
		v := p.AddIntVar("x", big.NewRat(0, 1), big.NewRat(1, 1))
		terms[i] = T(v, 2)
	}
	p.AddConstraint("odd", terms, EQ, big.NewRat(int64(nVars+nVars%2+1), 1))
	return p
}

// TestSolveILPNodeAllocations pins the branch-and-bound allocation regime
// for both engines: with the bound diff chain replacing per-node bound
// clones, one warm arena replacing per-node standardization, eta storage
// reused across refactorizations and integral bounds converted to float64
// without big.Rat.Float64, visiting one more node must cost O(1)
// allocations (a diff node, the two branch bounds, a few rationals) — NOT
// O(vars) clones or conversions, or an O(m·n) tableau rebuild, which is
// what the seed implementation paid per node. EngineFloat is the default
// contract synthesis engine (flow.synthesisILPOptions).
func TestSolveILPNodeAllocations(t *testing.T) {
	const nVars = 48
	for _, eng := range []struct {
		name string
		e    Engine
	}{{"exact", EngineExact}, {"float", EngineFloat}} {
		t.Run(eng.name, func(t *testing.T) {
			perNode := func(p *Problem) float64 {
				run := func(maxNodes int) float64 {
					return testing.AllocsPerRun(5, func() {
						sol, err := solveILP(p, ILPOptions{Engine: eng.e, MaxNodes: maxNodes})
						if err != nil {
							t.Fatal(err)
						}
						if sol.Status != StatusLimit {
							t.Fatalf("status = %v, want limit", sol.Status)
						}
					})
				}
				few, many := run(8), run(208)
				t.Logf("%d vars: %0.0f allocs @ 8 nodes, %0.0f @ 208 nodes", len(p.Vars), few, many)
				return (many - few) / 200
			}
			// The seed implementation re-standardized each node: ≥ m·n
			// tableau cells plus four bound-slice clones, i.e. thousands of
			// allocations per node at this size. The warm arena needs only
			// the node bookkeeping.
			if n := perNode(parityProblem(nVars)); n > 40 {
				t.Errorf("per-node allocations = %0.1f, want O(1) (≤ 40): bound diff chain, arena or eta slabs regressed", n)
			}
			// And the node bookkeeping must not scale with the variable count.
			if n := perNode(parityProblem(4 * nVars)); n > 40 {
				t.Errorf("per-node allocations at 4x vars = %0.1f, want O(1) (≤ 40)", n)
			}
		})
	}
}
