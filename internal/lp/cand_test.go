package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// This file holds the revised engine's candidate list (revised.cand) and
// its fixed-range cache (revised.fixed) to their definitions. Whenever the
// engine marks the list valid, it must list exactly the columns below
// artStart that are nonbasic and whose range is not fixed, in ascending
// order — recomputed here from stat and the bound arrays, not from the
// cache — and every cached flag must equal the bound expression it caches.

// requireCandidates checks rv's cache and, when the list is marked valid,
// the list; it reports whether the list was valid.
func requireCandidates[T any, A arith[T]](t *testing.T, tag string, rv *revised[T, A]) bool {
	t.Helper()
	var want []int32
	for j := 0; j < rv.artStart; j++ {
		fixed := rv.loF[j] && rv.hiF[j] && rv.ar.cmp(rv.lo[j], rv.hi[j]) == 0
		if rv.fixed[j] != fixed {
			t.Fatalf("%s: fixed[%d] = %v, bounds say %v", tag, j, rv.fixed[j], fixed)
		}
		if rv.stat[j] != inBasis && !fixed {
			want = append(want, int32(j))
		}
	}
	if !rv.candOK {
		return false
	}
	if !slices.Equal(rv.cand, want) {
		t.Fatalf("%s: candidate list %v, recomputed %v", tag, rv.cand, want)
	}
	return true
}

// branchStep moves lo/hi one branch-and-bound step: back to the declared
// bounds (a backtrack), or one variable's range cut as a child node does.
func branchStep(rng *rand.Rand, p *Problem, lo, hi []*big.Rat) {
	if rng.Intn(6) == 0 {
		for i := range p.Vars {
			lo[i], hi[i] = p.Vars[i].Lower, p.Vars[i].Upper
		}
		return
	}
	v := rng.Intn(len(p.Vars))
	lo[v], hi[v] = cutRange(rng, lo[v], hi[v])
}

// cutRange cuts the range [lo, hi] at an integer — down, up or fixed —
// sometimes just outside the range, which makes the bounds conflict.
func cutRange(rng *rand.Rand, lo, hi *big.Rat) (*big.Rat, *big.Rat) {
	c := int64(rng.Intn(9) - 4)
	if lo != nil && hi != nil {
		l, _ := lo.Float64()
		h, _ := hi.Float64()
		c = int64(l) - 1 + rng.Int63n(max(int64(h-l)+3, 1))
	}
	b := big.NewRat(c, 1)
	switch rng.Intn(3) {
	case 0:
		return lo, b
	case 1:
		return b, hi
	}
	return b, b
}

// branchWalk drives a fresh search through solveNode over a random
// sequence of branch-style bound vectors, checking after every node, and
// returns how many checks found the list valid.
func branchWalk[T any, A arith[T]](t *testing.T, tag string, rng *rand.Rand, rv *revised[T, A], steps int) int {
	lo, hi := declaredBounds(rv.p)
	rv.startSearch(0)
	valid := 0
	for s := 0; s < steps; s++ {
		branchStep(rng, rv.p, lo, hi)
		rv.solveNode(lo, hi)
		if requireCandidates(t, fmt.Sprintf("%s node %d", tag, s), rv) {
			valid++
		}
	}
	return valid
}

// TestCandidateListInvariant runs the check through both engines that keep
// the list — float64 and rat64 — over branch-style node sequences on
// parityProblem and random small ILPs, and over Model re-solves (LP and
// ILP) after random bound and right-hand-side edits.
func TestCandidateListInvariant(t *testing.T) {
	rounds := parityRounds(t, 60)
	var validFloat, validRat int
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(52000 + seed)))
		probs := []*Problem{parityProblem(4 + rng.Intn(12)), randomBoundedProblem(rng, true)}
		for pi, p := range probs {
			tag := fmt.Sprintf("seed %d problem %d", seed, pi)
			validFloat += branchWalk(t, tag+" float", rand.New(rand.NewSource(rng.Int63())), newRevisedFloat(p), 40)
			walkRng := rand.New(rand.NewSource(rng.Int63()))
			promote(func() {
				validRat += branchWalk(t, tag+" rat64", walkRng, newRevised[rat64, rat64Arith](p, rat64Arith{}), 40)
			})
		}

		p := randomBoundedProblem(rng, true)
		mo := NewModel(p)
		lo0, hi0 := declaredBounds(p)
		for e := 0; e < 12; e++ {
			tag := fmt.Sprintf("seed %d model edit %d", seed, e)
			v := rng.Intn(len(p.Vars))
			switch rng.Intn(3) {
			case 0:
				p.Vars[v].Lower, p.Vars[v].Upper = lo0[v], hi0[v]
			case 1:
				p.Vars[v].Lower, p.Vars[v].Upper = cutRange(rng, p.Vars[v].Lower, p.Vars[v].Upper)
			default:
				mo.SetRHS(rng.Intn(len(p.Constraints)), big.NewRat(int64(rng.Intn(17)-6), 1))
			}
			// Errors (an edit may leave an integer variable without a
			// derivable box) do not matter here, only the engine state.
			mo.ResolveILP(ILPOptions{Engine: EngineFloat})
			if requireCandidates(t, tag+" float ILP", mo.rflt) {
				validFloat++
			}
			resolveLP(mo)
			if mo.r64 != nil && requireCandidates(t, tag+" rat64 LP", mo.r64) {
				validRat++
			}
			mo.ResolveILP(ILPOptions{})
			if mo.r64 != nil && requireCandidates(t, tag+" rat64 ILP", mo.r64) {
				validRat++
			}
		}
	}
	t.Logf("valid lists checked: float %d, rat64 %d", validFloat, validRat)
	if validFloat == 0 || validRat == 0 {
		t.Fatalf("valid lists checked: float %d, rat64 %d; want both > 0", validFloat, validRat)
	}
}
