package lp

import (
	"fmt"
	"math/big"
)

// Fenced depth-first branch and bound.
//
// The search is one depth-first loop over one explicit stack of bound
// chains. A node warm-starts from the basis its depth-first predecessor
// left in the arena, except at a frontier fence: once bbFrontierNodes nodes
// have been popped since the last cold restart (or since the tree root)
// and at least two unfenced entries remain, every unfenced entry is marked
// fenced. Unfenced entries are always the top of the stack, because every
// entry below the last fenced pop was fenced by then. Popping a fenced
// entry restarts the arena cold (dropWarm), so its pivot sequence is a pure
// function of the pristine constraint system and its bound chain; the work
// budget is checked there, before the cold solve.
//
// The fence and the cold restarts define the answer: a search without them
// warm-starts every node from its DFS predecessor and can land on a
// different vertex (and so a different branch, integral point or budget
// verdict) than the fenced one.

// bbOpenBranchMax caps how many times the search may branch into an
// unboxed (open) side of one integer variable before rejecting the domain
// with ErrUnboundedIntDomain. Bounded instances branch into an open side
// at most a handful of times (the very next relaxation pins the value);
// only the runaway march of an integer-infeasible one-sided instance
// accumulates a deep same-direction chain.
var bbOpenBranchMax = 64

// openPushes counts the chain's bound tightenings of the given side on
// variable v — the open-march depth the guard compares against.
func openPushes(nd *boundDiff, v int, upper bool) int {
	n := 0
	for cur := nd; cur != nil; cur = cur.parent {
		if cur.v == v && cur.upper == upper {
			n++
		}
	}
	return n
}

// bbFrontierNodes is the frontier fence: after this many nodes since the
// last cold restart, with ≥ 2 unfenced entries left on the stack, those
// entries are fenced and each restarts its node cold when popped. The
// fence cadence is the search's overhead knob: trees below it never fence
// (and pay nothing for it), and at 256 the cold restarts stay under a
// couple percent of a subtree's work. A var, not a const, so tests can
// lower it to force many fences on small corpora.
var bbFrontierNodes = 256

// bbEntry is one open subtree on the search stack: its bound chain, and
// whether a fence has passed over it, which makes its pop a cold restart.
type bbEntry struct {
	chain  *boundDiff
	fenced bool
}

// bbSearch runs the fenced depth-first branch and bound on the caller's
// arena from the bound chain root. The first integral candidate wins; the
// other outcomes, in precedence order, are the open-march guard's error,
// cancellation, the budget limit and infeasible.
func bbSearch[T any, A arith[T]](p *Problem, tb arena[T], ar A, opts ILPOptions, maxNodes int, root *boundDiff) (*Solution, error) {
	nv := len(p.Vars)
	loEff, hiEff := make([]*big.Rat, nv), make([]*big.Rat, nv)
	relax := make([]*big.Rat, nv)
	for i := range relax {
		relax[i] = new(big.Rat)
	}
	branchVal := new(big.Rat)
	var chain []*boundDiff
	// The search's work total is the deterministic quantity MaxWork is
	// charged against; metering it once per search keeps the process meter
	// representation-independent.
	start := tb.workSpent()
	defer func() { meterWork(tb.workSpent() - start) }()

	limit := false
	stack := append(make([]bbEntry, 0, 64), bbEntry{chain: root})
	// nodes counts pops in the whole search, run pops since the last cold
	// restart, open the unfenced entries on top of the stack.
	nodes, run, open := 0, 0, 1
search:
	for len(stack) > 0 {
		if nodes >= maxNodes {
			limit = true
			break search
		}
		if run >= bbFrontierNodes && open >= 2 {
			for i := len(stack) - open; i < len(stack); i++ {
				stack[i].fenced = true
			}
			open = 0
		}
		top := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if top.fenced {
			if opts.MaxWork > 0 && tb.workSpent() >= opts.MaxWork {
				// The budget can run out after the last tick of an earlier
				// node; stop as the next solve's first tick would,
				// cancellation first.
				select {
				case <-opts.Cancel:
					return &Solution{Status: StatusCanceled}, nil
				default:
				}
				limit = true
				break search
			}
			tb.dropWarm()
			run = 0
		} else {
			open--
		}
		nodes++
		run++
		nd := top.chain
		chain = nd.materialize(p, loEff, hiEff, chain)
		switch tb.solveNode(loEff, hiEff) {
		case StatusInfeasible:
			continue
		case StatusLimit:
			// Budget or cancellation; tb.canceled() tells them apart below.
			limit = true
			break search
		}
		// Find a fractional integer variable to branch on.
		branch := tb.firstFractionalInt()
		if branch < 0 {
			// Integral (by the relaxation's lights): round and verify exactly.
			tb.extractInto(relax)
			vals := roundIntegers(p, relax)
			if err := p.Check(vals); err == nil {
				return &Solution{Status: StatusOptimal, Values: vals}, nil
			}
			// Float noise produced a bogus candidate; branch on the
			// variable with the largest rounding error to make progress.
			branch = worstRounded(p, relax)
			if branch < 0 {
				continue // nothing to branch on; abandon this node
			}
		}
		// Open-march guard: a branch that tightens INTO a bound side left
		// open (neither declared nor derivable by integerBox) is how an
		// integer-infeasible instance with feasible relaxations runs
		// forever — the chain pushes the open direction indefinitely. A
		// boxed side bounds its own branch count, so the guard counts only
		// open-direction pushes on this variable; past the cap the domain
		// is rejected with the typed error. The count is a pure function
		// of the node's bound chain, so the verdict lands on the same node
		// in every representation and engine.
		if hiEff[branch] == nil && openPushes(nd, branch, false) >= bbOpenBranchMax {
			return nil, fmt.Errorf("%w: branching on %s marched %d steps into its open upper side", ErrUnboundedIntDomain, p.Vars[branch].Name, bbOpenBranchMax)
		}
		if loEff[branch] == nil && openPushes(nd, branch, true) >= bbOpenBranchMax {
			return nil, fmt.Errorf("%w: branching on %s marched %d steps into its open lower side", ErrUnboundedIntDomain, p.Vars[branch].Name, bbOpenBranchMax)
		}
		// Branch on floor/ceil of the fractional value: each child is one
		// bound diff off this node. Explore the floor side first (LIFO:
		// push ceil first).
		ar.setRat(branchVal, tb.value(branch))
		fl := ratFloor(branchVal)
		ceil := new(big.Rat).Add(fl, big.NewRat(1, 1))
		stack = append(stack, bbEntry{chain: nd.push(branch, false, ceil)}, bbEntry{chain: nd.push(branch, true, fl)})
		open += 2
	}
	if tb.canceled() {
		return &Solution{Status: StatusCanceled}, nil
	}
	if limit {
		return &Solution{Status: StatusLimit}, nil
	}
	return &Solution{Status: StatusInfeasible}, nil
}
