package lp

// The fence oracle's own search: the subtree walker and the fold that
// carries the node and work totals from one walk to the next. This is the walk → task → fold implementation the production
// depth-first loop (search.go) replaced, kept here verbatim apart from its
// arena type, so that fenceOracle (fence_test.go) checks the production loop
// against a search loop that shares none of its code.

import (
	"fmt"
	"math/big"
)

// oracleArena is the arena surface plus the budget setter the walker
// re-installs at every launch; the production loop installs MaxWork once,
// in startSearch, and has no use for it.
type oracleArena[T any] interface {
	arena[T]
	setWorkBudget(int64)
}

func (rv *revised[T, A]) setWorkBudget(b int64) { rv.workBudget = b }

// bbEvent classifies how a subtree walk ended.
type bbEvent int

const (
	evDone     bbEvent = iota // subtree exhausted
	evFrontier                // fence hit: remaining stack returned as tasks
	evLimit                   // node cap or work budget
	evCanceled                // cancellation observed by a work tick
	evSolved                  // first integral solution
	evFailed                  // the open-march guard rejected the domain (walkOut.err)
)

// walkIn are the launch inputs of one subtree walk, taken from the fold.
type walkIn struct {
	root    *boundDiff
	nodeCap int   // nodes this walk may visit before evLimit
	remWork int64 // work this walk may charge before evLimit (0 = unlimited)
	cold    bool  // dropWarm first (every task root; not the tree root)
}

// walkOut is the outcome of one subtree walk; nodes/work are its
// deterministic totals.
type walkOut struct {
	event bbEvent
	sol   *Solution    // evSolved: the first integral solution
	tasks []*boundDiff // evFrontier: continuation subtrees, DFS order
	nodes int
	work  int64
	err   error
}

// bbWalker owns the search's arena plus its per-node scratch (effective
// bounds, chain replay stack, relaxation storage).
type bbWalker[T any, A arith[T]] struct {
	p      *Problem
	tb     oracleArena[T]
	ar     A
	loEff  []*big.Rat
	hiEff  []*big.Rat
	chain  []*boundDiff
	relax  []*big.Rat
	mulTmp *big.Rat
	stack  []*boundDiff
}

func newWalker[T any, A arith[T]](p *Problem, tb oracleArena[T], ar A) *bbWalker[T, A] {
	nv := len(p.Vars)
	w := &bbWalker[T, A]{
		p: p, tb: tb, ar: ar,
		loEff: make([]*big.Rat, nv), hiEff: make([]*big.Rat, nv),
		relax:  make([]*big.Rat, nv),
		mulTmp: new(big.Rat),
		stack:  make([]*boundDiff, 0, 64),
	}
	for i := range w.relax {
		w.relax[i] = new(big.Rat)
	}
	return w
}

// run executes one subtree walk: the depth-first node loop plus the two
// pre-pop checks (node cap, then frontier fence). The node cap is the
// caller's remaining allowance, and budget exhaustion inside solveNode
// surfaces as evLimit/evCanceled.
func (w *bbWalker[T, A]) run(in walkIn) walkOut {
	if in.cold {
		w.tb.dropWarm()
	}
	if in.remWork > 0 {
		w.tb.setWorkBudget(w.tb.workSpent() + in.remWork)
	} else {
		w.tb.setWorkBudget(0)
	}
	start := w.tb.workSpent()
	var out walkOut
	finish := func(ev bbEvent) walkOut {
		out.event = ev
		out.work = w.tb.workSpent() - start
		return out
	}
	w.stack = append(w.stack[:0], in.root)
	for len(w.stack) > 0 {
		if out.nodes >= in.nodeCap {
			return finish(evLimit)
		}
		if out.nodes >= bbFrontierNodes && len(w.stack) >= 2 {
			ts := make([]*boundDiff, len(w.stack))
			for i := range ts {
				ts[i] = w.stack[len(w.stack)-1-i] // top first: DFS order
			}
			out.tasks = ts
			return finish(evFrontier)
		}
		out.nodes++
		nd := w.stack[len(w.stack)-1]
		w.stack = w.stack[:len(w.stack)-1]
		w.chain = nd.materialize(w.p, w.loEff, w.hiEff, w.chain)
		switch w.tb.solveNode(w.loEff, w.hiEff) {
		case StatusInfeasible:
			continue
		case StatusLimit:
			if w.tb.canceled() {
				return finish(evCanceled)
			}
			return finish(evLimit)
		}
		// Find a fractional integer variable to branch on.
		branch := w.tb.firstFractionalInt()
		if branch < 0 {
			// Integral (by the relaxation's lights): round and verify exactly.
			w.tb.extractInto(w.relax)
			vals := roundIntegers(w.p, w.relax)
			if err := w.p.Check(vals); err != nil {
				// Float noise produced a bogus candidate; branch on the
				// variable with the largest rounding error to make progress.
				branch = worstRounded(w.p, w.relax)
				if branch < 0 {
					continue // nothing to branch on; abandon this node
				}
			} else {
				out.sol = &Solution{Status: StatusOptimal, Values: vals}
				return finish(evSolved) // first solution wins
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
		if w.hiEff[branch] == nil && openPushes(nd, branch, false) >= bbOpenBranchMax {
			out.err = fmt.Errorf("%w: branching on %s marched %d steps into its open upper side", ErrUnboundedIntDomain, w.p.Vars[branch].Name, bbOpenBranchMax)
			return finish(evFailed)
		}
		if w.loEff[branch] == nil && openPushes(nd, branch, true) >= bbOpenBranchMax {
			out.err = fmt.Errorf("%w: branching on %s marched %d steps into its open lower side", ErrUnboundedIntDomain, w.p.Vars[branch].Name, bbOpenBranchMax)
			return finish(evFailed)
		}
		// Branch on floor/ceil of the fractional value: each child is one
		// bound diff off this node. Explore the floor side first (LIFO:
		// push ceil first).
		w.ar.setRat(w.mulTmp, w.tb.value(branch))
		fl := ratFloor(w.mulTmp)
		ceil := new(big.Rat).Add(fl, big.NewRat(1, 1))
		w.stack = append(w.stack, nd.push(branch, false, ceil), nd.push(branch, true, fl))
	}
	return finish(evDone)
}

// bbFold is the state of the search carried across walks: the fold of
// every finished walk, in task order.
type bbFold struct {
	nodes    int
	work     int64
	canceled bool
	limit    bool
	solved   *Solution
	err      error
}

func (f *bbFold) terminal() bool {
	return f.err != nil || f.canceled || f.limit || f.solved != nil
}

func (f *bbFold) absorb(res walkOut) {
	f.nodes += res.nodes
	f.work += res.work
	switch res.event {
	case evCanceled:
		f.canceled = true
	case evLimit:
		f.limit = true
	case evSolved:
		f.solved = res.sol
	}
	if res.err != nil {
		f.err = res.err
	}
}

// preempt replays the search's between-node budget checks from the fold
// totals alone, without launching a walk: the node cap fires before a pop
// (plain limit), and an exhausted work budget surfaces through the next
// solve's first tick — which checks cancellation first, exactly like
// exhausted(). Reports whether the search must stop here.
func (f *bbFold) preempt(maxNodes int, maxWork int64, cancel <-chan struct{}) bool {
	if f.terminal() {
		return true
	}
	if f.nodes >= maxNodes {
		f.limit = true
		return true
	}
	if maxWork > 0 && f.work >= maxWork {
		select {
		case <-cancel:
			f.canceled = true
		default:
			f.limit = true
		}
		return true
	}
	return false
}

// solution maps the final fold to the search's return, in precedence
// order: error, first integral solution, canceled, budget limit,
// infeasible.
func (f *bbFold) solution(arenaCanceled bool) (*Solution, error) {
	if f.err != nil {
		return nil, f.err
	}
	if f.solved != nil {
		return f.solved, nil
	}
	if f.canceled || arenaCanceled {
		return &Solution{Status: StatusCanceled}, nil
	}
	if f.limit {
		return &Solution{Status: StatusLimit}, nil
	}
	return &Solution{Status: StatusInfeasible}, nil
}

func remWorkOf(maxWork, spent int64) int64 {
	if maxWork > 0 {
		return maxWork - spent
	}
	return 0
}
