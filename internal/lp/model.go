package lp

import "math/big"

// Model is a persistent, editable linear (or mixed-integer) program: the
// engine arena is built once, bounds / right-hand sides / the objective are
// edited between solves, and Resolve / ResolveILP re-solve the edited
// program. Both are bit-identical to handing the current Problem to a fresh
// SolveLP / SolveILP:
//
//   - Resolve re-enters through the warm-start paths when it can — the dual
//     simplex after bound or RHS edits (reduced costs are untouched, so the
//     last optimal basis stays dual feasible), the primal phase 2 after an
//     objective-only edit (the basis stays primal feasible) — and accepts the
//     warm answer only when it provably equals the from-scratch one: an
//     infeasible/unbounded verdict (a status is an objective fact under exact
//     arithmetic) or an optimum certified unique by strictly signed reduced
//     costs. Anything else falls back to the deterministic cold solve, still
//     inside the retained arena.
//   - ResolveILP always branches cold from the root (a warm root would steer
//     the search down a different, albeit valid, subtree and break
//     reproducibility); the warm-started dual reentry between tree nodes and
//     the reused arena are where the time goes.
//
// The Model owns its Problem: edit bounds, RHS and objective only through
// the setters. Appending variables or constraints to the Problem after
// NewModel discards the arenas and rebuilds on the next solve.
//
// A Model is not safe for concurrent use; callers that solve many related
// instances concurrently keep one Model per worker (see solverpool).
type Model struct {
	p *Problem

	// One arena per arithmetic, built lazily on first use. The exact path
	// mirrors SolveLP/SolveILP: rat64 until an overflow promotes the model
	// to big.Rat for good.
	r64      *revised[rat64, rat64Arith]
	rbig     *revised[*big.Rat, ratArith]
	rflt     *revised[float64, floatArith]
	promoted bool

	nv, m int // structure snapshot; growth forces a rebuild

	lo, hi []*big.Rat // per-solve declared-bound scratch

	// Memoized integer box (intbox.go): the box is a pure function of the
	// declared bounds and constraint rows, so between bound/RHS edits every
	// ResolveILP reuses one chain instead of re-deriving it. The chain and
	// its rationals are immutable once built — sharing across solves is
	// safe.
	box   *boundDiff
	boxOK bool
}

// NewModel wraps p in a persistent model. No arena is built until the
// first solve.
func NewModel(p *Problem) *Model {
	return &Model{p: p, nv: len(p.Vars), m: len(p.Constraints)}
}

// Problem returns the underlying program (read-only for structure; use the
// setters for edits).
func (mo *Model) Problem() *Problem { return mo.p }

// SetBound replaces the bounds of v (nil = unbounded). The edit takes
// effect at the next solve; warm reentry handles it via the dual simplex.
func (mo *Model) SetBound(v VarID, lo, hi *big.Rat) {
	mo.p.Vars[v].Lower, mo.p.Vars[v].Upper = lo, hi
	mo.boxOK = false
}

// SetRHS retargets constraint ci to a new right-hand side, keeping any warm
// basis dual feasible (the textbook dual-simplex re-solve case).
func (mo *Model) SetRHS(ci int, rhs *big.Rat) {
	mo.p.Constraints[ci].RHS = rhs
	mo.boxOK = false
	if mo.r64 != nil && !promote(func() { mo.r64.updateRHS(ci, rhs) }) {
		mo.dropRat64()
	}
	if mo.rbig != nil {
		mo.rbig.updateRHS(ci, rhs)
	}
	if mo.rflt != nil {
		mo.rflt.updateRHSPristine(ci, rhs)
	}
}

// SetObjective replaces the objective. The last basis stays primal feasible,
// so the next Resolve may re-enter through phase 2 alone.
func (mo *Model) SetObjective(terms []Term, maximize bool) {
	mo.p.SetObjective(terms, maximize)
	if mo.r64 != nil && !promote(func() { mo.r64.updateCost() }) {
		mo.dropRat64()
	}
	if mo.rbig != nil {
		mo.rbig.updateCost()
	}
	if mo.rflt != nil {
		mo.rflt.updateCost()
	}
}

// Resolve solves the current program with the exact engine, warm when the
// edits allow it. The result is bit-identical to SolveLP(m.Problem()).
func (mo *Model) Resolve() (*Solution, error) {
	return mo.ResolveWith(SolveOptions{})
}

// ResolveWith is Resolve with per-call solve options.
func (mo *Model) ResolveWith(opts SolveOptions) (*Solution, error) {
	mo.checkStructure()
	if !mo.promoted {
		var sol *Solution
		var err error
		if promote(func() { sol, err = resolveLP(mo, mo.arena64(), opts.Cancel) }) {
			return sol, err
		}
		mo.dropRat64()
	}
	return resolveLP(mo, mo.arenaBig(), opts.Cancel)
}

// ResolveILP solves the current program by branch and bound in the retained
// arena. The result is bit-identical to SolveILP(m.Problem(), opts).
func (mo *Model) ResolveILP(opts ILPOptions) (*Solution, error) {
	mo.checkStructure()
	if opts.Engine == EngineFloat {
		return bbSolveArena[float64](mo.p, mo.floatArena(), floatArith{eps: defaultEps}, opts, mo.cachedBox)
	}
	if !mo.promoted {
		var sol *Solution
		var err error
		if promote(func() { sol, err = bbSolveArena[rat64](mo.p, mo.arena64(), rat64Arith{}, opts, mo.cachedBox) }) {
			return sol, err
		}
		mo.dropRat64()
	}
	return bbSolveArena[*big.Rat](mo.p, mo.arenaBig(), ratArith{}, opts, mo.cachedBox)
}

// cachedBox returns the memoized integer box for the model's current
// program, deriving it on first use after any bound or RHS edit.
func (mo *Model) cachedBox() *boundDiff {
	if !mo.boxOK {
		mo.box = integerBox(mo.p)
		mo.boxOK = true
	}
	return mo.box
}

// resolveLP drives one LP solve over the given arena: declared bounds in,
// warm or cold solve, Solution out.
func resolveLP[T any, A arith[T]](mo *Model, tb *revised[T, A], cancel <-chan struct{}) (*Solution, error) {
	lo, hi := mo.declaredBounds()
	tb.setCancel(cancel)
	tb.setWorkBudget(0)
	start := tb.workSpent()
	status := tb.resolveModel(lo, hi)
	meterWork(tb.workSpent() - start)
	switch status {
	case StatusInfeasible, StatusUnbounded:
		return &Solution{Status: status}, nil
	case StatusLimit:
		// Model LP solves carry no work budget; the tick can only have
		// fired through the cancellation channel.
		return &Solution{Status: StatusCanceled}, nil
	}
	return optimalSolution[T](tb), nil
}

// declaredBounds snapshots the Problem's variable bounds into reusable
// scratch slices.
func (mo *Model) declaredBounds() ([]*big.Rat, []*big.Rat) {
	if len(mo.lo) != len(mo.p.Vars) {
		mo.lo = make([]*big.Rat, len(mo.p.Vars))
		mo.hi = make([]*big.Rat, len(mo.p.Vars))
	}
	for i := range mo.p.Vars {
		mo.lo[i] = mo.p.Vars[i].Lower
		mo.hi[i] = mo.p.Vars[i].Upper
	}
	return mo.lo, mo.hi
}

// checkStructure rebuilds from scratch when variables or constraints were
// appended behind the model's back.
func (mo *Model) checkStructure() {
	if len(mo.p.Vars) != mo.nv || len(mo.p.Constraints) != mo.m {
		mo.r64, mo.rbig, mo.rflt = nil, nil, nil
		mo.promoted = false
		mo.box, mo.boxOK = nil, false
		mo.nv, mo.m = len(mo.p.Vars), len(mo.p.Constraints)
	}
}

// dropRat64 abandons the int64 fast path after an overflow; the model runs
// on big.Rat from here on (mirroring SolveLP's whole-solve promotion).
func (mo *Model) dropRat64() {
	mo.r64 = nil
	mo.promoted = true
}

// arena64 returns the rat64 arena, building it on first use.
func (mo *Model) arena64() *revised[rat64, rat64Arith] {
	if mo.r64 == nil {
		mo.r64 = newRevised[rat64, rat64Arith](mo.p, rat64Arith{})
	}
	return mo.r64
}

// arenaBig returns the big.Rat arena, building it on first use.
func (mo *Model) arenaBig() *revised[*big.Rat, ratArith] {
	if mo.rbig == nil {
		mo.rbig = newRevised[*big.Rat, ratArith](mo.p, ratArith{})
	}
	return mo.rbig
}

// floatArena returns the float arena, building it on first use.
func (mo *Model) floatArena() *revised[float64, floatArith] {
	if mo.rflt == nil {
		mo.rflt = newRevisedFloat(mo.p)
	}
	return mo.rflt
}
