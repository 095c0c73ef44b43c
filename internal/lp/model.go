package lp

import "math/big"

// Model is a persistent, editable linear (or mixed-integer) feasibility
// problem: the engine arena is built once, right-hand sides are edited
// between solves, and ResolveWith / ResolveILP decide the edited problem
// cold inside the retained arena. A cold re-solve replays exactly the
// pivots, answer and work of the same solve on a fresh Model over the
// current Problem, and skips only the arena build. Inside one ResolveILP
// the branch-and-bound nodes still warm-start from each other (search.go).
//
// No solve warm-starts from the previous one: a warm start would land on a
// different, equally valid vertex of the edited problem (and a warm ILP
// root would steer the search down a different subtree), while every
// answer must equal a fresh solve's.
//
// The Model owns its Problem: edit right-hand sides through SetRHS.
// Variable bounds are read from the Problem at every solve. Appending
// variables or constraints to the Problem after NewModel discards the
// arenas and rebuilds on the next solve.
//
// A Model is not safe for concurrent use; callers that solve many related
// instances concurrently keep one Model per worker (see solverpool).
type Model struct {
	p *Problem

	// One arena per arithmetic, built lazily on first use. The exact path
	// runs on rat64 until an overflow promotes the model to big.Rat for
	// good.
	r64      *revised[rat64, rat64Arith]
	rbig     *revised[*big.Rat, ratArith]
	rflt     *revised[float64, floatArith]
	promoted bool

	nv, m int // structure snapshot; growth forces a rebuild
}

// NewModel wraps p in a persistent model. No arena is built until the
// first solve.
func NewModel(p *Problem) *Model {
	return &Model{p: p, nv: len(p.Vars), m: len(p.Constraints)}
}

// SetRHS retargets constraint ci to a new right-hand side in the Problem
// and in every built arena.
func (mo *Model) SetRHS(ci int, rhs *big.Rat) {
	mo.p.Constraints[ci].RHS = rhs
	if mo.r64 != nil && !promote(func() { mo.r64.updateRHS(ci, rhs) }) {
		mo.dropRat64()
	}
	if mo.rbig != nil {
		mo.rbig.updateRHS(ci, rhs)
	}
	if mo.rflt != nil {
		mo.rflt.updateRHS(ci, rhs)
	}
}

// ResolveWith decides the current problem's continuous relaxation with the
// exact engine under the given solve options. The result is bit-identical
// to SolveLPWith on the Problem.
func (mo *Model) ResolveWith(opts SolveOptions) (*Solution, error) {
	mo.checkStructure()
	if !mo.promoted {
		var sol *Solution
		var err error
		if promote(func() { sol, err = solveArenaLP[rat64](mo.arena64(), opts.Cancel) }) {
			return sol, err
		}
		mo.dropRat64()
	}
	return solveArenaLP[*big.Rat](mo.arenaBig(), opts.Cancel)
}

// ResolveILP decides the current problem by branch and bound in the
// retained arena. The result is bit-identical to ResolveILP on a fresh
// Model of the Problem.
func (mo *Model) ResolveILP(opts ILPOptions) (*Solution, error) {
	mo.checkStructure()
	if opts.Engine == EngineFloat {
		return bbSolveArena[float64](mo.p, mo.floatArena(), floatArith{eps: defaultEps}, opts)
	}
	if !mo.promoted {
		var sol *Solution
		var err error
		if promote(func() { sol, err = bbSolveArena[rat64](mo.p, mo.arena64(), rat64Arith{}, opts) }) {
			return sol, err
		}
		mo.dropRat64()
	}
	return bbSolveArena[*big.Rat](mo.p, mo.arenaBig(), ratArith{}, opts)
}

// checkStructure rebuilds from scratch when variables or constraints were
// appended behind the model's back.
func (mo *Model) checkStructure() {
	if len(mo.p.Vars) != mo.nv || len(mo.p.Constraints) != mo.m {
		mo.r64, mo.rbig, mo.rflt = nil, nil, nil
		mo.promoted = false
		mo.nv, mo.m = len(mo.p.Vars), len(mo.p.Constraints)
	}
}

// dropRat64 abandons the int64 fast path after an overflow; the model runs
// on big.Rat from here on.
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
