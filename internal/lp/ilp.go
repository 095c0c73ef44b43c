package lp

import (
	"fmt"
	"math/big"
)

// Engine selects the arithmetic the branch-and-bound relaxations use.
type Engine int

// Available engines.
const (
	// EngineExact uses the exact rational simplex for every relaxation:
	// int64 numerator/denominator arithmetic promoted transparently to
	// big.Rat on overflow. Complete and exact.
	EngineExact Engine = iota
	// EngineFloat uses the float64 simplex for relaxations and verifies the
	// final incumbent exactly with Problem.Check. Fast; an (unlikely)
	// spurious float infeasibility can prune a feasible subtree, so a
	// StatusInfeasible answer from this engine is "almost certainly
	// infeasible" rather than a proof.
	EngineFloat
)

// ILPOptions tunes SolveILP.
type ILPOptions struct {
	Engine Engine
	// MaxNodes bounds the branch-and-bound search tree; 0 means the default
	// (200000). When exhausted the solver returns StatusLimit (or the best
	// incumbent found so far, if any).
	MaxNodes int
	// MaxWork bounds the total tableau work across the whole branch-and-
	// bound run, measured in row-update operations (rows touched by an
	// elimination × row length); 0 means unlimited. Neither nodes nor
	// pivots bound latency on large tableaus: a warm reentry of a
	// feasibility relaxation can wander for thousands of pivots (zero
	// objective ⇒ the dual simplex has no monotone progress measure), and
	// a pivot's cost itself grows with fill-in. Work units are
	// deterministic and machine-independent; exhaustion returns
	// StatusLimit, like MaxNodes. The revised engine charges the units a
	// dense elimination would, which is what lets the parity tests check
	// budgeted searches against the dense oracle tick for tick.
	MaxWork int64
	// Hybrid selects the float-first/exact-verify solve mode for the exact
	// engine: solve the root relaxation in float, adopt its basis into an
	// exact arena, and certify every consumed node's optimum unique (see
	// solveILPHybrid). Answers are bit-identical to the exact-only search;
	// budgeted searches stop at a different tick. The float engine
	// ignores it.
	Hybrid bool
	// Cancel, when non-nil, aborts the search as soon as the channel
	// fires (normally a context's Done channel). The check piggybacks on
	// the MaxWork accounting tick — once per pivot — so the pivot hot
	// path stays unbranched between ticks, a cancelled search returns
	// StatusCanceled within one tick, and an uncancelled search performs
	// exactly the arithmetic it would with no channel installed.
	Cancel <-chan struct{}
	// RootCuts separates Gomory fractional and knapsack-cover cutting
	// planes at the branch-and-bound root (exact engines only; the float
	// engine ignores it) and appends them as extra constraint rows before
	// the search. Cuts never exclude an integer-feasible point, so the
	// optimal value is unchanged; with alternate integer optima the search
	// may surface a different one than the cut-free tree. See cuts.go.
	RootCuts bool
	// SearchParallel distributes open branch-and-bound subtrees across up
	// to this many workers, one arena per worker (0 or 1 = sequential).
	// The returned Solution, status, and budget verdict are bit-identical
	// to the sequential search for every worker count: the search is
	// decomposed at deterministic frontier fences into cold-rooted subtree
	// tasks whose outcomes merge in work order, with speculative runs
	// re-validated against the exact incumbent and budget state at commit
	// time (see parallel.go). Effective extra workers are additionally
	// clamped by a process-wide GOMAXPROCS-sized token pool, so nested
	// parallelism (a solver pool of concurrent searches) cannot
	// oversubscribe the machine — clamping never changes answers. The
	// hybrid solve mode ignores the knob (its replay tree must be
	// certified on one arena); its exact fallback honors it.
	SearchParallel int
}

// arena is the engine surface branch-and-bound and the Model layer drive,
// implemented by the revised engine and by its dense test oracle. Every
// method pair is decision-identical between the two, which is what the
// parity tests check.
type arena[T any] interface {
	prob() *Problem
	startSearch(workBudget int64)
	setWorkBudget(int64)
	workSpent() int64
	dropWarm()
	setCancel(<-chan struct{})
	canceled() bool
	solveNode(lo, hi []*big.Rat) Status
	value(j int) T
	extractInto(dst []*big.Rat)
	firstFractionalInt() int
	objectiveValue() T
}

// SolveILP solves the mixed-integer program p by branch and bound over the
// simplex relaxation. For pure feasibility problems (no objective) it stops
// at the first integral solution. Every returned solution is exactly
// verified against p with rational arithmetic.
//
// The search keeps ONE engine arena for the whole tree: a child node
// differs from its parent by a single bound, so each relaxation warm-starts
// from the previous node's basis with a few dual-simplex pivots (falling
// back to a cold solve only when the basis cannot be retargeted), and node
// bounds live in a parent-linked diff chain instead of per-node slices.
func SolveILP(p *Problem, opts ILPOptions) (*Solution, error) {
	if opts.Engine == EngineFloat {
		// Float relaxations on the partial-pricing revised engine
		// (candidates are exactly verified either way).
		spawn := func() arena[float64] { return newRevisedFloat(p) }
		return bbSolveHooked(p, spawn(), floatArith{eps: defaultEps}, opts, bbHooks[float64]{spawn: spawn})
	}
	if opts.RootCuts {
		return solveILPRootCuts(p, opts)
	}
	if opts.Hybrid {
		return solveILPHybrid(p, opts)
	}
	var sol *Solution
	var err error
	if promote(func() { sol, err = bbSolve[rat64, rat64Arith](p, rat64Arith{}, opts) }) {
		return sol, err
	}
	return bbSolve[*big.Rat, ratArith](p, ratArith{}, opts)
}

func bbSolve[T any, A arith[T]](p *Problem, ar A, opts ILPOptions) (*Solution, error) {
	spawn := func() arena[T] { return newRevised[T, A](p, ar) }
	return bbSolveHooked(p, spawn(), ar, opts, bbHooks[T]{spawn: spawn})
}

// bbSolveArena is the branch-and-bound search over a caller-provided
// arena. Model.ResolveILP passes a retained arena here; resetting the warm
// state and work counter first makes the search replay exactly the pivot
// sequence a fresh arena would, so incremental re-solves stay bit-identical
// to from-scratch ones while skipping the arena (re)build. spawn builds
// extra arenas of the same engine for the parallel executor (nil keeps the
// search sequential); box supplies a memoized integer box (nil derives one
// per solve).
func bbSolveArena[T any, A arith[T]](p *Problem, tb arena[T], ar A, opts ILPOptions, spawn func() arena[T], box func() *boundDiff) (*Solution, error) {
	return bbSolveHooked(p, tb, ar, opts, bbHooks[T]{spawn: spawn, box: box})
}

// bbHooks customizes bbSolveHooked: an alternate root reset that keeps an
// adopted warm basis and a per-node certificate (both for the hybrid search,
// hybrid.go), and an arena factory enabling the parallel frontier executor
// (parallel.go) to give each worker its own arena. The zero value is the
// plain sequential search.
type bbHooks[T any] struct {
	start   func(workBudget int64) // nil: tb.startSearch (cold root)
	certify func() bool            // nil: no certification
	spawn   func() arena[T]        // nil: parallel execution disabled
	box     func() *boundDiff      // nil: integerBox(p) per solve
}

func bbSolveHooked[T any, A arith[T]](p *Problem, tb arena[T], ar A, opts ILPOptions, hooks bbHooks[T]) (*Solution, error) {
	tb.setCancel(opts.Cancel)
	if hooks.start != nil {
		hooks.start(opts.MaxWork) // hybrid root: adopted warm basis kept
	} else {
		tb.startSearch(opts.MaxWork) // cold root, as from a fresh arena
	}
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	// Integer variables missing a bound side would let the branch chain
	// walk the open direction forever on an integer-infeasible instance;
	// derive an a priori box from the constraint data first (the walker's
	// open-march guard rejects whatever the box cannot cover). A retained
	// Model supplies its memoized chain through the hook.
	var box *boundDiff
	if hooks.box != nil {
		box = hooks.box()
	} else {
		box = integerBox(p)
	}
	return bbSearch(p, tb, ar, opts, hooks, maxNodes, box)
}

func betterOrEqual(p *Problem, obj, best *big.Rat) bool {
	if p.Maximize {
		return obj.Cmp(best) > 0
	}
	return obj.Cmp(best) < 0
}

func evalObjective(p *Problem, vals []*big.Rat) *big.Rat {
	obj := new(big.Rat)
	tmp := new(big.Rat)
	for _, t := range p.Objective {
		obj.Add(obj, tmp.Mul(t.Coef, vals[t.Var]))
	}
	return obj
}

// roundIntegers snaps integer variables to the nearest integer (they are
// integral or within float tolerance of it) and leaves continuous values.
func roundIntegers(p *Problem, vals []*big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(vals))
	for i, v := range vals {
		if p.Vars[i].Integer && !v.IsInt() {
			out[i] = ratRound(v)
		} else {
			out[i] = new(big.Rat).Set(v)
		}
	}
	return out
}

// worstRounded returns the integer variable farthest from integrality, or -1
// if all integer variables are integral.
func worstRounded(p *Problem, vals []*big.Rat) int {
	worst, worstDist := -1, new(big.Rat)
	for i, v := range vals {
		if !p.Vars[i].Integer || v.IsInt() {
			continue
		}
		d := new(big.Rat).Sub(v, ratRound(v))
		d.Abs(d)
		if worst < 0 || d.Cmp(worstDist) > 0 {
			worst, worstDist = i, d
		}
	}
	return worst
}

// ratFloor returns ⌊r⌋ as a rational.
func ratFloor(r *big.Rat) *big.Rat {
	q := new(big.Int).Quo(r.Num(), r.Denom())
	// big.Int.Quo truncates toward zero; adjust negatives with remainders.
	if r.Sign() < 0 && !r.IsInt() {
		q.Sub(q, big.NewInt(1))
	}
	return new(big.Rat).SetInt(q)
}

// ratRound returns the nearest integer to r (half away from zero).
func ratRound(r *big.Rat) *big.Rat {
	fl := ratFloor(r)
	frac := new(big.Rat).Sub(r, fl)
	if frac.Cmp(big.NewRat(1, 2)) >= 0 {
		return fl.Add(fl, big.NewRat(1, 1))
	}
	return fl
}

// MustInt converts a rational known to be integral into an int.
func MustInt(r *big.Rat) int {
	if !r.IsInt() {
		panic(fmt.Sprintf("lp: %s is not integral", r))
	}
	return int(r.Num().Int64())
}
