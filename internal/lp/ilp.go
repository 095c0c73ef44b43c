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
	// integral point it returns exactly with Problem.Check. Fast; an
	// (unlikely) spurious float infeasibility can prune a feasible subtree,
	// so a StatusInfeasible answer from this engine is "almost certainly
	// infeasible" rather than a proof.
	EngineFloat
)

// Limits is the ILP configuration the layers above lp carry: exact
// arithmetic and the per-attempt budgets of a contract synthesis.
// flow.Options and core.Options (so also wsp.Config) embed it, and flow
// resolves it with its own defaults into one ILPOptions per attempt; the
// zero value means the float engine. The JSON names are the corpus
// report's and wspd's.
type Limits struct {
	// Exact selects EngineExact instead of EngineFloat.
	Exact bool `json:"exact,omitempty"`
	// MaxWork overrides the per-attempt work budget (ILPOptions.MaxWork
	// units); 0 selects the caller's default.
	MaxWork int64 `json:"work_budget,omitempty"`
	// MaxNodes overrides the per-attempt node budget (ILPOptions.MaxNodes);
	// 0 selects the caller's default.
	MaxNodes int `json:"node_budget,omitempty"`
}

// ILPOptions tunes Model.ResolveILP: one call's engine, caps and
// cancellation.
type ILPOptions struct {
	Engine Engine
	// MaxNodes bounds the branch-and-bound search tree; 0 means the default
	// (200000). When exhausted before an integral point is found the
	// solver returns StatusLimit.
	MaxNodes int
	// MaxWork bounds the total tableau work across the whole branch-and-
	// bound run, measured in row-update operations (rows touched by an
	// elimination × row length); 0 means unlimited. Neither nodes nor
	// pivots bound latency on large tableaus: a warm reentry of a
	// feasibility relaxation can wander for thousands of pivots (every
	// reduced cost is zero, so the dual simplex has no monotone progress
	// measure), and a pivot's cost itself grows with fill-in. Work units are
	// deterministic and machine-independent; exhaustion returns
	// StatusLimit, like MaxNodes. The revised engine charges the units a
	// dense elimination would, which is what lets the parity tests check
	// budgeted searches against the dense oracle tick for tick.
	MaxWork int64
	// Cancel, when non-nil, aborts the search as soon as the channel
	// fires (normally a context's Done channel). The check piggybacks on
	// the MaxWork accounting tick — once per pivot — so the pivot hot
	// path stays unbranched between ticks, a cancelled search returns
	// StatusCanceled within one tick, and an uncancelled search performs
	// exactly the arithmetic it would with no channel installed.
	Cancel <-chan struct{}
}

// arena is the engine surface branch and bound uses, implemented by the
// revised engine and by its dense test oracle. Every method pair is
// decision-identical between the two, which is what the parity tests
// check.
type arena[T any] interface {
	startSearch(workBudget int64)
	workSpent() int64
	dropWarm()
	setCancel(<-chan struct{})
	canceled() bool
	solveNode(lo, hi []*big.Rat) Status
	value(j int) T
	extractInto(dst []*big.Rat)
	firstFractionalInt() int
}

// bbSolveArena is the branch-and-bound search over an arena: it decides
// the mixed-integer problem p over the simplex relaxation and stops at the
// first integral solution, which is exactly verified against p with
// rational arithmetic. Resetting the warm state and work counter first
// makes a retained arena replay exactly the pivot sequence a fresh one
// would, so Model re-solves stay bit-identical to from-scratch ones while
// skipping the arena (re)build.
//
// The search keeps ONE engine arena for the whole tree: a child node
// differs from its parent by a single bound, so each relaxation warm-starts
// from the previous node's basis with a few dual-simplex pivots (it solves
// cold at the root, at fenced pops, after a cold solve that left no basis,
// and when the dual's anti-cycling cap stops it), and node bounds live in
// a parent-linked diff chain instead of per-node slices.
func bbSolveArena[T any, A arith[T]](p *Problem, tb arena[T], ar A, opts ILPOptions) (*Solution, error) {
	tb.setCancel(opts.Cancel)
	tb.startSearch(opts.MaxWork) // cold root, as from a fresh arena
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	// Integer variables missing a bound side would let the branch chain
	// walk the open direction forever on an integer-infeasible instance;
	// derive an a priori box from the constraint data first (the search's
	// open-march guard rejects whatever the box cannot cover).
	return bbSearch(p, tb, ar, opts, maxNodes, integerBox(p))
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
