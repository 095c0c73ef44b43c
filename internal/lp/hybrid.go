package lp

import (
	"errors"
	"math/big"
)

// This file implements the hybrid solve mode (the Hybrid options): solve in
// float64 first with the revised partial-pricing engine, then verify the
// float basis with an exact engine warm-started from it. The mode exists
// for large instances where the float engine finds the optimal basis in a
// fraction of the exact engine's time and the exact half only has to
// confirm it (re-home the nonbasics, a handful of dual pivots, one pricing
// pass); its contract is that every answer is bit-identical to the
// exact-only engines'.
//
// Certification. An exact warm solve started from a float basis can land on
// a DIFFERENT optimal vertex than the cold exact solve when the optimum is
// not unique, so optimality alone does not give bit-identity. The
// certificate is uniqueOptimum(): every nonbasic reduced cost strictly
// signed means the optimal point is unique, and a unique optimal point is
// the same point whatever path reached it. Anything short of a certified
// unique optimum — the float solve failed, the basis is exactly singular,
// re-homing hit an unbounded direction, the dual walk stalled, or the
// optimum is simply not unique — falls back to the cold exact solve, which
// is the exact-only answer by definition. Exact infeasibility proofs
// (dualInfeasible) are accepted directly: infeasibility is a property of
// the problem, not of the basis that exposed it.
//
// For ILP the same certificate is demanded at every consumed branch-and-
// bound node (bbHooks.certify): node-wise unique relaxation optima pin the
// branching variables, the pruning bounds and the incumbents to exactly
// the values of the exact-only search, so the whole tree replays
// identically. The first uncertifiable node aborts the hybrid search
// (errHybridBail) and the plain exact search reruns from scratch.
//
// MaxWork caveat: hybrid work counts differ from exact-only work counts
// (the float pivots are not charged to the exact budget, and the exact root
// re-enters warm instead of cold), so a budget-limited hybrid solve is
// deterministic per mode but stops at a different tick than a
// budget-limited exact-only solve. Budgeted bit-identity claims are
// per-engine, as with the float engine.

// errHybridBail aborts a hybrid branch-and-bound search at the first node
// whose relaxation optimum cannot be certified unique; the caller reruns
// the plain exact search. It never escapes the package.
var errHybridBail = errors.New("lp: hybrid node optimum not certified unique")

// declaredBounds returns the per-variable declared bounds — the bound
// vectors of an LP solve or of the branch-and-bound root.
func declaredBounds(p *Problem) (lo, hi []*big.Rat) {
	lo = make([]*big.Rat, len(p.Vars))
	hi = make([]*big.Rat, len(p.Vars))
	for i := range p.Vars {
		lo[i] = p.Vars[i].Lower
		hi[i] = p.Vars[i].Upper
	}
	return lo, hi
}

// solveLPHybrid is the LP entry of the hybrid mode: float-first, exact
// verify, cold exact fallback.
func solveLPHybrid(p *Problem, cancel <-chan struct{}) (*Solution, error) {
	// A pure feasibility problem has no reduced-cost certificate
	// (uniqueOptimum is vacuously false), so the float half cannot pay for
	// itself: go exact directly.
	if len(p.Objective) > 0 {
		ft := newRevisedFloat(p)
		ft.setCancel(cancel)
		lo, hi := declaredBounds(p)
		if ft.solveNode(lo, hi) == StatusOptimal {
			basis, stat := ft.basisState()
			if sol := verifyFloatBasis(p, basis, stat, cancel); sol != nil {
				return sol, nil
			}
		}
		if ft.canceled() {
			return &Solution{Status: StatusCanceled}, nil
		}
	}
	return SolveLPWith(p, SolveOptions{Cancel: cancel})
}

// verifyFloatBasis runs the exact verification half of a hybrid LP solve:
// adopt the float basis, re-home and repair with the dual simplex, and
// accept only certified answers (a unique optimum, or an exact
// infeasibility proof). nil means "not certified" and the caller must fall
// back to the cold exact solve. Split from solveLPHybrid so the
// disagreement-path tests can feed it corrupted bases directly.
func verifyFloatBasis(p *Problem, basis []int, stat []vstat, cancel <-chan struct{}) *Solution {
	var sol *Solution
	if promote(func() { sol = verifyBasisWith[rat64, rat64Arith](p, rat64Arith{}, basis, stat, cancel) }) {
		return sol
	}
	return verifyBasisWith[*big.Rat, ratArith](p, ratArith{}, basis, stat, cancel)
}

func verifyBasisWith[T any, A arith[T]](p *Problem, ar A, basis []int, stat []vstat, cancel <-chan struct{}) *Solution {
	rv := newRevised[T, A](p, ar)
	rv.setCancel(cancel)
	lo, hi := declaredBounds(p)
	if ok, _ := rv.setBounds(lo, hi); !ok {
		return nil // crossed declared bounds; let the cold path report it
	}
	if !rv.adoptBasis(basis, stat) || !rv.rewarm() {
		return nil
	}
	switch rv.dual() {
	case dualOptimal:
		if rv.uniqueOptimum() {
			return optimalSolution[T](rv)
		}
	case dualInfeasible:
		return &Solution{Status: StatusInfeasible}
	}
	// dualStuck or cancelled mid-walk: not certified.
	return nil
}

// solveILPHybrid is the branch-and-bound entry of the hybrid mode: solve
// the root relaxation in float, adopt its basis into an exact arena, and
// run the exact search warm from it with per-node uniqueness certification.
// Any certification failure abandons the hybrid tree and reruns the plain
// exact search.
func solveILPHybrid(p *Problem, opts ILPOptions) (*Solution, error) {
	exact := func() (*Solution, error) {
		o := opts
		o.Hybrid = false
		o.RootCuts = false
		return SolveILP(p, o)
	}
	if len(p.Objective) == 0 {
		return exact() // no certificate possible; see solveLPHybrid
	}
	ft := newRevisedFloat(p)
	ft.setCancel(opts.Cancel)
	lo, hi := declaredBounds(p)
	if ft.solveNode(lo, hi) != StatusOptimal {
		if ft.canceled() {
			return &Solution{Status: StatusCanceled}, nil
		}
		return exact()
	}
	basis, stat := ft.basisState()
	var sol *Solution
	var err error
	if !promote(func() { sol, err = hybridSearchWith[rat64, rat64Arith](p, rat64Arith{}, basis, stat, opts) }) {
		sol, err = hybridSearchWith[*big.Rat, ratArith](p, ratArith{}, basis, stat, opts)
	}
	if errors.Is(err, errHybridBail) {
		return exact()
	}
	return sol, err
}

func hybridSearchWith[T any, A arith[T]](p *Problem, ar A, basis []int, stat []vstat, opts ILPOptions) (*Solution, error) {
	rv := newRevised[T, A](p, ar)
	rv.setCancel(opts.Cancel)
	lo, hi := declaredBounds(p)
	if ok, _ := rv.setBounds(lo, hi); !ok {
		return nil, errHybridBail
	}
	if !rv.adoptBasis(basis, stat) {
		return nil, errHybridBail
	}
	// Mark the adopted basis warm: the root solveNode re-enters through
	// rewarm()/dual(), and falls back to the cold two-phase solve — the
	// exact-only root, bit for bit — on its own if re-homing fails.
	rv.warmOK = true
	return bbSolveHooked(p, rv, ar, opts, bbHooks[T]{
		start:   rv.startSearchWarm,
		certify: rv.uniqueOptimum,
	})
}
