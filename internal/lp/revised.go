package lp

import "math/big"

// This file implements the sparse revised simplex engine: the constraint
// matrix is stored once (the CSR triplets every engine shares, plus a CSC
// view for column access), the basis is kept as an LU factorization with an
// eta file (factor.go), reduced costs are priced by BTRAN + sparse column
// dots, and pivot columns come from FTRAN — no dense tableau rows exist.
//
// The engine is decision-for-decision identical to the dense tableau:
// Dantzig/Bland pricing over the same reduced costs, the same two-sided
// ratio test and tie-breaks, the same cold start (logical basis patched
// with signed artificials), the same dual-simplex warm reentry, and the
// same deterministic work accounting (a pivot charges the rows an
// elimination would touch times the dense row length). Because both
// engines run exact arithmetic, every compared quantity is the same
// canonical rational in both representations, so the pivot sequences —
// and therefore the returned Solutions — are bit-identical. The dense
// tableau stays as the test oracle (dense_test.go); this engine is the
// only production simplex.
//
// Costs per pivot: the dense tableau pays O(m·(n+1)) row updates; the
// revised engine pays one BTRAN + one FTRAN (O(factor fill)) plus one
// reduced-cost pass over the matrix nonzeros. Contract-shaped systems are
// extremely sparse, which is where the revised engine wins.

// revised is the factorized-basis counterpart of tableau. The column
// layout, bound arrays, statuses and warm-state flags are identical; only
// the representation of B⁻¹ differs.
type revised[T any, A arith[T]] struct {
	ar       A
	p        *Problem
	m        int // constraint rows
	nv       int // structural columns
	artStart int // nv + m
	n        int // total columns: nv + 2m
	stride   int // n + 1: dense row length, kept for work-unit parity

	basis []int
	rowOf []int // column → basis position, -1 otherwise
	xB    []T   // value of the basic variable of each position
	stat  []vstat
	lo    []T
	hi    []T
	loF   []bool
	hiF   []bool

	cost   []T // phase-2 minimization costs, len n
	hasObj bool
	// d holds reduced costs for columns 0..artStart-1. It is refreshed by
	// price() at every consumer (pricing loops, rewarm, uniqueOptimum), so
	// it never serves stale values; in exact arithmetic the refresh equals
	// the reduced-cost row the dense tableau maintains through pivots.
	d []T

	csr     *csrRows
	convVal []T
	convRHS []T
	cols    *colStore[T]
	fac     *basisFactor[T, A]

	nArt       int
	warmOK     bool
	basisOK    bool
	pr         pricer
	work       int64
	workBudget int64
	// Partial pricing (float engine only): primal pivots price a rotating
	// candidate window instead of every column. Exact engines never enable
	// it — the entering choices would diverge from the dense reference and
	// break the bit-identity contract.
	partial bool
	pwin    int // rotating window width
	scan    int // column the next window starts at
	// Cancellation channel and latch, as on the dense tableau: checked on
	// the same per-pivot tick as the work budget.
	cancelC     <-chan struct{}
	cancelFired bool

	// Solve scratch: FTRAN output in raw space, the same column gathered
	// into basis-position space, the BTRAN cost vector, and the dual
	// pivot-row vector.
	fraw   *spVec[T]
	apos   *spVec[T]
	yv     *spVec[T]
	rho    *spVec[T]
	costP1 []T // phase-1 cost vector scratch
	prow   []T // dual pivot-row scratch, len artStart

	zero, one T
}

func newRevised[T any, A arith[T]](p *Problem, ar A) *revised[T, A] {
	nv := len(p.Vars)
	m := len(p.Constraints)
	rv := &revised[T, A]{
		ar: ar, p: p,
		m: m, nv: nv, artStart: nv + m, n: nv + 2*m, stride: nv + 2*m + 1,
		zero: ar.zero(), one: ar.one(),
	}
	rv.csr, rv.convVal, rv.convRHS = problemCSR(p, ar)
	rv.cols = newColStore(rv.csr, rv.convVal, nv)
	rv.fac = newBasisFactor(ar, rv.cols)

	rv.basis = make([]int, m)
	rv.rowOf = make([]int, rv.n)
	rv.xB = make([]T, m)
	rv.stat = make([]vstat, rv.n)
	rv.lo = make([]T, rv.n)
	rv.hi = make([]T, rv.n)
	rv.loF = make([]bool, rv.n)
	rv.hiF = make([]bool, rv.n)
	rv.cost = make([]T, rv.n)
	rv.d = make([]T, rv.artStart)
	rv.costP1 = make([]T, rv.n)
	rv.prow = make([]T, rv.artStart)
	for j := range rv.cost {
		rv.cost[j] = rv.zero
		rv.costP1[j] = rv.zero
		rv.lo[j] = rv.zero
		rv.hi[j] = rv.zero
	}
	for j := range rv.d {
		rv.d[j] = rv.zero
		rv.prow[j] = rv.zero
	}
	for i := 0; i < m; i++ {
		rv.xB[i] = rv.zero
		lcol := nv + i
		switch p.Constraints[i].Sense {
		case LE:
			rv.loF[lcol] = true // [0, ∞)
		case GE:
			rv.hiF[lcol] = true // (-∞, 0]
		case EQ:
			rv.loF[lcol], rv.hiF[lcol] = true, true // [0, 0]
		}
		acol := rv.artStart + i
		rv.loF[acol], rv.hiF[acol] = true, true
	}
	rv.fraw = newSpVec(ar, m)
	rv.apos = newSpVec(ar, m)
	rv.yv = newSpVec(ar, m)
	rv.rho = newSpVec(ar, m)
	rv.updateCost()
	rv.pr = newPricer(m, rv.n)
	return rv
}

// newRevisedFloat builds the float64 revised engine: the same LU machinery
// as the exact revised engine, plus partial pricing. The float engine has
// no bit-identity contract to a reference representation (its answers are
// approximate either way), so the cheaper entering rule is safe here and
// only here.
func newRevisedFloat(p *Problem) *revised[float64, floatArith] {
	rv := newRevised[float64, floatArith](p, floatArith{eps: defaultEps})
	rv.partial = true
	rv.pwin = partialWindow(rv.artStart)
	return rv
}

// partialWindow sizes the rotating candidate window: wide enough to give
// Dantzig's rule real choice (narrow windows degenerate into Bland-like
// crawls), narrow enough that pricing stops paying one dot per column per
// pivot on large systems.
func partialWindow(n int) int {
	w := n / 8
	if w < 32 {
		w = 32
	}
	return w
}

// Arena surface shared with the dense tableau (see arena in ilp.go).

func (rv *revised[T, A]) prob() *Problem { return rv.p }

func (rv *revised[T, A]) startSearch(workBudget int64) {
	rv.warmOK = false
	rv.basisOK = false
	rv.work = 0
	rv.workBudget = workBudget
	// Partial pricing's window position is part of the pivot-sequence
	// state: a retained arena must replay a fresh arena's solve exactly,
	// so every search starts the rotation from column zero.
	rv.scan = 0
}

// startSearchWarm is startSearch for the hybrid branch-and-bound root: the
// work counter, budget and pricing rotation reset exactly as on a cold
// start, but a pre-seeded dual-feasible basis (adopted from the float half
// of the solve, see adoptBasis) is kept so the root relaxation re-enters
// through the dual simplex instead of a two-phase cold solve.
func (rv *revised[T, A]) startSearchWarm(workBudget int64) {
	rv.basisOK = false
	rv.work = 0
	rv.workBudget = workBudget
	rv.scan = 0
}

func (rv *revised[T, A]) setWorkBudget(b int64) { rv.workBudget = b }

func (rv *revised[T, A]) workSpent() int64 { return rv.work }

// dropWarm mirrors tableau.dropWarm: forget the warm basis so the next
// solveNode cold-solves deterministically from the pristine system. The
// partial-pricing window is part of the pivot-sequence state, so it resets
// with the warm state — a subtree root must start the rotation from column
// zero on every arena for the fenced search to be arena-independent.
func (rv *revised[T, A]) dropWarm() {
	rv.warmOK = false
	rv.basisOK = false
	rv.scan = 0
}

// basisState snapshots the basis columns and every column's status: the
// hand-off payload from the float half of a hybrid solve to the exact
// verifier.
func (rv *revised[T, A]) basisState() ([]int, []vstat) {
	basis := make([]int, len(rv.basis))
	copy(basis, rv.basis)
	stat := make([]vstat, len(rv.stat))
	copy(stat, rv.stat)
	return basis, stat
}

// adoptBasis installs a basis snapshot produced by another engine over the
// same Problem — the float half of a hybrid solve, or a deliberately
// corrupted snapshot in the fault-injection tests. Declared bounds must
// already be installed (setBounds). The snapshot is validated rather than
// trusted: wrong shape, statuses inconsistent with the bound structure,
// artificial columns still basic, or a column set that is singular in exact
// arithmetic all report false, leaving the engine cold so callers fall back
// to the deterministic cold exact solve. On success the basis is factorized
// and the caller re-enters through rewarm()/dual() (directly or via a warm
// solveNode); basic values are not computed here — rewarm rebuilds them.
func (rv *revised[T, A]) adoptBasis(basis []int, stat []vstat) bool {
	if len(basis) != rv.m || len(stat) != rv.n {
		return false
	}
	for j := range rv.rowOf {
		rv.rowOf[j] = -1
	}
	for i, j := range basis {
		if j < 0 || j >= rv.artStart || rv.rowOf[j] >= 0 || stat[j] != inBasis {
			return false
		}
		rv.rowOf[j] = i
	}
	for j := 0; j < rv.artStart; j++ {
		switch stat[j] {
		case inBasis:
			if rv.rowOf[j] < 0 {
				return false
			}
		case nbLower:
			if !rv.loF[j] {
				return false
			}
		case nbUpper:
			if !rv.hiF[j] {
				return false
			}
		case nbFree:
			if rv.loF[j] || rv.hiF[j] {
				return false
			}
		default:
			return false
		}
		rv.stat[j] = stat[j]
	}
	// Artificials stay locked at [0,0], as after any completed phase 1.
	for j := rv.artStart; j < rv.n; j++ {
		rv.stat[j] = nbLower
		rv.lo[j], rv.hi[j] = rv.zero, rv.zero
		rv.loF[j], rv.hiF[j] = true, true
	}
	copy(rv.basis, basis)
	if !rv.fac.tryRefactor(rv.basis) {
		return false
	}
	rv.nArt = 0
	rv.warmOK = false
	rv.basisOK = false
	return true
}

// setCancel installs the cancellation channel for subsequent solves and
// re-arms the latch, mirroring tableau.setCancel.
func (rv *revised[T, A]) setCancel(c <-chan struct{}) {
	rv.cancelC = c
	rv.cancelFired = false
}

func (rv *revised[T, A]) canceled() bool { return rv.cancelFired }

// exhausted reports budget exhaustion or cancellation, checked once per
// pivot. The revised engine charges the same work units per pivot as the
// dense elimination would, so budgeted AND cancelled searches stop at the
// same tick across representations.
func (rv *revised[T, A]) exhausted() bool {
	if rv.cancelC != nil {
		select {
		case <-rv.cancelC:
			rv.cancelFired = true
			return true
		default:
		}
	}
	return rv.workBudget > 0 && rv.work >= rv.workBudget
}

// updateCost mirrors tableau.updateCost: rebuild the phase-2 cost vector
// and drop dual-feasible warm state (the basis itself stays valid).
func (rv *revised[T, A]) updateCost() {
	ar := rv.ar
	for j := range rv.cost {
		rv.cost[j] = rv.zero
	}
	rv.hasObj = len(rv.p.Objective) > 0
	for _, t := range rv.p.Objective {
		c := ar.fromRat(t.Coef)
		if rv.p.Maximize {
			c = ar.neg(c)
		}
		rv.cost[t.Var] = ar.add(rv.cost[t.Var], c)
	}
	rv.warmOK = false
}

// updateRHS retargets constraint i. Unlike the dense tableau there is no
// maintained B⁻¹b column to delta-update: rewarm recomputes basic values
// from the pristine right-hand sides through one FTRAN, so dual-feasible
// warm state survives the edit for free. Primal reentry is invalidated.
func (rv *revised[T, A]) updateRHS(i int, rhs *big.Rat) {
	rv.convRHS[i] = rv.ar.fromRat(rhs)
	rv.csr.rhs[i] = rhs
	rv.basisOK = false
}

// updateRHSPristine is the RHS edit of the Model's float arena: pristine
// system only, every warm state dropped — ResolveILP cold-rebuilds the
// root, so a float warm basis is never consumed and keeping it would be a
// rounding trap.
func (rv *revised[T, A]) updateRHSPristine(i int, rhs *big.Rat) {
	rv.convRHS[i] = rv.ar.fromRat(rhs)
	rv.csr.rhs[i] = rhs
	rv.warmOK = false
	rv.basisOK = false
}

func (rv *revised[T, A]) setBounds(lo, hi []*big.Rat) (ok, changed bool) {
	return installBounds(rv.ar, rv.nv, lo, hi, rv.lo, rv.hi, rv.loF, rv.hiF)
}

func (rv *revised[T, A]) nbValue(j int) T {
	switch rv.stat[j] {
	case nbLower:
		return rv.lo[j]
	case nbUpper:
		return rv.hi[j]
	}
	return rv.zero
}

func (rv *revised[T, A]) fixedRange(j int) bool {
	return rv.loF[j] && rv.hiF[j] && rv.ar.cmp(rv.lo[j], rv.hi[j]) == 0
}

// solveNode mirrors tableau.solveNode: dual warm reentry when the basis is
// still dual feasible, cold two-phase solve otherwise.
func (rv *revised[T, A]) solveNode(lo, hi []*big.Rat) Status {
	if ok, _ := rv.setBounds(lo, hi); !ok {
		return StatusInfeasible
	}
	if rv.warmOK && rv.rewarm() {
		switch rv.dual() {
		case dualOptimal:
			return StatusOptimal
		case dualInfeasible:
			return StatusInfeasible
		case dualBudget:
			return StatusLimit
		}
		// dualStuck: anti-cycling cap hit; restart cold for certainty.
	}
	rv.warmOK = false
	status := rv.solveFresh()
	rv.warmOK = status == StatusOptimal
	return status
}

// resolveModel solves under the given bounds for the Model, preferring
// warm reentry but returning a warm answer only when it provably matches
// the from-scratch one; everything else re-runs the deterministic cold
// path in place.
func (rv *revised[T, A]) resolveModel(lo, hi []*big.Rat) Status {
	ok, changed := rv.setBounds(lo, hi)
	if changed {
		rv.basisOK = false
	}
	if !ok {
		return StatusInfeasible
	}
	if rv.warmOK {
		if rv.rewarm() {
			switch rv.dual() {
			case dualOptimal:
				rv.basisOK = true
				if rv.uniqueOptimum() {
					return StatusOptimal
				}
			case dualInfeasible:
				return StatusInfeasible
			case dualBudget:
				// Cancelled mid-reentry (Model LP solves carry no work
				// budget): drop the mid-walk state and report promptly.
				rv.warmOK, rv.basisOK = false, false
				return StatusLimit
			}
			// dualStuck: restart cold for certainty.
		}
		rv.basisOK = false
	} else if rv.basisOK {
		switch rv.phase2() {
		case StatusOptimal:
			rv.warmOK = true
			if rv.uniqueOptimum() {
				return StatusOptimal
			}
		case StatusUnbounded:
			rv.warmOK, rv.basisOK = false, false
			return StatusUnbounded
		case StatusLimit:
			rv.warmOK, rv.basisOK = false, false
			return StatusLimit
		}
	}
	rv.warmOK = false
	status := rv.solveFresh()
	rv.warmOK = status == StatusOptimal
	rv.basisOK = status == StatusOptimal
	return status
}

func (rv *revised[T, A]) solveFresh() Status {
	rv.cold()
	if st := rv.phase1(); st != StatusOptimal {
		return st
	}
	return rv.phase2()
}

// cold mirrors tableau.cold: all-logical basis, nonbasic structurals at
// their preferred bound, one artificial per row whose logical cannot
// absorb the residual. Where the dense engine negates a tableau row to
// give the artificial coefficient +1, this engine records the sign in the
// column store (artSign) and leaves the matrix untouched.
func (rv *revised[T, A]) cold() {
	ar := rv.ar
	for j := range rv.rowOf {
		rv.rowOf[j] = -1
	}
	for j := 0; j < rv.nv; j++ {
		switch {
		case rv.loF[j]:
			rv.stat[j] = nbLower
		case rv.hiF[j]:
			rv.stat[j] = nbUpper
		default:
			rv.stat[j] = nbFree
		}
	}
	for i := 0; i < rv.m; i++ {
		lcol := rv.nv + i
		rv.basis[i] = lcol
		rv.rowOf[lcol] = i
		rv.stat[lcol] = inBasis
		acol := rv.artStart + i
		rv.stat[acol] = nbLower
		rv.lo[acol], rv.hi[acol] = rv.zero, rv.zero
		rv.loF[acol], rv.hiF[acol] = true, true
		rv.cols.artSign[i] = 1
		// x_logical = b - Σ a_ij v_j over nonbasic structurals at bounds.
		v := rv.convRHS[i]
		cols, _ := rv.csr.row(i)
		start := int(rv.csr.ptr[i])
		for idx, col := range cols {
			cv := rv.nbValue(int(col))
			if ar.sign(cv) != 0 {
				v = ar.sub(v, ar.mul(rv.convVal[start+idx], cv))
			}
		}
		rv.xB[i] = v
	}
	rv.nArt = 0
	for i := 0; i < rv.m; i++ {
		lcol := rv.nv + i
		var target T
		switch {
		case rv.loF[lcol] && ar.cmp(rv.xB[i], rv.lo[lcol]) < 0:
			target = rv.lo[lcol]
			rv.stat[lcol] = nbLower
		case rv.hiF[lcol] && ar.cmp(rv.xB[i], rv.hi[lcol]) > 0:
			target = rv.hi[lcol]
			rv.stat[lcol] = nbUpper
		default:
			continue
		}
		resid := ar.sub(rv.xB[i], target)
		acol := rv.artStart + i
		if ar.sign(resid) < 0 {
			rv.cols.artSign[i] = -1
			resid = ar.neg(resid)
		}
		rv.hiF[acol] = false // open to [0, ∞) for phase 1
		rv.rowOf[lcol] = -1
		rv.basis[i] = acol
		rv.rowOf[acol] = i
		rv.stat[acol] = inBasis
		rv.xB[i] = resid
		rv.nArt++
	}
	rv.fac.refactor(rv.basis)
}

// phase1 mirrors tableau.phase1 over the phase-1 cost vector (unit cost on
// each activated artificial); price() re-derives the same reduced costs
// the dense engine maintains by pricing out the basic artificials.
func (rv *revised[T, A]) phase1() Status {
	ar := rv.ar
	if rv.nArt == 0 {
		return StatusOptimal
	}
	for j := rv.artStart; j < rv.n; j++ {
		if rv.hiF[j] {
			rv.costP1[j] = rv.zero // not activated
		} else {
			rv.costP1[j] = rv.one
		}
	}
	rv.pr.reset()
	switch rv.primal(rv.costP1) {
	case StatusOptimal:
	case StatusLimit:
		return StatusLimit
	default:
		// A feasibility phase bounded below by zero cannot be unbounded;
		// reaching this means numerical failure. Report infeasible.
		return StatusInfeasible
	}
	infeas := rv.zero
	for i := 0; i < rv.m; i++ {
		if rv.basis[i] >= rv.artStart {
			infeas = ar.add(infeas, rv.xB[i])
		}
	}
	if ar.sign(infeas) != 0 {
		return StatusInfeasible
	}
	// Drive zero-valued basic artificials out, exactly as the dense engine
	// scans its tableau row: the pivot row ρ = eᵣᵀB⁻¹A is priced column by
	// column and the first nonzero wins; rows with none are redundant.
	for i := 0; i < rv.m; i++ {
		if rv.basis[i] < rv.artStart {
			continue
		}
		rv.pivotRow(i)
		for j := 0; j < rv.artStart; j++ {
			if ar.sign(rv.dot(rv.rho, j)) != 0 {
				rv.swapZero(i, j)
				break
			}
		}
	}
	// Re-lock every artificial.
	for j := rv.artStart; j < rv.n; j++ {
		rv.hi[j] = rv.zero
		rv.hiF[j] = true
	}
	return StatusOptimal
}

func (rv *revised[T, A]) phase2() Status {
	if !rv.hasObj {
		return StatusOptimal
	}
	rv.pr.reset()
	return rv.primal(rv.cost)
}

// price refreshes the reduced costs d_j = c_j − yᵀA_j for every candidate
// column (nonbasic, non-fixed, j < artStart) against the given cost
// vector, with y = B⁻ᵀc_B from one BTRAN. In exact arithmetic this equals
// the reduced-cost row the dense tableau maintains through eliminations,
// bit for bit. Basic and fixed-range columns are never read by any
// consumer and are set to zero.
func (rv *revised[T, A]) price(cost []T) {
	ar := rv.ar
	y := rv.yv
	y.clear(rv.zero)
	for pos := 0; pos < rv.m; pos++ {
		cb := cost[rv.basis[pos]]
		if ar.sign(cb) != 0 {
			y.set(rv.fac.rowOfPos[pos], cb)
		}
	}
	rv.fac.btran(y)
	for j := 0; j < rv.artStart; j++ {
		if rv.stat[j] == inBasis || rv.fixedRange(j) {
			rv.d[j] = rv.zero
			continue
		}
		rv.d[j] = ar.sub(cost[j], rv.dot(y, j))
	}
}

// dot is yᵀA_j over column j's sparse entries (logical columns are unit
// vectors).
func (rv *revised[T, A]) dot(y *spVec[T], j int) T {
	ar := rv.ar
	cs := rv.cols
	if j >= rv.nv {
		return y.val[j-rv.nv]
	}
	s := rv.zero
	for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
		yv := y.val[cs.rows[k]]
		if ar.sign(yv) != 0 {
			s = ar.add(s, ar.mul(yv, cs.vals[k]))
		}
	}
	return s
}

// ftranCol computes α = B⁻¹A_j: the column is scattered in raw space,
// FTRAN'd (fraw, kept for the eta update), and gathered into basis
// positions (apos) for the ratio test and xB updates.
func (rv *revised[T, A]) ftranCol(j int) {
	ar := rv.ar
	cs := rv.cols
	fr := rv.fraw
	fr.clear(rv.zero)
	switch {
	case j >= cs.artStart:
		i := int32(j - cs.artStart)
		v := rv.one
		if cs.artSign[i] < 0 {
			v = ar.neg(v)
		}
		fr.set(i, v)
	case j >= rv.nv:
		fr.set(int32(j-rv.nv), rv.one)
	default:
		for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
			fr.set(cs.rows[k], cs.vals[k])
		}
	}
	rv.fac.ftran(fr)
	ap := rv.apos
	ap.clear(rv.zero)
	for _, i := range fr.idx {
		if ar.sign(fr.val[i]) != 0 {
			ap.set(rv.fac.posOfPiv[i], fr.val[i])
		}
	}
}

// pivotRow computes ρ = eᵣᵀB⁻¹ (basis position r) into rv.rho; ρᵀA_j is
// then row r of B⁻¹A — the dense engine's pivot row — one dot at a time.
func (rv *revised[T, A]) pivotRow(r int) {
	rv.rho.clear(rv.zero)
	rv.rho.set(rv.fac.rowOfPos[r], rv.one)
	rv.fac.btran(rv.rho)
}

// primal runs the bounded-variable primal simplex over the given cost
// vector, repricing after every basis change (the revised engine's
// equivalent of the dense engine's maintained objective row; bound flips
// leave the basis — and hence every reduced cost — untouched, so they
// skip the reprice).
func (rv *revised[T, A]) primal(cost []T) Status {
	if rv.partial {
		return rv.primalPartial(cost)
	}
	ar := rv.ar
	dirty := true
	for {
		if rv.exhausted() {
			return StatusLimit
		}
		if dirty {
			rv.price(cost)
			dirty = false
		}
		enter, dir := rv.priceEnter()
		if enter < 0 {
			return StatusOptimal
		}
		rv.ftranCol(enter)
		step, flip, leaveRow, leaveAtUpper, ok := rv.ratio(enter, dir)
		if !ok {
			return StatusUnbounded
		}
		if flip {
			rv.boundFlip(enter, dir)
		} else {
			delta := step
			if dir < 0 {
				delta = ar.neg(step)
			}
			leaveStat := nbLower
			if leaveAtUpper {
				leaveStat = nbUpper
			}
			// The entering reduced cost is nonzero by construction, so the
			// dense engine always charges its objective row here.
			rv.exchange(leaveRow, enter, delta, leaveStat, true)
			dirty = true
		}
		rv.pr.observe(ar.sign(step) == 0)
	}
}

// primalPartial is primal under partial pricing: each pivot BTRANs the
// dual vector once (priceY) and derives reduced costs on demand for a
// rotating window of candidate columns, instead of refreshing all of them.
// An empty window advances to the next; scanning every window IS full
// pricing, so an optimality claim is never window-local. The
// degenerate-stall counter degrades the rule to Bland's least index over
// the full range, exactly as the full-pricing loop does. Work accounting is
// unchanged — exchange charges the same dense-equivalent units — so MaxWork
// budgets stay deterministic for this engine.
func (rv *revised[T, A]) primalPartial(cost []T) Status {
	ar := rv.ar
	dirty := true
	for {
		if rv.exhausted() {
			return StatusLimit
		}
		if dirty {
			rv.priceY(cost)
			dirty = false
		}
		enter, dir := rv.partialEnter(cost)
		if enter < 0 {
			return StatusOptimal
		}
		rv.ftranCol(enter)
		step, flip, leaveRow, leaveAtUpper, ok := rv.ratio(enter, dir)
		if !ok {
			return StatusUnbounded
		}
		if flip {
			rv.boundFlip(enter, dir)
		} else {
			delta := step
			if dir < 0 {
				delta = ar.neg(step)
			}
			leaveStat := nbLower
			if leaveAtUpper {
				leaveStat = nbUpper
			}
			rv.exchange(leaveRow, enter, delta, leaveStat, true)
			dirty = true
		}
		rv.pr.observe(ar.sign(step) == 0)
	}
}

// priceY refreshes only the BTRAN'd dual vector y = B⁻ᵀc_B into rv.yv;
// partialEnter derives individual reduced costs from it on demand.
func (rv *revised[T, A]) priceY(cost []T) {
	ar := rv.ar
	y := rv.yv
	y.clear(rv.zero)
	for pos := 0; pos < rv.m; pos++ {
		cb := cost[rv.basis[pos]]
		if ar.sign(cb) != 0 {
			y.set(rv.fac.rowOfPos[pos], cb)
		}
	}
	rv.fac.btran(y)
}

// partialEnter picks the entering column for primalPartial: Dantzig's rule
// over a rotating window of candidates, advancing window by window until
// one offers an eligible column (none across a full rotation ⇒ optimal),
// or Bland's least index over the full range under the stall fallback.
func (rv *revised[T, A]) partialEnter(cost []T) (enter, dir int) {
	ar := rv.ar
	n := rv.artStart
	y := rv.yv
	if rv.pr.bland {
		for j := 0; j < n; j++ {
			if rv.stat[j] == inBasis || rv.fixedRange(j) {
				continue
			}
			if jdir := rv.eligibleDir(ar.sub(cost[j], rv.dot(y, j)), j); jdir != 0 {
				return j, jdir
			}
		}
		return -1, 0
	}
	best := -1
	bestDir := 0
	var bestMag T
	j := rv.scan
	if j >= n {
		j = 0
	}
	for scanned := 0; scanned < n; {
		stop := scanned + rv.pwin
		if stop > n {
			stop = n
		}
		for ; scanned < stop; scanned++ {
			jj := j
			if j++; j >= n {
				j = 0
			}
			if rv.stat[jj] == inBasis || rv.fixedRange(jj) {
				continue
			}
			dj := ar.sub(cost[jj], rv.dot(y, jj))
			jdir := rv.eligibleDir(dj, jj)
			if jdir == 0 {
				continue
			}
			mag := dj
			if ar.sign(dj) < 0 {
				mag = ar.neg(dj)
			}
			if best < 0 || ar.cmp(mag, bestMag) > 0 {
				best, bestMag, bestDir = jj, mag, jdir
			}
		}
		if best >= 0 {
			rv.scan = j
			return best, bestDir
		}
	}
	return -1, 0
}

// eligibleDir returns the movement direction a nonbasic column with reduced
// cost d may profitably take from its current home, or 0 when none.
func (rv *revised[T, A]) eligibleDir(d T, j int) int {
	sd := rv.ar.sign(d)
	switch rv.stat[j] {
	case nbLower:
		if sd < 0 {
			return 1
		}
	case nbUpper:
		if sd > 0 {
			return -1
		}
	case nbFree:
		if sd < 0 {
			return 1
		} else if sd > 0 {
			return -1
		}
	}
	return 0
}

// priceEnter is tableau.priceEnter over the repriced d vector: Dantzig's
// most-attractive reduced cost, or Bland's least index under the stall
// fallback.
func (rv *revised[T, A]) priceEnter() (enter, dir int) {
	ar := rv.ar
	best := -1
	bestDir := 0
	var bestMag T
	for j := 0; j < rv.artStart; j++ {
		if rv.stat[j] == inBasis || rv.fixedRange(j) {
			continue
		}
		dj := rv.d[j]
		sd := ar.sign(dj)
		jdir := 0
		switch rv.stat[j] {
		case nbLower:
			if sd < 0 {
				jdir = 1
			}
		case nbUpper:
			if sd > 0 {
				jdir = -1
			}
		case nbFree:
			if sd < 0 {
				jdir = 1
			} else if sd > 0 {
				jdir = -1
			}
		}
		if jdir == 0 {
			continue
		}
		if rv.pr.bland {
			return j, jdir
		}
		mag := dj
		if sd < 0 {
			mag = ar.neg(dj)
		}
		if best < 0 || ar.cmp(mag, bestMag) > 0 {
			best, bestMag, bestDir = j, mag, jdir
		}
	}
	return best, bestDir
}

// ratio is tableau.ratio over the FTRAN'd entering column. Ties are
// resolved by (step, leaving basis index), a total order, so iterating the
// column's nonzeros in scatter order picks the same row as the dense
// engine's ascending row scan.
func (rv *revised[T, A]) ratio(enter, dir int) (step T, flip bool, leaveRow int, leaveAtUpper bool, ok bool) {
	ar := rv.ar
	haveLim := false
	var limT T
	leaveRow = -1
	for _, pos := range rv.apos.idx {
		a := rv.apos.val[pos]
		sa := ar.sign(a)
		if sa == 0 {
			continue
		}
		i := int(pos)
		k := rv.basis[i]
		decreasing := (dir > 0) == (sa > 0)
		var bound T
		if decreasing {
			if !rv.loF[k] {
				continue
			}
			bound = rv.lo[k]
		} else {
			if !rv.hiF[k] {
				continue
			}
			bound = rv.hi[k]
		}
		den := a
		if dir < 0 {
			den = ar.neg(a)
		}
		t := ar.div(ar.sub(rv.xB[i], bound), den)
		if ar.sign(t) < 0 {
			t = rv.zero
		}
		if !haveLim || ar.cmp(t, limT) < 0 ||
			(ar.cmp(t, limT) == 0 && k < rv.basis[leaveRow]) {
			haveLim, limT, leaveRow, leaveAtUpper = true, t, i, !decreasing
		}
	}
	if rv.loF[enter] && rv.hiF[enter] {
		rng := ar.sub(rv.hi[enter], rv.lo[enter])
		if !haveLim || ar.cmp(rng, limT) <= 0 {
			return rng, true, -1, false, true
		}
	}
	if !haveLim {
		var z T
		return z, false, -1, false, false
	}
	return limT, false, leaveRow, leaveAtUpper, true
}

// boundFlip moves the entering column to its opposite bound; no basis
// change, no eta, no work charge — as in the dense engine.
func (rv *revised[T, A]) boundFlip(enter, dir int) {
	ar := rv.ar
	rng := ar.sub(rv.hi[enter], rv.lo[enter])
	if dir < 0 {
		rng = ar.neg(rng)
	}
	if ar.sign(rng) != 0 {
		for _, pos := range rv.apos.idx {
			a := rv.apos.val[pos]
			if ar.sign(a) != 0 {
				rv.xB[pos] = ar.sub(rv.xB[pos], ar.mul(rng, a))
			}
		}
	}
	if dir > 0 {
		rv.stat[enter] = nbUpper
	} else {
		rv.stat[enter] = nbLower
	}
}

// exchange performs the basis exchange at position r with entering column
// e, whose FTRAN'd column is current in fraw/apos: basic values move by
// −delta·α, the leaving variable is re-homed to leaveStat, the eta file
// grows by one column, and work is charged exactly as the dense
// elimination would charge it — the pivot row, every other row with a
// nonzero in the entering column, and (when chargeObj) the objective row,
// each at one dense row length.
func (rv *revised[T, A]) exchange(r, e int, delta T, leaveStat vstat, chargeObj bool) {
	ar := rv.ar
	touched := int64(1)
	move := ar.sign(delta) != 0
	for _, pos := range rv.apos.idx {
		if int(pos) == r {
			continue
		}
		a := rv.apos.val[pos]
		if ar.sign(a) == 0 {
			continue
		}
		touched++
		if move {
			rv.xB[pos] = ar.sub(rv.xB[pos], ar.mul(delta, a))
		}
	}
	if chargeObj {
		touched++
	}
	rv.work += touched * int64(rv.stride)
	enterVal := ar.add(rv.nbValue(e), delta)
	k := rv.basis[r]
	rv.stat[k] = leaveStat
	rv.rowOf[k] = -1
	rv.fac.update(rv.fraw, rv.fac.rowOfPos[r])
	rv.basis[r] = e
	rv.rowOf[e] = r
	rv.stat[e] = inBasis
	rv.xB[r] = enterVal
	if rv.fac.needRefactor() {
		rv.fac.refactor(rv.basis)
	}
}

// swapZero drives a zero-valued basic artificial out through a zero-step
// exchange, charging work as the dense eliminate with a nil objective row.
func (rv *revised[T, A]) swapZero(r, enter int) {
	rv.ftranCol(enter)
	rv.exchange(r, enter, rv.zero, nbLower, false)
}

// dual mirrors tableau.dual: the bounded-variable dual simplex from a
// dual-feasible basis, with the same leaving/entering rules, stall
// fallback, and budget behavior. It requires d to be current on entry
// (rewarm prices before handing over, exactly as the dense engine's
// maintained objective row survives between solves) and maintains it
// across its own pivots with the dense update rule d_j ← d_j − θ·ρ_j over
// the pivot row computed for the entering scan, so no full reprice runs
// inside the loop.
func (rv *revised[T, A]) dual() dualResult {
	ar := rv.ar
	cap := 20*(rv.m+rv.n) + 1000
	rv.pr.reset()
	for iter := 0; ; iter++ {
		if iter > cap {
			return dualStuck
		}
		if rv.exhausted() {
			return dualBudget
		}
		// Leaving row: most violated basic bound (least basis index once
		// the degenerate-stall fallback engages).
		r := -1
		below := false
		var bestViol T
		for i := 0; i < rv.m; i++ {
			k := rv.basis[i]
			var viol T
			var vBelow bool
			switch {
			case rv.loF[k] && ar.cmp(rv.xB[i], rv.lo[k]) < 0:
				viol = ar.sub(rv.lo[k], rv.xB[i])
				vBelow = true
			case rv.hiF[k] && ar.cmp(rv.xB[i], rv.hi[k]) > 0:
				viol = ar.sub(rv.xB[i], rv.hi[k])
				vBelow = false
			default:
				continue
			}
			if r < 0 || (rv.pr.bland && k < rv.basis[r]) || (!rv.pr.bland && ar.cmp(viol, bestViol) > 0) {
				r, bestViol, below = i, viol, vBelow
			}
		}
		if r < 0 {
			return dualOptimal
		}
		k := rv.basis[r]
		target := rv.hi[k]
		if below {
			target = rv.lo[k]
		}
		rv.pivotRow(r)
		// Entering column: min |d_j|/|a_rj| over sign-eligible columns.
		// Every scanned pivot-row entry is cached for the d update below.
		e := -1
		var bestRatio, bestAbsA, prowE T
		for j := 0; j < rv.artStart; j++ {
			if rv.stat[j] == inBasis || rv.fixedRange(j) {
				continue
			}
			a := rv.dot(rv.rho, j)
			rv.prow[j] = a
			sa := ar.sign(a)
			if sa == 0 {
				continue
			}
			eligible := false
			switch rv.stat[j] {
			case nbLower:
				eligible = (below && sa < 0) || (!below && sa > 0)
			case nbUpper:
				eligible = (below && sa > 0) || (!below && sa < 0)
			case nbFree:
				eligible = true
			}
			if !eligible {
				continue
			}
			dj := rv.d[j]
			if ar.sign(dj) < 0 {
				dj = ar.neg(dj)
			}
			absA := a
			if sa < 0 {
				absA = ar.neg(a)
			}
			if e < 0 {
				e, bestRatio, bestAbsA, prowE = j, dj, absA, a
				continue
			}
			c := ar.cmp(ar.mul(dj, bestAbsA), ar.mul(bestRatio, absA))
			if c < 0 || (c == 0 && ((rv.pr.bland && j < e) || (!rv.pr.bland && ar.cmp(absA, bestAbsA) > 0))) {
				e, bestRatio, bestAbsA, prowE = j, dj, absA, a
			}
		}
		if e < 0 {
			// No column can absorb the violation: primal infeasible, with
			// dual feasibility intact for the next warm start.
			return dualInfeasible
		}
		delta := ar.div(ar.sub(rv.xB[r], target), prowE)
		rv.pr.observe(ar.sign(delta) == 0)
		chargeObj := ar.sign(rv.d[e]) != 0
		// Maintain reduced costs across the exchange with the dense
		// eliminate's own update, d_j ← d_j − θ·ρ_j (θ = d_e/ρ_e), over
		// the scanned columns; the entering column lands on zero
		// automatically and the leaving one picks up −θ.
		theta := ar.div(rv.d[e], prowE)
		if ar.sign(theta) != 0 {
			for j := 0; j < rv.artStart; j++ {
				if rv.stat[j] == inBasis || rv.fixedRange(j) {
					continue
				}
				if ar.sign(rv.prow[j]) != 0 {
					rv.d[j] = ar.sub(rv.d[j], ar.mul(theta, rv.prow[j]))
				}
			}
		}
		rv.ftranCol(e)
		leaveStat := nbUpper
		if below {
			leaveStat = nbLower
		}
		rv.exchange(r, e, delta, leaveStat, chargeObj)
		if k < rv.artStart {
			rv.d[k] = ar.neg(theta)
		}
		rv.d[e] = rv.zero
	}
}

// rewarm mirrors tableau.rewarm: re-home every nonbasic structural column
// against the new bounds using freshly priced reduced costs, then rebuild
// basic values as xB = B⁻¹(b − Σ A_j·v_j) with one FTRAN (the dense engine
// reads its maintained B⁻¹b column instead; the values are identical).
func (rv *revised[T, A]) rewarm() bool {
	ar := rv.ar
	rv.price(rv.cost)
	for j := 0; j < rv.nv; j++ {
		if rv.stat[j] == inBasis {
			continue
		}
		if rv.fixedRange(j) {
			rv.stat[j] = nbLower
			continue
		}
		sd := ar.sign(rv.d[j])
		switch rv.stat[j] {
		case nbLower:
			if rv.loF[j] && sd >= 0 {
				continue
			}
		case nbUpper:
			if rv.hiF[j] && sd <= 0 {
				continue
			}
		case nbFree:
			if !rv.loF[j] && !rv.hiF[j] && sd == 0 {
				continue
			}
		}
		switch {
		case sd > 0:
			if !rv.loF[j] {
				return false
			}
			rv.stat[j] = nbLower
		case sd < 0:
			if !rv.hiF[j] {
				return false
			}
			rv.stat[j] = nbUpper
		default:
			switch {
			case rv.loF[j]:
				rv.stat[j] = nbLower
			case rv.hiF[j]:
				rv.stat[j] = nbUpper
			default:
				rv.stat[j] = nbFree
			}
		}
	}
	w := rv.fraw
	w.clear(rv.zero)
	for i := 0; i < rv.m; i++ {
		if ar.sign(rv.convRHS[i]) != 0 {
			w.set(int32(i), rv.convRHS[i])
		}
	}
	for j := 0; j < rv.n; j++ {
		if rv.stat[j] == inBasis {
			continue
		}
		v := rv.nbValue(j)
		if ar.sign(v) == 0 {
			continue
		}
		rv.axpyCol(w, j, ar.neg(v))
	}
	rv.fac.ftran(w)
	for i := range rv.xB {
		rv.xB[i] = rv.zero
	}
	for _, i := range w.idx {
		rv.xB[rv.fac.posOfPiv[i]] = w.val[i]
	}
	return true
}

// axpyCol adds s·A_j into w (raw space).
func (rv *revised[T, A]) axpyCol(w *spVec[T], j int, s T) {
	ar := rv.ar
	cs := rv.cols
	switch {
	case j >= cs.artStart:
		i := int32(j - cs.artStart)
		v := s
		if cs.artSign[i] < 0 {
			v = ar.neg(v)
		}
		w.set(i, ar.add(w.val[i], v))
	case j >= rv.nv:
		i := int32(j - rv.nv)
		w.set(i, ar.add(w.val[i], s))
	default:
		for k := cs.ptr[j]; k < cs.ptr[j+1]; k++ {
			r := cs.rows[k]
			w.set(r, ar.add(w.val[r], ar.mul(s, cs.vals[k])))
		}
	}
}

// uniqueOptimum reports whether the current optimal basis certifies a
// unique optimal solution vector: every nonbasic non-fixed column carries a
// strictly signed (freshly priced) reduced cost, so any optimal point must
// keep all of them on their current bounds, which pins the basic values
// too. This is the acceptance test that lets a warm re-solve return its
// answer as bit-identical to a from-scratch solve; pure feasibility
// problems (zero objective) never certify and fall back to the cold path.
func (rv *revised[T, A]) uniqueOptimum() bool {
	if !rv.hasObj {
		return false
	}
	rv.price(rv.cost)
	for j := 0; j < rv.artStart; j++ {
		if rv.stat[j] == inBasis || rv.fixedRange(j) {
			continue
		}
		if rv.ar.sign(rv.d[j]) == 0 {
			return false
		}
	}
	return true
}

// value is the current assignment of structural column j.
func (rv *revised[T, A]) value(j int) T {
	if rv.stat[j] == inBasis {
		return rv.xB[rv.rowOf[j]]
	}
	return rv.nbValue(j)
}

func (rv *revised[T, A]) extractInto(dst []*big.Rat) {
	for j := 0; j < rv.nv; j++ {
		rv.ar.setRat(dst[j], rv.value(j))
	}
}

func (rv *revised[T, A]) firstFractionalInt() int {
	for j := 0; j < rv.nv; j++ {
		if rv.p.Vars[j].Integer && !rv.ar.isInt(rv.value(j)) {
			return j
		}
	}
	return -1
}

func (rv *revised[T, A]) objectiveValue() T {
	ar := rv.ar
	v := rv.zero
	for j := 0; j < rv.nv; j++ {
		if ar.sign(rv.cost[j]) == 0 {
			continue
		}
		v = ar.add(v, ar.mul(rv.cost[j], rv.value(j)))
	}
	return v
}
