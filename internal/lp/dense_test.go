package lp

import "math/big"

// This file keeps the dense bounded-variable tableau as the test oracle of
// the production simplex. Production solves run on the LU-factorized
// revised engine (revised.go); this engine makes the same decisions over an
// explicit m × (n+1) tableau: Dantzig/Bland phase-1 pricing over the same
// reduced costs, the same two-sided ratio test and tie-breaks, the same
// cold start, the same dual-simplex warm reentry, and the same work units
// per pivot.
// Under exact arithmetic every compared quantity is the same canonical
// rational in both representations, so the parity tests (parity_test.go)
// require bit-identical Solutions, MaxWork verdicts included.

// tableau is the dense bounded-variable simplex state over field T. One
// tableau serves an entire branch-and-bound tree: newTableau allocates the
// arena once, and solveNode re-solves it per node, warm when possible.
//
// Column layout: 0..nv-1 structural (one per model variable — free columns
// are kept free, not split), nv..nv+m-1 logicals (one per row), then m
// artificial slots used by cold phase-1 starts. Column n of each row stores
// B⁻¹b, maintained through pivots so warm starts can rebuild basic values
// after bound changes without refactorizing.
type tableau[T any, A arith[T]] struct {
	ar       A
	p        *Problem
	m        int // constraint rows
	nv       int // structural columns
	artStart int // nv + m
	n        int // total columns: nv + 2m
	stride   int // n + 1; column n is B⁻¹b

	rows  []T // m × stride, row-major
	basis []int
	rowOf []int // column → row it is basic in, -1 otherwise
	xB    []T   // value of the basic variable of each row
	stat  []vstat
	lo    []T
	hi    []T
	loF   []bool // finite-bound flags
	hiF   []bool

	// Pristine constraint system, converted to T once at construction.
	csr     *csrRows
	convVal []T // csr.vals converted
	convRHS []T

	nArt   int  // artificials activated by the last cold start
	warmOK bool // tableau holds the basis of a prior solve
	pr     pricer
	// work counts row-update operations spent in eliminate; workBudget is
	// the allowance from ILPOptions.MaxWork (0 = unlimited).
	work       int64
	workBudget int64
	// cancelC aborts the solve when it fires; cancelFired latches the
	// observation so status mapping can distinguish cancellation from
	// budget exhaustion after the fact.
	cancelC     <-chan struct{}
	cancelFired bool
}

func newTableau[T any, A arith[T]](p *Problem, ar A) *tableau[T, A] {
	nv := len(p.Vars)
	m := len(p.Constraints)
	tb := &tableau[T, A]{
		ar: ar, p: p,
		m: m, nv: nv, artStart: nv + m, n: nv + 2*m, stride: nv + 2*m + 1,
	}
	tb.csr, tb.convVal, tb.convRHS = problemCSR(p, ar)

	tb.rows = make([]T, m*tb.stride)
	tb.basis = make([]int, m)
	tb.rowOf = make([]int, tb.n)
	tb.xB = make([]T, m)
	tb.stat = make([]vstat, tb.n)
	tb.lo = make([]T, tb.n)
	tb.hi = make([]T, tb.n)
	tb.loF = make([]bool, tb.n)
	tb.hiF = make([]bool, tb.n)
	zero := ar.zero()
	for j := range tb.lo {
		tb.lo[j] = zero
		tb.hi[j] = zero
	}
	// Logical bounds encode the row sense; artificials stay locked at [0,0]
	// except while a cold phase 1 owns them.
	for i := 0; i < m; i++ {
		lcol := nv + i
		switch p.Constraints[i].Sense {
		case LE:
			tb.loF[lcol] = true // [0, ∞)
		case GE:
			tb.hiF[lcol] = true // (-∞, 0]
		case EQ:
			tb.loF[lcol], tb.hiF[lcol] = true, true // [0, 0]
		}
		acol := tb.artStart + i
		tb.loF[acol], tb.hiF[acol] = true, true
	}
	tb.pr = newPricer(m, tb.n)
	return tb
}

// Arena surface shared with the revised engine (see arena in ilp.go).

func (tb *tableau[T, A]) prob() *Problem { return tb.p }

func (tb *tableau[T, A]) startSearch(workBudget int64) {
	tb.warmOK = false
	tb.work = 0
	tb.workBudget = workBudget
}

func (tb *tableau[T, A]) workSpent() int64 { return tb.work }

// dropWarm forgets any warm basis so the next solveNode runs the
// deterministic cold path (a pure function of the pristine system and the
// node bounds), while the cumulative work counter and budget keep running.
// The frontier-fenced search calls this at every subtree root, which is
// what makes a subtree's pivot sequence independent of the arena it runs
// on.
func (tb *tableau[T, A]) dropWarm() {
	tb.warmOK = false
}

// setCancel installs (or, with nil, removes) the cancellation channel for
// subsequent solves and re-arms the latch; a retained arena serves many
// solves, each under its own caller context.
func (tb *tableau[T, A]) setCancel(c <-chan struct{}) {
	tb.cancelC = c
	tb.cancelFired = false
}

func (tb *tableau[T, A]) canceled() bool { return tb.cancelFired }

// exhausted reports whether the work budget has run out or the solve has
// been cancelled. It is checked once per pivot — the MaxWork accounting
// tick — so the elimination hot path stays unbranched between ticks and a
// cancelled solve stops within one pivot of the channel firing.
func (tb *tableau[T, A]) exhausted() bool {
	if tb.cancelC != nil {
		select {
		case <-tb.cancelC:
			tb.cancelFired = true
			return true
		default:
		}
	}
	return tb.workBudget > 0 && tb.work >= tb.workBudget
}

// setBounds installs per-variable bounds for the next solve (structural
// columns only; logical and artificial bounds are fixed by construction).
// It reports false when some lower bound exceeds its upper bound, which
// proves the node infeasible before any pivoting.
func (tb *tableau[T, A]) setBounds(lo, hi []*big.Rat) bool {
	return installBounds(tb.ar, tb.nv, lo, hi, tb.lo, tb.hi, tb.loF, tb.hiF)
}

// solveNode decides the problem under the given bounds, warm-starting from
// the previous node's basis via dual simplex when the tableau still holds
// one, and falling back to a cold phase 1 otherwise.
func (tb *tableau[T, A]) solveNode(lo, hi []*big.Rat) Status {
	if !tb.setBounds(lo, hi) {
		return StatusInfeasible
	}
	if tb.warmOK {
		tb.rewarm()
		switch tb.dual() {
		case dualOptimal:
			return StatusOptimal
		case dualInfeasible:
			// Only this node's bounds are unservable, so the NEXT node may
			// warm-start from here.
			return StatusInfeasible
		case dualBudget:
			return StatusLimit
		}
		// dualStuck: anti-cycling cap hit; restart cold for certainty.
	}
	// The cold path: rebuild the tableau and run phase 1 from an
	// all-logical basis patched with artificials.
	tb.cold()
	status := tb.phase1()
	tb.warmOK = status == StatusOptimal
	return status
}

// nbValue is the current value of a nonbasic column.
func (tb *tableau[T, A]) nbValue(j int) T {
	switch tb.stat[j] {
	case nbLower:
		return tb.lo[j]
	case nbUpper:
		return tb.hi[j]
	}
	return tb.ar.zero()
}

// fixedRange reports whether a column's bounds pin it to a single value
// (lo == hi), which removes it from every entering-candidate scan: such a
// column can never move, so pivoting it is pure basis shuffling. Locked
// artificials fall out of play through exactly this test.
func (tb *tableau[T, A]) fixedRange(j int) bool {
	return tb.loF[j] && tb.hiF[j] && tb.ar.cmp(tb.lo[j], tb.hi[j]) == 0
}

// cold rebuilds the tableau from the pristine constraint system: logical
// basis, nonbasic structurals at their preferred bound, and one artificial
// per row whose logical cannot absorb the residual.
func (tb *tableau[T, A]) cold() {
	ar := tb.ar
	zero := ar.zero()
	one := ar.one()
	for i := range tb.rows {
		tb.rows[i] = zero
	}
	for j := range tb.rowOf {
		tb.rowOf[j] = -1
	}
	for j := 0; j < tb.nv; j++ {
		switch {
		case tb.loF[j]:
			tb.stat[j] = nbLower
		case tb.hiF[j]:
			tb.stat[j] = nbUpper
		default:
			tb.stat[j] = nbFree
		}
	}
	for i := 0; i < tb.m; i++ {
		row := tb.rows[i*tb.stride : (i+1)*tb.stride]
		cols, _ := tb.csr.row(i)
		start := int(tb.csr.ptr[i])
		for idx, col := range cols {
			row[col] = tb.convVal[start+idx]
		}
		lcol := tb.nv + i
		row[lcol] = one
		row[tb.n] = tb.convRHS[i]
		tb.basis[i] = lcol
		tb.rowOf[lcol] = i
		tb.stat[lcol] = inBasis
		acol := tb.artStart + i
		tb.stat[acol] = nbLower
		tb.lo[acol], tb.hi[acol] = zero, zero
		tb.loF[acol], tb.hiF[acol] = true, true
		// x_logical = b - Σ a_ij v_j over nonbasic structurals at bounds.
		v := row[tb.n]
		for idx, col := range cols {
			cv := tb.nbValue(int(col))
			if ar.sign(cv) != 0 {
				v = ar.sub(v, ar.mul(tb.convVal[start+idx], cv))
			}
		}
		tb.xB[i] = v
	}
	// Patch rows whose logical start violates its own bounds with a basic
	// artificial absorbing the residual (always non-negative by sign choice).
	tb.nArt = 0
	for i := 0; i < tb.m; i++ {
		lcol := tb.nv + i
		var target T
		switch {
		case tb.loF[lcol] && ar.cmp(tb.xB[i], tb.lo[lcol]) < 0:
			target = tb.lo[lcol]
			tb.stat[lcol] = nbLower
		case tb.hiF[lcol] && ar.cmp(tb.xB[i], tb.hi[lcol]) > 0:
			target = tb.hi[lcol]
			tb.stat[lcol] = nbUpper
		default:
			continue
		}
		resid := ar.sub(tb.xB[i], target)
		acol := tb.artStart + i
		row := tb.rows[i*tb.stride : (i+1)*tb.stride]
		if ar.sign(resid) < 0 {
			// Negate the whole row so the artificial carries coefficient +1
			// and the tableau stays in basis-normalized (unit-column) form.
			for j := 0; j < tb.stride; j++ {
				row[j] = ar.neg(row[j])
			}
			resid = ar.neg(resid)
		}
		row[acol] = one
		tb.hiF[acol] = false // open to [0, ∞) for phase 1
		tb.rowOf[lcol] = -1
		tb.basis[i] = acol
		tb.rowOf[acol] = i
		tb.stat[acol] = inBasis
		tb.xB[i] = resid
		tb.nArt++
	}
}

// phase1 minimizes the activated artificials to zero. On success all
// artificials are driven nonbasic (or left basic at zero on redundant rows)
// and re-locked to [0,0].
func (tb *tableau[T, A]) phase1() Status {
	ar := tb.ar
	if tb.nArt > 0 {
		objRow := make([]T, tb.stride)
		zero := ar.zero()
		for j := range objRow {
			objRow[j] = zero
		}
		for j := tb.artStart; j < tb.n; j++ {
			if tb.hiF[j] {
				continue // not activated
			}
			objRow[j] = ar.one()
		}
		// Price out the basic artificials: objRow -= Σ cost_B · row_i.
		for i := 0; i < tb.m; i++ {
			if tb.basis[i] < tb.artStart {
				continue
			}
			row := tb.rows[i*tb.stride : (i+1)*tb.stride]
			for j := 0; j < tb.stride; j++ {
				objRow[j] = ar.sub(objRow[j], row[j])
			}
		}
		tb.pr.reset()
		if st := tb.primal(objRow); st != StatusOptimal {
			return st
		}
		infeas := zero
		for i := 0; i < tb.m; i++ {
			if tb.basis[i] >= tb.artStart {
				infeas = ar.add(infeas, tb.xB[i])
			}
		}
		if ar.sign(infeas) != 0 {
			return StatusInfeasible
		}
		// Drive zero-valued basic artificials out so warm reentries never
		// pivot around them; rows with no eligible column
		// are redundant and keep their artificial pinned at zero.
		for i := 0; i < tb.m; i++ {
			if tb.basis[i] < tb.artStart {
				continue
			}
			row := tb.rows[i*tb.stride : (i+1)*tb.stride]
			for j := 0; j < tb.artStart; j++ {
				if ar.sign(row[j]) != 0 {
					tb.swapZero(i, j)
					break
				}
			}
		}
		// Re-lock every artificial.
		for j := tb.artStart; j < tb.n; j++ {
			tb.hi[j] = zero
			tb.hiF[j] = true
		}
	}
	return StatusOptimal
}

// primal runs the bounded-variable primal simplex to optimality over the
// given phase-1 reduced-cost row (maintained through pivots). Artificial
// columns never enter; fixed-range columns are skipped wholesale. The
// phase-1 objective is bounded below by zero, so an unstoppable entering
// column means numerical failure, reported as infeasible.
func (tb *tableau[T, A]) primal(objRow []T) Status {
	ar := tb.ar
	for {
		if tb.exhausted() {
			return StatusLimit
		}
		enter, dir := tb.priceEnter(objRow)
		if enter < 0 {
			return StatusOptimal
		}
		step, flip, leaveRow, leaveAtUpper, ok := tb.ratio(enter, dir)
		if !ok {
			return StatusInfeasible
		}
		if flip {
			tb.boundFlip(enter, dir)
		} else {
			tb.pivot(leaveRow, enter, dir, step, leaveAtUpper, objRow)
		}
		tb.pr.observe(ar.sign(step) == 0)
	}
}

// priceEnter picks the entering column: Dantzig's most-attractive reduced
// cost, or Bland's least index while the stall fallback is active. dir is
// +1 when the column will increase off its lower bound (or zero), -1 when
// it will decrease off its upper bound.
func (tb *tableau[T, A]) priceEnter(objRow []T) (enter, dir int) {
	ar := tb.ar
	best := -1
	bestDir := 0
	var bestMag T
	for j := 0; j < tb.artStart; j++ {
		if tb.stat[j] == inBasis || tb.fixedRange(j) {
			continue
		}
		d := objRow[j]
		sd := ar.sign(d)
		jdir := 0
		switch tb.stat[j] {
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
		if tb.pr.bland {
			return j, jdir
		}
		mag := d
		if sd < 0 {
			mag = ar.neg(d)
		}
		if best < 0 || ar.cmp(mag, bestMag) > 0 {
			best, bestMag, bestDir = j, mag, jdir
		}
	}
	return best, bestDir
}

// ratio runs the two-sided ratio test for entering column `enter` moving in
// direction dir. It returns the step length and either a bound flip (the
// entering column traverses to its opposite bound) or the leaving row and
// which of its bounds blocks. ok=false means no limit exists.
func (tb *tableau[T, A]) ratio(enter, dir int) (step T, flip bool, leaveRow int, leaveAtUpper bool, ok bool) {
	ar := tb.ar
	haveLim := false
	var limT T
	leaveRow = -1
	for i := 0; i < tb.m; i++ {
		a := tb.rows[i*tb.stride+enter]
		sa := ar.sign(a)
		if sa == 0 {
			continue
		}
		k := tb.basis[i]
		// x_k moves by -dir·t·a: dir·a > 0 pushes it down toward its lower
		// bound, dir·a < 0 up toward its upper bound.
		decreasing := (dir > 0) == (sa > 0)
		var bound T
		if decreasing {
			if !tb.loF[k] {
				continue
			}
			bound = tb.lo[k]
		} else {
			if !tb.hiF[k] {
				continue
			}
			bound = tb.hi[k]
		}
		den := a
		if dir < 0 {
			den = ar.neg(a)
		}
		t := ar.div(ar.sub(tb.xB[i], bound), den)
		if ar.sign(t) < 0 {
			t = ar.zero() // float drift below a bound: force a degenerate step
		}
		if !haveLim || ar.cmp(t, limT) < 0 ||
			(ar.cmp(t, limT) == 0 && k < tb.basis[leaveRow]) {
			haveLim, limT, leaveRow, leaveAtUpper = true, t, i, !decreasing
		}
	}
	if tb.loF[enter] && tb.hiF[enter] {
		rng := ar.sub(tb.hi[enter], tb.lo[enter])
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

// boundFlip moves the entering column across to its opposite bound without
// a basis change — the O(m) fast case of the bounded ratio test.
func (tb *tableau[T, A]) boundFlip(enter, dir int) {
	ar := tb.ar
	rng := ar.sub(tb.hi[enter], tb.lo[enter])
	if dir < 0 {
		rng = ar.neg(rng)
	}
	if ar.sign(rng) != 0 {
		for i := 0; i < tb.m; i++ {
			a := tb.rows[i*tb.stride+enter]
			if ar.sign(a) != 0 {
				tb.xB[i] = ar.sub(tb.xB[i], ar.mul(rng, a))
			}
		}
	}
	if dir > 0 {
		tb.stat[enter] = nbUpper
	} else {
		tb.stat[enter] = nbLower
	}
}

// pivot performs the basis exchange: entering column moves dir·step off its
// bound, the leaving row's basic variable lands exactly on the blocking
// bound, and the tableau (plus objRow, when given) is eliminated around the
// new unit column.
func (tb *tableau[T, A]) pivot(r, enter, dir int, step T, leaveAtUpper bool, objRow []T) {
	ar := tb.ar
	delta := step
	if dir < 0 {
		delta = ar.neg(step)
	}
	if ar.sign(delta) != 0 {
		for i := 0; i < tb.m; i++ {
			if i == r {
				continue
			}
			a := tb.rows[i*tb.stride+enter]
			if ar.sign(a) != 0 {
				tb.xB[i] = ar.sub(tb.xB[i], ar.mul(delta, a))
			}
		}
	}
	enterVal := ar.add(tb.nbValue(enter), delta)
	k := tb.basis[r]
	if leaveAtUpper {
		tb.stat[k] = nbUpper
	} else {
		tb.stat[k] = nbLower
	}
	tb.rowOf[k] = -1
	tb.eliminate(r, enter, objRow)
	tb.basis[r] = enter
	tb.rowOf[enter] = r
	tb.stat[enter] = inBasis
	tb.xB[r] = enterVal
}

// swapZero performs the zero-step basis swap used to drive a basic
// artificial (at value zero) out of the basis.
func (tb *tableau[T, A]) swapZero(r, enter int) {
	k := tb.basis[r]
	tb.stat[k] = nbLower
	tb.rowOf[k] = -1
	enterVal := tb.nbValue(enter)
	tb.eliminate(r, enter, nil)
	tb.basis[r] = enter
	tb.rowOf[enter] = r
	tb.stat[enter] = inBasis
	tb.xB[r] = enterVal
}

// eliminate normalizes row r on column col and eliminates the column from
// every other row (and from objRow when non-nil), including the B⁻¹b column.
// Every basis change passes through here, so this is also where the work
// accounting lives: each touched row charges one row length.
func (tb *tableau[T, A]) eliminate(r, col int, objRow []T) {
	ar := tb.ar
	touched := int64(1) // the pivot row itself
	prow := tb.rows[r*tb.stride : (r+1)*tb.stride]
	pv := prow[col]
	if ar.cmp(pv, ar.one()) != 0 {
		inv := ar.div(ar.one(), pv)
		for j := 0; j < tb.stride; j++ {
			prow[j] = ar.mul(prow[j], inv)
		}
	}
	for i := 0; i < tb.m; i++ {
		if i == r {
			continue
		}
		row := tb.rows[i*tb.stride : (i+1)*tb.stride]
		f := row[col]
		if ar.sign(f) == 0 {
			continue
		}
		touched++
		for j := 0; j < tb.stride; j++ {
			row[j] = ar.sub(row[j], ar.mul(f, prow[j]))
		}
	}
	if objRow != nil {
		f := objRow[col]
		if ar.sign(f) != 0 {
			touched++
			for j := 0; j < tb.stride; j++ {
				objRow[j] = ar.sub(objRow[j], ar.mul(f, prow[j]))
			}
		}
	}
	tb.work += touched * int64(tb.stride)
}

// rewarm re-anchors nonbasic columns to the new node's bounds and rebuilds
// basic values from the maintained B⁻¹b column. A column whose status
// matches a bound it still has stays; any other goes to its lower bound,
// else its upper, else free (a fixed column to its lower bound). Every
// reduced cost is zero, so any home is dual feasible.
func (tb *tableau[T, A]) rewarm() {
	ar := tb.ar
	for j := 0; j < tb.nv; j++ {
		st := tb.stat[j]
		switch {
		case st == inBasis:
			// A basic column has no home to keep.
		case tb.fixedRange(j):
			tb.stat[j] = nbLower
		case st == nbLower && tb.loF[j], st == nbUpper && tb.hiF[j], st == nbFree && !tb.loF[j] && !tb.hiF[j]:
			// The column still has the bound its status names.
		case tb.loF[j]:
			tb.stat[j] = nbLower
		case tb.hiF[j]:
			tb.stat[j] = nbUpper
		default:
			tb.stat[j] = nbFree
		}
	}
	// xB = B⁻¹b − Σ (B⁻¹A)_j · v_j over nonbasic columns off zero.
	for i := 0; i < tb.m; i++ {
		tb.xB[i] = tb.rows[i*tb.stride+tb.n]
	}
	for j := 0; j < tb.n; j++ {
		if tb.stat[j] == inBasis {
			continue
		}
		v := tb.nbValue(j)
		if ar.sign(v) == 0 {
			continue
		}
		for i := 0; i < tb.m; i++ {
			a := tb.rows[i*tb.stride+j]
			if ar.sign(a) != 0 {
				tb.xB[i] = ar.sub(tb.xB[i], ar.mul(a, v))
			}
		}
	}
}

// dual runs the bounded-variable dual simplex from the previous node's
// basis until primal feasibility, a primal-infeasibility certificate, or
// the anti-cycling pivot cap. This is the warm-start engine: a
// branch-and-bound child differs from the last solved node by one bound,
// so a handful of dual pivots replaces a full cold solve. Every reduced
// cost is zero, so the entering column is the first sign-eligible one
// with the largest pivot-row entry (the first eligible one under the
// stall fallback).
func (tb *tableau[T, A]) dual() dualResult {
	ar := tb.ar
	cap := 20*(tb.m+tb.n) + 1000
	tb.pr.reset()
	for iter := 0; ; iter++ {
		if iter > cap {
			return dualStuck
		}
		if tb.exhausted() {
			return dualBudget
		}
		// Leaving row: most violated basic bound (least basis index once
		// the degenerate-stall fallback engages).
		r := -1
		below := false
		var bestViol T
		for i := 0; i < tb.m; i++ {
			k := tb.basis[i]
			var viol T
			var vBelow bool
			switch {
			case tb.loF[k] && ar.cmp(tb.xB[i], tb.lo[k]) < 0:
				viol = ar.sub(tb.lo[k], tb.xB[i])
				vBelow = true
			case tb.hiF[k] && ar.cmp(tb.xB[i], tb.hi[k]) > 0:
				viol = ar.sub(tb.xB[i], tb.hi[k])
				vBelow = false
			default:
				continue
			}
			if r < 0 || (tb.pr.bland && k < tb.basis[r]) || (!tb.pr.bland && ar.cmp(viol, bestViol) > 0) {
				r, bestViol, below = i, viol, vBelow
			}
		}
		if r < 0 {
			return dualOptimal
		}
		k := tb.basis[r]
		target := tb.hi[k]
		if below {
			target = tb.lo[k]
		}
		prow := tb.rows[r*tb.stride : (r+1)*tb.stride]
		e := -1
		var bestAbsA T
		for j := 0; j < tb.artStart; j++ {
			if tb.stat[j] == inBasis || tb.fixedRange(j) {
				continue
			}
			a := prow[j]
			sa := ar.sign(a)
			if sa == 0 {
				continue
			}
			eligible := false
			switch tb.stat[j] {
			case nbLower: // moves up: needs a < 0 to raise x_k (below), a > 0 to lower it
				eligible = (below && sa < 0) || (!below && sa > 0)
			case nbUpper: // moves down
				eligible = (below && sa > 0) || (!below && sa < 0)
			case nbFree:
				eligible = true
			}
			if !eligible {
				continue
			}
			if tb.pr.bland {
				e = j
				break
			}
			absA := a
			if sa < 0 {
				absA = ar.neg(a)
			}
			if e < 0 || ar.cmp(absA, bestAbsA) > 0 {
				e, bestAbsA = j, absA
			}
		}
		if e < 0 {
			// No column can absorb the violation: primal infeasible, and
			// the basis stays a valid start for the next warm reentry.
			return dualInfeasible
		}
		delta := ar.div(ar.sub(tb.xB[r], target), prow[e])
		tb.pr.observe(ar.sign(delta) == 0)
		for i := 0; i < tb.m; i++ {
			if i == r {
				continue
			}
			a := tb.rows[i*tb.stride+e]
			if ar.sign(a) != 0 {
				tb.xB[i] = ar.sub(tb.xB[i], ar.mul(delta, a))
			}
		}
		enterVal := ar.add(tb.nbValue(e), delta)
		if below {
			tb.stat[k] = nbLower
		} else {
			tb.stat[k] = nbUpper
		}
		tb.rowOf[k] = -1
		tb.eliminate(r, e, nil)
		tb.basis[r] = e
		tb.rowOf[e] = r
		tb.stat[e] = inBasis
		tb.xB[r] = enterVal
	}
}

// value is the current assignment of structural column j.
func (tb *tableau[T, A]) value(j int) T {
	if tb.stat[j] == inBasis {
		return tb.xB[tb.rowOf[j]]
	}
	return tb.nbValue(j)
}

// extractInto writes the model-variable values of the current basis into
// dst (len NumVars, entries preallocated), reusing the big.Rat storage so
// branch-and-bound reads candidate values without allocating fresh slices.
func (tb *tableau[T, A]) extractInto(dst []*big.Rat) {
	for j := 0; j < tb.nv; j++ {
		tb.ar.setRat(dst[j], tb.value(j))
	}
}

// firstFractionalInt returns the first integer-marked variable with a
// fractional relaxation value, or -1. It works in the tableau's own field,
// so the branch-and-bound hot path never materializes big.Rat values.
func (tb *tableau[T, A]) firstFractionalInt() int {
	for j := 0; j < tb.nv; j++ {
		if tb.p.Vars[j].Integer && !tb.ar.isInt(tb.value(j)) {
			return j
		}
	}
	return -1
}

// denseLP decides p's continuous relaxation from scratch on the dense
// oracle, with SolveLPWith's rat64 → big.Rat promotion.
func denseLP(p *Problem) (*Solution, error) {
	var sol *Solution
	var err error
	if promote(func() { sol, err = solveArenaLP[rat64](newTableau[rat64, rat64Arith](p, rat64Arith{}), nil) }) {
		return sol, err
	}
	return solveArenaLP[*big.Rat](newTableau[*big.Rat, ratArith](p, ratArith{}), nil)
}

// denseILP is solveILP's exact branch and bound on the dense oracle.
func denseILP(p *Problem, opts ILPOptions) (*Solution, error) {
	var sol *Solution
	var err error
	if promote(func() { sol, err = denseILPWith[rat64, rat64Arith](p, rat64Arith{}, opts) }) {
		return sol, err
	}
	return denseILPWith[*big.Rat, ratArith](p, ratArith{}, opts)
}

func denseILPWith[T any, A arith[T]](p *Problem, ar A, opts ILPOptions) (*Solution, error) {
	return bbSolveArena[T](p, newTableau[T, A](p, ar), ar, opts)
}
