package lp

import "math/big"

// This file holds the LP entry point and the pieces every engine shares.
// The simplex itself is a bounded-variable phase-1 primal simplex with a
// dual-simplex reentry path over an exact or floating field T, kept as an
// LU-factorized revised engine (revised.go, factor.go).
//
// Standard form: every model constraint i gets one logical column s_i with
//
//	Σ_j a_ij x_j + s_i = b_i,   s_i ∈ [0,∞) for ≤, (-∞,0] for ≥, [0,0] for =,
//
// and every variable keeps its declared bounds implicitly: a nonbasic column
// sits at its lower bound, at its upper bound, or (for free columns) at
// zero, instead of contributing extra `x ≤ cap` rows. Branch-and-bound nodes
// therefore change only bound values, never the column structure, which is
// what makes the warm-started reentry in solveNode sound: a problem has no
// objective, so every reduced cost is zero and every basis is dual
// feasible, and the child is re-solved with a handful of dual pivots from
// the previous node's basis instead of a fresh phase 1 from artificials.
//
// Phase 1 prices with Dantzig's rule (most attractive reduced cost) and a
// degenerate-stall fallback to Bland's least-index rule (pricing.go), so
// typical pivot counts stay low while termination remains guaranteed.

// SolveOptions tunes SolveLPWith.
type SolveOptions struct {
	// Cancel, when non-nil, aborts the solve when the channel fires; the
	// solve then returns StatusCanceled. See ILPOptions.Cancel for the
	// tick semantics.
	Cancel <-chan struct{}
}

// SolveLPWith decides the continuous relaxation of p with the exact
// rational engine: one ResolveWith of a fresh Model. Arithmetic runs over
// int64 numerator/denominator pairs (rat64) and transparently promotes the
// whole solve to big.Rat on overflow, so results are exact either way.
// Integrality markers on variables are ignored.
func SolveLPWith(p *Problem, opts SolveOptions) (*Solution, error) {
	return NewModel(p).ResolveWith(opts)
}

// solveArenaLP runs one cold LP solve in tb under the problem's declared
// bounds, from the state of a freshly built arena and under the given
// cancellation channel: the LP driver behind Model.ResolveWith.
func solveArenaLP[T any](tb arena[T], cancel <-chan struct{}) (*Solution, error) {
	tb.setCancel(cancel)
	tb.startSearch(0)
	p := tb.prob()
	lo, hi := declaredBounds(p)
	start := tb.workSpent()
	status := tb.solveNode(lo, hi)
	meterWork(tb.workSpent() - start)
	switch status {
	case StatusInfeasible:
		return &Solution{Status: status}, nil
	case StatusLimit:
		// An LP solve has no work budget of its own; the only way to hit
		// the tick is the cancellation channel.
		return &Solution{Status: StatusCanceled}, nil
	}
	values := make([]*big.Rat, len(p.Vars))
	for i := range values {
		values[i] = new(big.Rat)
	}
	tb.extractInto(values)
	return &Solution{Status: StatusOptimal, Values: values}, nil
}

// declaredBounds returns the per-variable declared bounds — the bound
// vectors of an LP solve.
func declaredBounds(p *Problem) (lo, hi []*big.Rat) {
	lo = make([]*big.Rat, len(p.Vars))
	hi = make([]*big.Rat, len(p.Vars))
	for i := range p.Vars {
		lo[i] = p.Vars[i].Lower
		hi[i] = p.Vars[i].Upper
	}
	return lo, hi
}

// vstat is the simplex status of one column.
type vstat uint8

const (
	nbLower vstat = iota // nonbasic at its lower bound
	nbUpper              // nonbasic at its upper bound
	nbFree               // nonbasic free column resting at zero
	inBasis
)

// problemCSR builds the constraint matrix as sorted CSR triplets with
// duplicates merged, plus the values and right-hand sides converted to the
// engine's field — built once per engine and reread by every cold restart.
func problemCSR[T any, A arith[T]](p *Problem, ar A) (*csrRows, []T, []T) {
	m := len(p.Constraints)
	csr := newCSRRows(m, 4*m)
	for ci := range p.Constraints {
		c := &p.Constraints[ci]
		for _, t := range c.Terms {
			csr.add(int(t.Var), t.Coef)
		}
		csr.endRow(c.Sense, c.RHS)
	}
	convVal := make([]T, len(csr.vals))
	for i, v := range csr.vals {
		convVal[i] = ar.fromRat(v)
	}
	convRHS := make([]T, m)
	for i, r := range csr.rhs {
		convRHS[i] = ar.fromRat(r)
	}
	return csr, convVal, convRHS
}

// installBounds writes per-variable declared bounds into an engine's bound
// arrays (structural columns only), reporting false on a lo>hi conflict.
func installBounds[T any, A arith[T]](ar A, nv int, lo, hi []*big.Rat, tlo, thi []T, loF, hiF []bool) bool {
	zero := ar.zero()
	ok := true
	for j := 0; j < nv; j++ {
		l, h := lo[j], hi[j]
		if l != nil {
			tlo[j], loF[j] = ar.fromRat(l), true
		} else {
			tlo[j], loF[j] = zero, false
		}
		if h != nil {
			thi[j], hiF[j] = ar.fromRat(h), true
		} else {
			thi[j], hiF[j] = zero, false
		}
		// Compare by VALUE, in the engine's field (big.Rat.Cmp allocates,
		// and this runs per variable per branch-and-bound node). An earlier
		// revision short-circuited on pointer equality of the two *big.Rat
		// bounds, which silently assumed callers never alias distinct
		// values through one pointer; values are the contract now, and
		// aliased fixed bounds (lo == hi through the same pointer) compare
		// equal rather than skipping the conflict check.
		if l != nil && h != nil && ar.cmp(tlo[j], thi[j]) > 0 {
			ok = false
		}
	}
	return ok
}

// dualResult is how a dual-simplex reentry ended.
type dualResult uint8

const (
	dualOptimal dualResult = iota
	dualInfeasible
	dualStuck
	dualBudget // pivot budget exhausted mid-reentry
)

// csrRows accumulates the constraint system as sorted sparse triplets with
// a CSR layout: row r occupies cols/vals[ptr[r]:ptr[r+1]], sorted by column
// with duplicates merged. Compared to one map[int]*big.Rat per row this is
// two flat appends per term and no hashing.
type csrRows struct {
	ptr    []int32
	cols   []int32
	vals   []*big.Rat
	senses []Sense
	rhs    []*big.Rat
}

func newCSRRows(rowHint, nnzHint int) *csrRows {
	return &csrRows{
		ptr:    make([]int32, 1, rowHint+1),
		cols:   make([]int32, 0, nnzHint),
		vals:   make([]*big.Rat, 0, nnzHint),
		senses: make([]Sense, 0, rowHint),
		rhs:    make([]*big.Rat, 0, rowHint),
	}
}

func (c *csrRows) numRows() int { return len(c.senses) }

func (c *csrRows) row(r int) ([]int32, []*big.Rat) {
	return c.cols[c.ptr[r]:c.ptr[r+1]], c.vals[c.ptr[r]:c.ptr[r+1]]
}

// add appends a term to the open row. coef is not retained; duplicates of
// the same column are merged by endRow.
func (c *csrRows) add(col int, coef *big.Rat) {
	c.cols = append(c.cols, int32(col))
	c.vals = append(c.vals, new(big.Rat).Set(coef))
}

// endRow seals the open row: sorts its triplets by column (insertion sort —
// rows are short), merges duplicate columns, and records sense and RHS.
func (c *csrRows) endRow(sense Sense, rhs *big.Rat) {
	start := int(c.ptr[len(c.ptr)-1])
	seg := c.cols[start:]
	vseg := c.vals[start:]
	for i := 1; i < len(seg); i++ {
		for j := i; j > 0 && seg[j] < seg[j-1]; j-- {
			seg[j], seg[j-1] = seg[j-1], seg[j]
			vseg[j], vseg[j-1] = vseg[j-1], vseg[j]
		}
	}
	// Merge equal columns in place.
	out := 0
	for i := 0; i < len(seg); i++ {
		if out > 0 && seg[out-1] == seg[i] {
			vseg[out-1].Add(vseg[out-1], vseg[i])
			continue
		}
		seg[out] = seg[i]
		vseg[out] = vseg[i]
		out++
	}
	c.cols = c.cols[:start+out]
	c.vals = c.vals[:start+out]
	c.ptr = append(c.ptr, int32(len(c.cols)))
	c.senses = append(c.senses, sense)
	c.rhs = append(c.rhs, rhs)
}
