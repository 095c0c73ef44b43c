package lp

import (
	"math"
	"math/big"
)

// arith abstracts the field the simplex pivots over, so one implementation
// serves the exact rational engines (big.Rat, and the int64 fast path in
// rat64.go) and the float64 engine.
//
// Go compiles a generic function once per GC shape and reaches the type
// argument's methods through a dictionary, so none of the scalar methods
// below inline into generic code. The four loops that dominate a solve —
// FTRAN's and BTRAN's eta sweeps, pricing's sparse column dot and the dual
// simplex's leaving-row scan — are therefore methods of the field too: the
// exact fields forward to the one generic body (ftranEtasOf, btranEtasOf,
// colDotOf, dualLeaveOf), and floatArith writes each as a plain float64
// loop that performs the generic body's operations and comparisons in the
// same order, so its results are bit-identical.
type arith[T any] interface {
	add(a, b T) T
	sub(a, b T) T
	mul(a, b T) T
	div(a, b T) T
	neg(a T) T
	// sign returns -1, 0 or +1; the float implementation applies a tolerance.
	sign(a T) int
	// cmp returns the sign of a-b under the same tolerance regime as sign.
	cmp(a, b T) int
	zero() T
	one() T
	fromRat(r *big.Rat) T
	toRat(a T) *big.Rat
	// setRat writes a into dst without allocating a new big.Rat, so hot
	// paths (branch-and-bound relaxation extraction) can reuse storage.
	setRat(dst *big.Rat, a T)
	// isInt reports whether a is integral, under the same tolerance regime
	// as setRat (the float engine snaps near-integers).
	isInt(a T) bool
	// ftranEtas applies E⁻¹ for each eta of es in order (ftranEtasOf).
	ftranEtas(es []eta[T], v *spVec[T])
	// btranEtas applies E⁻ᵀ for each eta of es in reverse order
	// (btranEtasOf).
	btranEtas(es []eta[T], v *spVec[T])
	// colDot returns Σ y[rows[k]]·vals[k] over the nonzero y entries
	// (colDotOf).
	colDot(y []T, rows []int32, vals []T) T
	// dualLeave returns the dual simplex's leaving basis position and
	// whether its value lies below its lower bound, or r = -1 when every
	// basic value is within its bounds (dualLeaveOf).
	dualLeave(basis []int, xB, lo, hi []T, loF, hiF []bool) (r int, below bool)
}

// ftranEtasOf is FTRAN's eta sweep, v ← E_k⁻¹···E_1⁻¹·v: an eta whose
// pivot entry is zero leaves v unchanged and is skipped.
func ftranEtasOf[T any, A arith[T]](ar A, es []eta[T], v *spVec[T]) {
	for ei := range es {
		e := &es[ei]
		t := v.val[e.piv]
		if ar.sign(t) == 0 {
			continue
		}
		t = ar.div(t, e.pivV)
		for k, r := range e.rows {
			v.set(r, ar.sub(v.val[r], ar.mul(t, e.vals[k])))
		}
		v.set(e.piv, t)
	}
}

// btranEtasOf is BTRAN's eta sweep, v ← E_1⁻ᵀ···E_k⁻ᵀ·v: each transposed
// eta rewrites only its pivot entry, from the nonzero entries on its rows.
func btranEtasOf[T any, A arith[T]](ar A, es []eta[T], v *spVec[T]) {
	for ei := len(es) - 1; ei >= 0; ei-- {
		e := &es[ei]
		s := v.val[e.piv]
		for k, r := range e.rows {
			yr := v.val[r]
			if ar.sign(yr) != 0 {
				s = ar.sub(s, ar.mul(e.vals[k], yr))
			}
		}
		if ar.sign(s) == 0 && !v.mark[e.piv] {
			continue
		}
		v.set(e.piv, ar.div(s, e.pivV))
	}
}

// colDotOf is yᵀA_j over a structural column's sparse entries.
func colDotOf[T any, A arith[T]](ar A, y []T, rows []int32, vals []T) T {
	s := ar.zero()
	for k, r := range rows {
		yv := y[r]
		if ar.sign(yv) != 0 {
			s = ar.add(s, ar.mul(yv, vals[k]))
		}
	}
	return s
}

// dualLeaveOf picks the dual simplex's leaving row: the basic value with
// the largest bound violation, the first such position winning ties.
func dualLeaveOf[T any, A arith[T]](ar A, basis []int, xB, lo, hi []T, loF, hiF []bool) (r int, below bool) {
	r = -1
	var bestViol T
	for i := 0; i < len(basis); i++ {
		k := basis[i]
		var viol T
		var vBelow bool
		switch {
		case loF[k] && ar.cmp(xB[i], lo[k]) < 0:
			viol = ar.sub(lo[k], xB[i])
			vBelow = true
		case hiF[k] && ar.cmp(xB[i], hi[k]) > 0:
			viol = ar.sub(xB[i], hi[k])
			vBelow = false
		default:
			continue
		}
		if r < 0 || ar.cmp(viol, bestViol) > 0 {
			r, bestViol, below = i, viol, vBelow
		}
	}
	return r, below
}

// ratArith is exact arithmetic over *big.Rat. Values are treated as
// immutable; every operation allocates. It is the promotion target when the
// rat64 engine overflows machine words.
type ratArith struct{}

func (ratArith) add(a, b *big.Rat) *big.Rat { return new(big.Rat).Add(a, b) }
func (ratArith) sub(a, b *big.Rat) *big.Rat { return new(big.Rat).Sub(a, b) }
func (ratArith) mul(a, b *big.Rat) *big.Rat { return new(big.Rat).Mul(a, b) }
func (ratArith) div(a, b *big.Rat) *big.Rat { return new(big.Rat).Quo(a, b) }
func (ratArith) neg(a *big.Rat) *big.Rat    { return new(big.Rat).Neg(a) }
func (ratArith) sign(a *big.Rat) int        { return a.Sign() }
func (ratArith) cmp(a, b *big.Rat) int      { return a.Cmp(b) }
func (ratArith) zero() *big.Rat             { return new(big.Rat) }
func (ratArith) one() *big.Rat              { return big.NewRat(1, 1) }
func (ratArith) fromRat(r *big.Rat) *big.Rat {
	return new(big.Rat).Set(r)
}
func (ratArith) toRat(a *big.Rat) *big.Rat       { return new(big.Rat).Set(a) }
func (ratArith) setRat(dst *big.Rat, a *big.Rat) { dst.Set(a) }
func (ratArith) isInt(a *big.Rat) bool           { return a.IsInt() }
func (ra ratArith) ftranEtas(es []eta[*big.Rat], v *spVec[*big.Rat]) {
	ftranEtasOf(ra, es, v)
}
func (ra ratArith) btranEtas(es []eta[*big.Rat], v *spVec[*big.Rat]) {
	btranEtasOf(ra, es, v)
}
func (ra ratArith) colDot(y []*big.Rat, rows []int32, vals []*big.Rat) *big.Rat {
	return colDotOf(ra, y, rows, vals)
}
func (ra ratArith) dualLeave(basis []int, xB, lo, hi []*big.Rat, loF, hiF []bool) (int, bool) {
	return dualLeaveOf(ra, basis, xB, lo, hi, loF, hiF)
}

// floatArith is float64 arithmetic with an absolute tolerance used by sign.
type floatArith struct{ eps float64 }

func (floatArith) add(a, b float64) float64 { return a + b }
func (floatArith) sub(a, b float64) float64 { return a - b }
func (floatArith) mul(a, b float64) float64 { return a * b }
func (floatArith) div(a, b float64) float64 { return a / b }
func (floatArith) neg(a float64) float64    { return -a }
func (f floatArith) sign(a float64) int {
	if a > f.eps {
		return 1
	}
	if a < -f.eps {
		return -1
	}
	return 0
}
func (f floatArith) cmp(a, b float64) int { return f.sign(a - b) }
func (floatArith) zero() float64          { return 0 }
func (floatArith) one() float64           { return 1 }

// fromRat converts an integer of magnitude at most 2^53 directly: float64
// represents it exactly, so the result is what Rat.Float64 returns, without
// the allocations Rat.Float64 makes. installBounds converts every bound on
// every branch-and-bound node, and branching bounds are integers.
func (floatArith) fromRat(r *big.Rat) float64 {
	if r.IsInt() && r.Num().IsInt64() {
		if n := r.Num().Int64(); -1<<53 <= n && n <= 1<<53 {
			return float64(n)
		}
	}
	v, _ := r.Float64()
	return v
}
func (fa floatArith) toRat(a float64) *big.Rat {
	out := new(big.Rat)
	fa.setRat(out, a)
	return out
}
func (floatArith) setRat(dst *big.Rat, a float64) {
	// Round near-integers exactly so integral solutions survive conversion.
	if r := math.Round(a); math.Abs(a-r) < 1e-7 && math.Abs(r) < 1e15 {
		dst.SetFrac64(int64(r), 1)
		return
	}
	dst.SetFloat64(a)
}

// isInt matches setRat's snapping: a float counts as integral exactly when
// setRat would emit an integer for it.
func (floatArith) isInt(a float64) bool {
	return math.Abs(a-math.Round(a)) < 1e-7 && math.Abs(a) < 1e15
}

// The float kernels below are ftranEtasOf, btranEtasOf, colDotOf and
// dualLeaveOf written out over float64, so every operation inlines. They
// keep the generic bodies' results bit for bit:
//   - a value is nonzero exactly when sign would say so (x > eps || x <
//     -eps), so NaN and |x| ≤ eps count as zero, and a comparison tests
//     a-b against ±eps, as cmp computes it;
//   - the skip rules, the mark bookkeeping and the operand order of every
//     subtraction, product and sum are the generic body's;
//   - every product is wrapped in float64(…), which forbids the compiler
//     from fusing it with the following add or subtract into one rounding
//     (the Go spec allows fusion otherwise, and arm64 does it), while the
//     generic body's separate non-inlined calls round each operation.
//
// Re-slicing vals to len(rows) lets the compiler drop the per-entry bounds
// check on vals.

func (f floatArith) ftranEtas(es []eta[float64], v *spVec[float64]) {
	eps := f.eps
	val := v.val
	for ei := range es {
		e := &es[ei]
		t := val[e.piv]
		if !(t > eps || t < -eps) {
			continue
		}
		t /= e.pivV
		vals := e.vals[:len(e.rows)]
		for k, r := range e.rows {
			v.set(r, val[r]-float64(t*vals[k]))
		}
		v.set(e.piv, t)
	}
}

func (f floatArith) btranEtas(es []eta[float64], v *spVec[float64]) {
	eps := f.eps
	val := v.val
	for ei := len(es) - 1; ei >= 0; ei-- {
		e := &es[ei]
		s := val[e.piv]
		vals := e.vals[:len(e.rows)]
		for k, r := range e.rows {
			if yr := val[r]; yr > eps || yr < -eps {
				s -= float64(vals[k] * yr)
			}
		}
		if !(s > eps || s < -eps) && !v.mark[e.piv] {
			continue
		}
		v.set(e.piv, s/e.pivV)
	}
}

func (f floatArith) colDot(y []float64, rows []int32, vals []float64) float64 {
	eps := f.eps
	vals = vals[:len(rows)]
	s := 0.0
	for k, r := range rows {
		if yv := y[r]; yv > eps || yv < -eps {
			s += float64(yv * vals[k])
		}
	}
	return s
}

func (f floatArith) dualLeave(basis []int, xB, lo, hi []float64, loF, hiF []bool) (r int, below bool) {
	eps := f.eps
	xB = xB[:len(basis)]
	r = -1
	var bestViol float64
	for i, k := range basis {
		x := xB[i]
		var viol float64
		var vBelow bool
		switch {
		case loF[k] && x-lo[k] < -eps:
			viol = lo[k] - x
			vBelow = true
		case hiF[k] && x-hi[k] > eps:
			viol = x - hi[k]
			vBelow = false
		default:
			continue
		}
		if r < 0 || viol-bestViol > eps {
			r, bestViol, below = i, viol, vBelow
		}
	}
	return r, below
}

// defaultEps is the float engine's zero tolerance.
const defaultEps = 1e-9
