package lp

import (
	"math"
	"math/big"
)

// rat64 is an exact rational with int64 numerator and denominator: the
// small-rational fast path of the exact engine. Contract tableaus almost
// never leave machine words, so pivoting on rat64 values avoids the heap
// churn of big.Rat entirely. Every operation that would overflow an int64
// panics with rat64Overflow; the solver entry points catch the panic and
// transparently re-run the whole solve over big.Rat (see promote()).
//
// Invariants: d > 0 and gcd(|n|, d) == 1.
type rat64 struct{ n, d int64 }

// rat64Overflow is the panic payload signalling promotion to big.Rat.
type rat64Overflow struct{}

// promote runs f, converting a rat64 overflow panic into ok=false so the
// caller can retry with the big.Rat engine. Other panics pass through.
func promote(f func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, is := r.(rat64Overflow); is {
				ok = false
				return
			}
			panic(r)
		}
	}()
	f()
	return true
}

func chkAdd64(a, b int64) int64 {
	c := a + b
	if (b > 0 && c < a) || (b < 0 && c > a) {
		panic(rat64Overflow{})
	}
	return c
}

func chkMul64(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/b != a || (a == math.MinInt64 && b == -1) || (b == math.MinInt64 && a == -1) {
		panic(rat64Overflow{})
	}
	return c
}

func chkNeg64(a int64) int64 {
	if a == math.MinInt64 {
		panic(rat64Overflow{})
	}
	return -a
}

func gcd64(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return chkNeg64(a)
	}
	return a
}

// makeRat64 normalizes n/d into the canonical reduced form.
func makeRat64(n, d int64) rat64 {
	if d == 0 {
		panic("lp: rat64 division by zero")
	}
	if d < 0 {
		n, d = chkNeg64(n), chkNeg64(d)
	}
	if n == 0 {
		return rat64{0, 1}
	}
	g := gcd64(abs64(n), d)
	return rat64{n / g, d / g}
}

// rat64Arith implements arith[rat64].
type rat64Arith struct{}

func (rat64Arith) add(a, b rat64) rat64 {
	if a.n == 0 {
		return b
	}
	if b.n == 0 {
		return a
	}
	g := gcd64(a.d, b.d)
	bd := b.d / g
	n := chkAdd64(chkMul64(a.n, bd), chkMul64(b.n, a.d/g))
	return makeRat64(n, chkMul64(a.d, bd))
}

func (ra rat64Arith) sub(a, b rat64) rat64 { return ra.add(a, rat64{chkNeg64(b.n), b.d}) }

func (rat64Arith) mul(a, b rat64) rat64 {
	if a.n == 0 || b.n == 0 {
		return rat64{0, 1}
	}
	// Cross-reduce before multiplying to keep intermediates small.
	g1 := gcd64(abs64(a.n), b.d)
	g2 := gcd64(abs64(b.n), a.d)
	return rat64{chkMul64(a.n/g1, b.n/g2), chkMul64(a.d/g2, b.d/g1)}
}

func (ra rat64Arith) div(a, b rat64) rat64 {
	if b.n == 0 {
		panic("lp: rat64 division by zero")
	}
	inv := rat64{b.d, b.n}
	if inv.d < 0 {
		inv.n, inv.d = chkNeg64(inv.n), chkNeg64(inv.d)
	}
	return ra.mul(a, inv)
}

func (rat64Arith) neg(a rat64) rat64 { return rat64{chkNeg64(a.n), a.d} }

func (rat64Arith) sign(a rat64) int {
	switch {
	case a.n > 0:
		return 1
	case a.n < 0:
		return -1
	}
	return 0
}

func (ra rat64Arith) cmp(a, b rat64) int {
	// a.n/a.d - b.n/b.d has the sign of a.n*b.d - b.n*a.d (denominators > 0).
	return ra.sign(rat64{chkAdd64(chkMul64(a.n, b.d), chkNeg64(chkMul64(b.n, a.d))), 1})
}

func (rat64Arith) zero() rat64 { return rat64{0, 1} }
func (rat64Arith) one() rat64  { return rat64{1, 1} }

func (rat64Arith) fromRat(r *big.Rat) rat64 {
	num, den := r.Num(), r.Denom()
	if !num.IsInt64() || !den.IsInt64() {
		panic(rat64Overflow{})
	}
	return rat64{num.Int64(), den.Int64()} // big.Rat is already reduced
}

func (rat64Arith) toRat(a rat64) *big.Rat { return new(big.Rat).SetFrac64(a.n, a.d) }

func (rat64Arith) setRat(dst *big.Rat, a rat64) { dst.SetFrac64(a.n, a.d) }

func (rat64Arith) isInt(a rat64) bool { return a.d == 1 }

func (ra rat64Arith) ftranEtas(es []eta[rat64], v *spVec[rat64]) { ftranEtasOf(ra, es, v) }

func (ra rat64Arith) btranEtas(es []eta[rat64], v *spVec[rat64]) { btranEtasOf(ra, es, v) }

func (ra rat64Arith) colDot(y []rat64, rows []int32, vals []rat64) rat64 {
	return colDotOf(ra, y, rows, vals)
}

func (ra rat64Arith) dualLeave(basis []int, xB, lo, hi []rat64, loF, hiF []bool, bland bool) (int, bool) {
	return dualLeaveOf(ra, basis, xB, lo, hi, loF, hiF, bland)
}
