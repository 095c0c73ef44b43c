package lp

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// This file holds floatArith's concrete kernels to the generic bodies the
// exact fields run: instantiated on floatArith, ftranEtasOf, btranEtasOf,
// colDotOf and dualLeaveOf perform the same float64 operations through
// separate, individually rounded method calls, so the kernels must
// reproduce their results bit for bit — every value, the touched-index
// order and the marks, and the leaving row the dual simplex picks.

// kernelValue draws from a pool built to stress the zero test and the
// rounding order: exact zeros of both signs, values exactly at and inside
// ±eps, NaN, small integers and halves whose products cancel exactly, pairs
// one part in 1e10 apart whose differences land inside eps, and wide
// random magnitudes.
func kernelValue(rng *rand.Rand, eps float64) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{eps, -eps}[rng.Intn(2)]
	case 3:
		return (rng.Float64()*2 - 1) * eps // inside (-eps, eps)
	case 4:
		if rng.Intn(8) == 0 {
			return math.NaN()
		}
		return math.Nextafter(eps, 1) // just outside the tolerance
	case 5, 6:
		return []float64{1, -1, 2, -2, 0.5, -0.5, 3, -3}[rng.Intn(8)]
	case 7:
		return []float64{1 + 1e-10, 1 - 1e-10, -1 + 1e-10, -1 - 1e-10}[rng.Intn(4)]
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
}

// kernelPivot draws a pivot value: nonzero under the tolerance, as every
// eta's pivot is.
func kernelPivot(rng *rand.Rand, eps float64) float64 {
	for {
		if v := kernelValue(rng, eps); v > eps || v < -eps {
			return v
		}
	}
}

func randomEtas(rng *rand.Rand, m int, eps float64) []eta[float64] {
	es := make([]eta[float64], rng.Intn(12))
	for i := range es {
		piv := int32(rng.Intn(m))
		e := eta[float64]{piv: piv, pivV: kernelPivot(rng, eps)}
		for _, r := range rng.Perm(m) {
			if int32(r) != piv && rng.Intn(3) == 0 {
				e.rows = append(e.rows, int32(r))
				e.vals = append(e.vals, kernelValue(rng, eps))
			}
		}
		es[i] = e
	}
	return es
}

// randomSpVecs returns two identical work vectors with a random set of
// touched entries (some of them zero, as after cancellation).
func randomSpVecs(rng *rand.Rand, fa floatArith, m int) (*spVec[float64], *spVec[float64]) {
	a, b := newSpVec(fa, m), newSpVec(fa, m)
	for _, i := range rng.Perm(m) {
		if rng.Intn(2) == 0 {
			x := kernelValue(rng, fa.eps)
			a.set(int32(i), x)
			b.set(int32(i), x)
		}
	}
	return a, b
}

// leaveBound draws a bound for the leaving-row kernel. Narrow draws are
// zeros of both signs, around which every violation leaveValue builds is
// exact; wide ones add ±eps, small integers, NaN and random magnitudes.
func leaveBound(rng *rand.Rand, eps float64, narrow bool) float64 {
	if narrow || rng.Intn(4) == 0 {
		return []float64{0, math.Copysign(0, -1)}[rng.Intn(2)]
	}
	if rng.Intn(3) == 0 {
		return []float64{eps, -eps, 1, -1, 2, 3}[rng.Intn(6)]
	}
	return kernelValue(rng, eps)
}

// leaveValue draws a basic value around bound b: at it, exactly eps or
// just beyond eps away from it, or a violation from a pool whose members
// tie exactly (equal), differ by exactly eps around a zero bound (tie and
// tie+eps) or by less than eps. Wide draws may also be any kernelValue
// (NaN, −0.0, values inside ±eps) or a violation of about 1.
func leaveValue(rng *rand.Rand, b, eps float64, narrow bool) float64 {
	// Two ulps above eps, so tie+eps is exact and (tie+eps)−tie == eps.
	tie := math.Nextafter(math.Nextafter(eps, 1), 1)
	sign := []float64{-1, 1}[rng.Intn(2)]
	switch rng.Intn(6) {
	case 0:
		return b
	case 1:
		return b + sign*eps
	case 2:
		return b + sign*math.Nextafter(eps, 1)
	case 3:
		if !narrow {
			return kernelValue(rng, eps)
		}
	}
	pool := []float64{tie, tie + eps, tie + eps/2, 1, 1 + eps/2}
	if narrow {
		pool = pool[:3]
	}
	return b + sign*pool[rng.Intn(len(pool))]
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

func requireSameSpVec(t *testing.T, tag string, got, want *spVec[float64]) {
	t.Helper()
	for i := range want.val {
		if !sameBits(got.val[i], want.val[i]) {
			t.Fatalf("%s: val[%d] = %v (%#x), generic %v (%#x)", tag, i,
				got.val[i], math.Float64bits(got.val[i]), want.val[i], math.Float64bits(want.val[i]))
		}
	}
	if !slices.Equal(got.idx, want.idx) {
		t.Fatalf("%s: idx = %v, generic %v", tag, got.idx, want.idx)
	}
	if !slices.Equal(got.mark, want.mark) {
		t.Fatalf("%s: mark = %v, generic %v", tag, got.mark, want.mark)
	}
}

// TestFloatKernelParity is the seeded property test behind the float
// kernels' bit-identity claim, and behind fromRat's integer shortcut,
// which must return what big.Rat.Float64 returns (LP_PARITY_ROUNDS scales
// the rounds).
func TestFloatKernelParity(t *testing.T) {
	fa := floatArith{eps: defaultEps}
	requireFromRat := func(r *big.Rat) {
		t.Helper()
		want, _ := r.Float64()
		if got := fa.fromRat(r); !sameBits(got, want) {
			t.Fatalf("fromRat(%s) = %v (%#x), Rat.Float64 %v (%#x)", r.RatString(), got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// The edges of the exactly representable integers, fractions, and
	// numerators beyond int64 (2^65+1), which take the fallback.
	const p53 = int64(1) << 53
	for _, n := range []int64{0, 1, p53 - 1, p53, p53 + 1, math.MaxInt64, math.MinInt64} {
		requireFromRat(big.NewRat(n, 1))
		requireFromRat(new(big.Rat).Neg(big.NewRat(n, 1)))
	}
	huge, _ := new(big.Rat).SetString("36893488147419103233")
	for _, r := range []*big.Rat{big.NewRat(1, 3), big.NewRat(-7, 2), huge, new(big.Rat).Neg(huge), new(big.Rat).Quo(huge, big.NewRat(3, 1))} {
		requireFromRat(r)
	}

	for seed := 0; seed < parityRounds(t, 500); seed++ {
		rng := rand.New(rand.NewSource(int64(31000 + seed)))
		n := rng.Int63n(1<<rng.Intn(63) + 1)
		requireFromRat(big.NewRat(n, 1+rng.Int63n(3)))
		requireFromRat(big.NewRat(-n, 1))

		m := 1 + rng.Intn(24)
		es := randomEtas(rng, m, fa.eps)

		got, want := randomSpVecs(rng, fa, m)
		fa.ftranEtas(es, got)
		ftranEtasOf(fa, es, want)
		requireSameSpVec(t, fmt.Sprintf("seed %d ftran", seed), got, want)

		got, want = randomSpVecs(rng, fa, m)
		fa.btranEtas(es, got)
		btranEtasOf(fa, es, want)
		requireSameSpVec(t, fmt.Sprintf("seed %d btran", seed), got, want)

		y := make([]float64, m)
		for i := range y {
			y[i] = kernelValue(rng, fa.eps)
		}
		rows := make([]int32, 0, m)
		var vals []float64
		for _, r := range rng.Perm(m) {
			if rng.Intn(2) == 0 {
				rows = append(rows, int32(r))
				vals = append(vals, kernelValue(rng, fa.eps))
			}
		}
		if g, w := fa.colDot(y, rows, vals), colDotOf(fa, y, rows, vals); !sameBits(g, w) {
			t.Fatalf("seed %d colDot = %v (%#x), generic %v (%#x)", seed, g, math.Float64bits(g), w, math.Float64bits(w))
		}

		// Leaving row: a random basis over up to 2m columns, each with a
		// bound side sometimes cleared, and every basic value placed
		// around one of its column's bounds. Half the rounds keep every
		// bound at zero, where ties to within eps are exact.
		narrow := rng.Intn(2) == 0
		cols := m + rng.Intn(m+1)
		basis := rng.Perm(cols)[:m]
		lo, hi := make([]float64, cols), make([]float64, cols)
		loF, hiF := make([]bool, cols), make([]bool, cols)
		for j := range lo {
			lo[j] = leaveBound(rng, fa.eps, narrow)
			hi[j] = lo[j]
			if !narrow {
				hi[j] += []float64{0, fa.eps, 1, math.Abs(kernelValue(rng, fa.eps))}[rng.Intn(4)]
			}
			loF[j], hiF[j] = rng.Intn(4) > 0, rng.Intn(4) > 0
		}
		xB := make([]float64, m)
		for i, k := range basis {
			b := lo[k]
			if rng.Intn(2) == 0 {
				b = hi[k]
			}
			xB[i] = leaveValue(rng, b, fa.eps, narrow)
		}
		gr, gb := fa.dualLeave(basis, xB, lo, hi, loF, hiF)
		wr, wb := dualLeaveOf(fa, basis, xB, lo, hi, loF, hiF)
		if gr != wr || gb != wb {
			t.Fatalf("seed %d dualLeave = (%d, %v), generic (%d, %v)\nbasis %v\nxB %v\nlo %v %v\nhi %v %v",
				seed, gr, gb, wr, wb, basis, xB, lo, loF, hi, hiF)
		}
	}
}
