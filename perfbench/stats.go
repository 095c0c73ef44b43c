package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples a reported percentile must leave above
// it. A tail percentile that rests on fewer samples is mostly noise, so the
// benchmark refuses to report it instead.
const minBeyond = 10

// minSamples is the smallest sample count whose p90 leaves minBeyond
// samples beyond it; the closed-loop workloads run at least this many ops.
const minSamples = 100

// percentile returns the nearest-rank q-quantile of xs, sorting xs in
// place. It fails when fewer than minBeyond samples lie above the rank.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples leaves %d beyond it, need %d",
			100*q, n, max(n-rank, 0), minBeyond)
	}
	sort.Float64s(xs)
	return xs[rank-1], nil
}

// median is the middle value of xs (the mean of the two middle values for
// an even count), or 0 for no values. xs is left unmodified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never
// reached does no work per unit of anything).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
