package workload

import (
	"fmt"
	"math/rand"

	"repro/internal/warehouse"
)

// This file holds the corpus demand-trace generators: shapes beyond the
// paper's uniform Table I vectors, each deterministic for a fixed input
// (and, where randomized, a fixed *rand.Rand stream) so corpus instances
// regenerate byte-identically from their seed.

// clampToStock caps each product's demand by its stock and pushes the
// displaced units onto products with headroom, left to right; it errors
// when total stock cannot absorb the demand. Shared by the trace
// generators (same discipline as Uniform).
func clampToStock(w *warehouse.Warehouse, units []int) error {
	overflow := 0
	for k := range units {
		if stock := w.TotalStock(warehouse.ProductID(k)); units[k] > stock {
			overflow += units[k] - stock
			units[k] = stock
		}
	}
	for k := 0; k < len(units) && overflow > 0; k++ {
		room := w.TotalStock(warehouse.ProductID(k)) - units[k]
		if room <= 0 {
			continue
		}
		if room > overflow {
			room = overflow
		}
		units[k] += room
		overflow -= room
	}
	if overflow > 0 {
		return fmt.Errorf("workload: demand exceeds total stock by %d units", overflow)
	}
	return nil
}

// Bursty concentrates hotShare (0..1) of totalUnits on hotProducts
// rng-chosen products — the flash-sale shape — and spreads the remainder
// evenly over the whole catalog. Stock-clamped like Uniform; the same rng
// stream reproduces the same hot set.
func Bursty(w *warehouse.Warehouse, totalUnits, hotProducts int, hotShare float64, rng *rand.Rand) (warehouse.Workload, error) {
	p := w.NumProducts
	if p == 0 {
		return warehouse.Workload{}, fmt.Errorf("workload: warehouse has no products")
	}
	if hotProducts <= 0 || hotProducts > p {
		return warehouse.Workload{}, fmt.Errorf("workload: %d hot products outside [1, %d]", hotProducts, p)
	}
	if hotShare < 0 || hotShare > 1 {
		return warehouse.Workload{}, fmt.Errorf("workload: hot share %v outside [0, 1]", hotShare)
	}
	hotUnits := int(float64(totalUnits) * hotShare)
	coldUnits := totalUnits - hotUnits
	units := make([]int, p)
	for i, k := range rng.Perm(p)[:hotProducts] {
		units[k] = hotUnits / hotProducts
		if i < hotUnits%hotProducts {
			units[k]++
		}
	}
	base, extra := coldUnits/p, coldUnits%p
	for k := range units {
		units[k] += base
		if k < extra {
			units[k]++
		}
	}
	if err := clampToStock(w, units); err != nil {
		return warehouse.Workload{}, err
	}
	return warehouse.NewWorkload(w, units)
}

// DiurnalLevel is the integer day-curve used by Diurnal: a triangle wave
// over the period that ramps from 25% of peak at the trough to 100% at
// mid-period, in per-mille. Integer arithmetic keeps the curve identical
// on every platform.
func DiurnalLevel(phase, period int) int {
	if period <= 0 {
		period = 24
	}
	phase = ((phase % period) + period) % period
	// Distance from mid-period, normalized to 0 (peak) .. period/2 (trough).
	half := period / 2
	d := phase - half
	if d < 0 {
		d = -d
	}
	// 1000‰ at d=0 down to 250‰ at d=half.
	if half == 0 {
		return 1000
	}
	return 1000 - (750*d)/half
}

// Diurnal scales peakUnits by the phase's position on the day curve
// (DiurnalLevel) and spreads the result uniformly — the shift-cycle shape:
// corpus instances sample several phases of one day to exercise trough,
// shoulder, and peak load. Fully deterministic.
func Diurnal(w *warehouse.Warehouse, peakUnits, phase, period int) (warehouse.Workload, error) {
	units := peakUnits * DiurnalLevel(phase, period) / 1000
	if units < 1 {
		units = 1
	}
	return Uniform(w, units)
}
