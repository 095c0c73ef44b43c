package wsp

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"repro/internal/lp"
)

// SweepSpec describes a co-design grid walk in the style of the paper's
// Fig. 5: corridor width × component-length cap, each generated topology
// evaluated against a rising series of workload levels.
type SweepSpec struct {
	// Corridors lists the corridor widths to walk (also sets aisle rows).
	Corridors []int
	// Lens lists the component-length caps to walk.
	Lens []int
	// Stripes and Products parameterize each generated topology.
	Stripes  int
	Products int
	// Units is the total demand at the top workload level; Points levels
	// are evaluated at units·i/points, i = 1..Points.
	Units  int
	Points int
	// Horizon is the timestep budget per evaluation.
	Horizon int
}

// maxSweepCells bounds what one topology of a sweep may ask the map
// generator to build: products × floor cells. GenerateMap does not watch
// the request deadline, so the bound is what keeps one topology cheap. Its
// time and memory grow with the floor (the stock matrix is cheap beside
// it), and at 2¹⁷ the largest admitted floor — corridor width 2, one
// product, 1,024 stripes, 131,072 cells — generates in about 50 ms with
// 36 MB allocated on a 2-vCPU VM; 1,000 stripes took 48 ms, 3,000 174 ms
// and 12,000 720 ms, each refused now. The Fig. 5 grid (4 stripes,
// corridors 2–4, 48 products) needs at most 80 × 14 = 1,120 floor cells
// and 53,760 stock cells, well inside.
const maxSweepCells = 1 << 17

// Validate reports whether the spec can be walked: at least one corridor
// width and length cap; widths of at least 2; caps of 0 (the generator's
// default, 6) or at least 2; at least one stripe, product, level and
// timestep; units of at least points; and every topology within
// maxSweepCells. SweepObserve runs it first. A refusal on size alone — the
// spec is well formed but too large to generate — has a TooLarge method
// that reports true.
func (sp SweepSpec) Validate() error {
	if len(sp.Corridors) == 0 || len(sp.Lens) == 0 {
		return fmt.Errorf("wsp: sweep needs at least one corridor width and one length cap")
	}
	if sp.Points < 1 {
		return fmt.Errorf("wsp: sweep points %d must be at least 1", sp.Points)
	}
	// units ≥ points keeps the level series units·i/points positive and
	// strictly increasing (each step adds at least one unit).
	if sp.Units < sp.Points {
		return fmt.Errorf("wsp: sweep units %d must be at least points %d", sp.Units, sp.Points)
	}
	if sp.Horizon < 1 {
		return fmt.Errorf("wsp: sweep horizon %d must be at least 1", sp.Horizon)
	}
	if sp.Stripes < 1 || sp.Products < 1 {
		return fmt.Errorf("wsp: sweep stripes %d and products %d must be at least 1", sp.Stripes, sp.Products)
	}
	for _, v := range sp.Corridors {
		if v < 2 {
			return fmt.Errorf("wsp: sweep corridor width %d must be at least 2", v)
		}
	}
	for _, l := range sp.Lens {
		if l != 0 && l < 2 {
			return fmt.Errorf("wsp: sweep length cap %d must be 0 or at least 2", l)
		}
	}
	for _, v := range sp.Corridors {
		// Corridor width V makes a (3V+2) × Stripes·(2V+12) floor (V aisle
		// rows, 12-column bays), and its stock a Products-fold one. With V
		// clamped to the bound, and each factor checked against it before
		// it multiplies, nothing overflows.
		w := min(v, maxSweepCells)
		cells := 1
		for _, f := range []int{3*w + 2, sp.Stripes, 2*w + 12, sp.Products} {
			if f > maxSweepCells/cells {
				return sweepTooLarge(fmt.Sprintf(
					"wsp: sweep corridor width %d with %d stripes and %d products exceeds the %d-cell bound",
					v, sp.Stripes, sp.Products, maxSweepCells))
			}
			cells *= f
		}
	}
	return nil
}

// sweepTooLarge is Validate's refusal of a well-formed spec on size.
type sweepTooLarge string

func (e sweepTooLarge) Error() string { return string(e) }

// TooLarge tells a size refusal from a malformed spec (wspd answers the
// first 422 sweep-too-large, the second 400 bad-request).
func (sweepTooLarge) TooLarge() bool { return true }

// SweepPoint is one (topology, workload level) evaluation. An infeasible
// design point is an expected sweep outcome: Err is set and Result nil.
type SweepPoint struct {
	Units   int
	Result  *Result
	Err     error
	Elapsed time.Duration
}

// SweepCell is one topology of the grid with its evaluated level series.
type SweepCell struct {
	Corridor int
	MaxLen   int
	Stats    TrafficStats
	Points   []SweepPoint
}

// Sweep walks the co-design grid. Every topology's level series runs as
// one SolveBatch over the Solver's worker pool, so a worker's synthesis
// scratch is reused across the series. Cancelling ctx stops the walk at a
// topology boundary (in-flight evaluations abort within one work-budget
// tick): the completed cells are returned alongside an error wrapping
// ErrCanceled, so callers can flush partial results instead of losing the
// grid walked so far.
func (s *Solver) Sweep(ctx context.Context, spec SweepSpec) ([]SweepCell, error) {
	return s.SweepObserve(ctx, spec, nil)
}

// SweepObserve is Sweep with a per-cell callback: observe (when non-nil)
// is invoked synchronously with each cell as soon as its level series
// completes, before the next topology is generated. Streaming consumers
// (the /v1/sweep NDJSON endpoint) flush cells from the callback while the
// walk is still running; the full cell slice is returned at the end
// either way.
func (s *Solver) SweepObserve(ctx context.Context, spec SweepSpec, observe func(SweepCell)) ([]SweepCell, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	var cells []SweepCell
	for _, v := range spec.Corridors {
		for _, l := range spec.Lens {
			if err := ctx.Err(); err != nil {
				return cells, lp.WrapCancelCause(ctx,
					fmt.Errorf("wsp: sweep canceled after %d topologies: %w", len(cells), ErrCanceled))
			}
			m, err := GenerateMap(MapParams{
				Stripes: spec.Stripes, Rows: v, BayWidth: 12, CorridorWidth: v,
				MaxComponentLen: l, DoubleShelfRows: true,
				NumProducts: spec.Products, UnitsPerShelf: 30, StationsPerStripe: 1,
			})
			if err != nil {
				return cells, fmt.Errorf("wsp: sweep V=%d L=%d: %w", v, l, err)
			}
			cell := SweepCell{Corridor: v, MaxLen: l, Stats: SummarizeTraffic(m.S)}
			insts := make([]Instance, 0, spec.Points)
			for i := 1; i <= spec.Points; i++ {
				// units·i/points in 128 bits, so no unit count overflows.
				hi, lo := bits.Mul64(uint64(spec.Units), uint64(i))
				q, _ := bits.Div64(hi, lo, uint64(spec.Points))
				u := int(q)
				wl, err := UniformWorkload(m.W, u)
				if err != nil {
					// More demand than the topology stocks: no plan serves
					// this level, a design verdict rather than a fault.
					cell.Points = append(cell.Points, SweepPoint{Units: u, Err: &InfeasibleError{
						Cert: CertInfeasible, Horizon: spec.Horizon,
						Reason: fmt.Sprintf("sweep V=%d L=%d units=%d: %v", v, l, u, err)}})
					continue
				}
				cell.Points = append(cell.Points, SweepPoint{Units: u})
				insts = append(insts, Instance{System: m.S, Workload: wl, Horizon: spec.Horizon})
			}
			// Levels rise, so the ones the stock covers come first.
			hit := false
			for i, r := range s.SolveBatch(ctx, insts) {
				if r.Err != nil && errors.Is(r.Err, ErrCanceled) {
					hit = true
				}
				pt := &cell.Points[i]
				pt.Result, pt.Err, pt.Elapsed = r.Res, r.Err, r.Elapsed
			}
			if hit {
				// The batch drained under cancellation: its rows are
				// cancellation artifacts, not design verdicts — drop the
				// partial cell and report the completed ones. A cancel
				// that landed only after every slot finished affected
				// nothing, so that cell is kept (the next topology's
				// pre-check ends the walk).
				return cells, lp.WrapCancelCause(ctx,
					fmt.Errorf("wsp: sweep canceled after %d topologies: %w", len(cells), ErrCanceled))
			}
			cells = append(cells, cell)
			if observe != nil {
				observe(cell)
			}
		}
	}
	return cells, nil
}
