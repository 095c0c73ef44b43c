// Package sim executes warehouse plans step by step, validating the
// feasibility conditions of §III online and collecting the delivery and
// congestion statistics the evaluation figures report.
package sim

import (
	"repro/internal/warehouse"
)

// Result summarizes one simulation run: the violations and the delivery
// and movement tallies of warehouse.ReplayPlan, which owns them.
type Result = warehouse.Replay

// Run replays plan against the warehouse and workload: one
// warehouse.ReplayPlan pass validates every step and tallies the result.
func Run(w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) Result {
	return warehouse.ReplayPlan(w, plan, wl)
}

// Throughput bins DeliveryTimes into windows of the given width and returns
// units delivered per window — the series behind throughput-over-time plots.
func Throughput(res Result, horizon, window int) []int {
	if window <= 0 || horizon <= 0 {
		return nil
	}
	w := NewWindow(window)
	for _, t := range res.DeliveryTimes {
		if t >= 0 && t < horizon {
			w.Observe(t)
		}
	}
	bins := w.bins
	for n := (horizon + window - 1) / window; len(bins) < n; {
		bins = append(bins, 0)
	}
	return bins
}

// Window is the streaming form of Throughput: a bin accumulator that
// accepts delivery timestamps one at a time, in any order, and grows its
// bin series on demand. Lifelong observers feed it global delivery times
// (epoch start + changeover + epoch-relative delivery time) so a
// throughput-over-time series is available while the run is still going.
type Window struct {
	width int
	bins  []int
}

// NewWindow returns a Window binning timestamps into buckets of the given
// width; a non-positive width is treated as 1.
func NewWindow(width int) *Window {
	if width <= 0 {
		width = 1
	}
	return &Window{width: width}
}

// Observe records one delivery at timestep t. Negative timestamps are
// ignored.
func (w *Window) Observe(t int) {
	if t < 0 {
		return
	}
	i := t / w.width
	for len(w.bins) <= i {
		w.bins = append(w.bins, 0)
	}
	w.bins[i]++
}

// Bins returns a copy of the units-per-window series observed so far. The
// last bin is the one holding the latest observed timestamp; trailing empty
// windows are not materialized.
func (w *Window) Bins() []int {
	return append([]int(nil), w.bins...)
}
