package server

import (
	"fmt"
	"net/http"
	"time"

	"repro/internal/server/faultinject"
	"repro/wsp"
)

// POST /v1/lifelong streams a lifelong run as NDJSON: one "epoch" line per
// completed epoch (flushed immediately, so clients watch the run live), a
// terminal "report" line on success, or an in-band "error" line when the
// run fails after streaming began. Failures before the first epoch use the
// normal error envelope with the taxonomy status (499/504/422/...); once a
// 200 status line is committed, errors can only travel in-band — the code
// field carries the same taxonomy either way, and the outcome counters are
// bumped identically via countStatus.
//
// The endpoint is admission-controlled and charged like /v1/sweep: one
// solve cost per batch, since each batch release forces at least a
// re-planning epoch. Draining refuses new runs but lets a streaming run
// finish — Drain waits for handlers without cancelling request contexts.

// LifelongBatchSpec is one batch of a /v1/lifelong request: a release time
// plus demand as either a uniform total (units, spread over the map's
// products like InstanceSpec.Units) or an explicit per-product vector.
type LifelongBatchSpec struct {
	Release    int   `json:"release"`
	Units      int   `json:"units,omitempty"`
	PerProduct []int `json:"per_product,omitempty"`
}

// LifelongRequest is the /v1/lifelong body. The instance spec contributes
// the warehouse and horizon only; demand arrives exclusively in batches,
// so a top-level units field is rejected.
type LifelongRequest struct {
	InstanceSpec
	Batches []LifelongBatchSpec `json:"batches"`
	SolveOverrides
}

// LifelongEpochLine is one streamed NDJSON epoch record.
type LifelongEpochLine struct {
	Type        string `json:"type"` // "epoch"
	Epoch       int    `json:"epoch"`
	Start       int    `json:"start"`
	Horizon     int    `json:"horizon"`
	Changeover  int    `json:"changeover"`
	ServicedAt  int    `json:"serviced_at"`
	End         int    `json:"end"`
	Agents      int    `json:"agents"`
	Delivered   []int  `json:"delivered"`
	Outstanding []int  `json:"outstanding"`
	// Throughput is the cumulative units-per-window series over global
	// time (window = one cycle time).
	Throughput []int `json:"throughput"`
}

// LifelongBatchResult is one batch's fate in the terminal report line.
type LifelongBatchResult struct {
	Release   int `json:"release"`
	Units     int `json:"units"`
	Completed int `json:"completed"` // -1 if never delivered in full
}

// LifelongReportLine terminates a successful stream.
type LifelongReportLine struct {
	Type         string                `json:"type"` // "report"
	OK           bool                  `json:"ok"`
	Degraded     bool                  `json:"degraded"`
	DegradeSteps []string              `json:"degrade_steps,omitempty"`
	Strategy     string                `json:"strategy"`
	Epochs       int                   `json:"epochs"`
	PeakAgents   int                   `json:"peak_agents"`
	Delivered    []int                 `json:"delivered"`
	Batches      []LifelongBatchResult `json:"batches"`
	ElapsedMS    float64               `json:"elapsed_ms"`
}

// LifelongErrorLine reports a failure after streaming began.
type LifelongErrorLine struct {
	Type   string `json:"type"` // "error"
	Code   string `json:"code"`
	Error  string `json:"error"`
	Epochs int    `json:"epochs"` // epochs completed before the failure
}

// buildLifelongSystem materializes the instance part of a lifelong
// request. Unlike buildInstance no workload is required — demand arrives
// in batches — and a top-level units field is rejected rather than
// silently ignored.
func (s *Server) buildLifelongSystem(spec *InstanceSpec) (*wsp.System, int, error) {
	if err := spec.checkSigns(); err != nil {
		return nil, 0, err
	}
	if spec.Units > 0 {
		return nil, 0, fmt.Errorf("lifelong demand is carried by batches, not a top-level units field")
	}
	sys, _, T, err := s.system(spec)
	if err == nil && T <= 0 {
		err = fmt.Errorf("request carries no horizon")
	}
	return sys, T, err
}

// buildLifelongBatches resolves batch specs against the warehouse. The
// engine re-validates, but failing here keeps validation errors on the
// 400 path instead of surfacing as run failures.
func buildLifelongBatches(sys *wsp.System, T int, specs []LifelongBatchSpec) ([]wsp.Batch, error) {
	out := make([]wsp.Batch, len(specs))
	for i, bs := range specs {
		if bs.Release < 0 || bs.Release >= T {
			return nil, fmt.Errorf("batch %d released at %d outside [0, %d)", i, bs.Release, T)
		}
		var units []int
		switch {
		case len(bs.PerProduct) > 0 && bs.Units > 0:
			return nil, fmt.Errorf("batch %d sets both units and per_product", i)
		case len(bs.PerProduct) > 0:
			if len(bs.PerProduct) != sys.W.NumProducts {
				return nil, fmt.Errorf("batch %d has %d demands for %d products", i, len(bs.PerProduct), sys.W.NumProducts)
			}
			total := 0
			for k, u := range bs.PerProduct {
				if u < 0 {
					return nil, fmt.Errorf("batch %d demands %d units of product %d", i, u, k)
				}
				total += u
			}
			if total == 0 {
				return nil, fmt.Errorf("batch %d carries no units", i)
			}
			units = bs.PerProduct
		case bs.Units > 0:
			wl, err := wsp.UniformWorkload(sys.W, bs.Units)
			if err != nil {
				return nil, fmt.Errorf("batch %d: %w", i, err)
			}
			units = wl.Units
		default:
			return nil, fmt.Errorf("batch %d carries no units", i)
		}
		out[i] = wsp.Batch{Release: bs.Release, Units: units}
	}
	return out, nil
}

func (s *Server) handleLifelong(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	var req LifelongRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if len(req.Batches) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "lifelong run carries no batches", 0)
		return
	}
	if len(req.Batches) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusUnprocessableEntity, "lifelong-too-large",
			fmt.Sprintf("lifelong run of %d batches exceeds the %d-batch bound", len(req.Batches), s.cfg.MaxBatch), 0)
		return
	}
	sys, T, err := s.buildLifelongSystem(&req.InstanceSpec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-instance", err.Error(), 0)
		return
	}
	batches, err := buildLifelongBatches(sys, T, req.Batches)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	// Charged like /v1/sweep: each batch release forces at least one
	// re-planning epoch, so the work scales with the batch count.
	c := s.admit(w, r, &req.SolveOverrides, len(batches))
	if c == nil {
		return
	}
	defer c.done()
	out := s.stream(w, c, "/v1/lifelong")
	defer out.abort(nil)

	obs := wsp.LifelongObserverFuncs{
		Epoch: func(er wsp.EpochReport) {
			out.step(er.Epoch, func() any {
				return LifelongEpochLine{
					Type:        "epoch",
					Epoch:       er.Epoch,
					Start:       er.Start,
					Horizon:     er.Horizon,
					Changeover:  er.Changeover,
					ServicedAt:  er.ServicedAt,
					End:         er.End,
					Agents:      er.Agents,
					Delivered:   er.Delivered,
					Outstanding: er.Outstanding,
					Throughput:  er.Throughput,
				}
			})
		},
	}
	start := time.Now()
	var rep *wsp.LifelongReport
	info := faultinject.Info{Path: "/v1/lifelong", Client: c.client, Horizon: T}
	err = s.guard(out.ctx, info, func() (err error) {
		rep, err = wsp.NewFromConfig(c.cfg).Lifelong(out.ctx, sys, batches, T, wsp.WithLifelongObserver(obs))
		return err
	})
	if err != nil {
		// Counted like everywhere else — but no degraded retry here:
		// epochs already streamed cannot be replayed by a restarted
		// cheaper run.
		_, code := errStatus(err)
		s.countExhausted(code)
		out.fail(err, func(code string) any {
			line := LifelongErrorLine{Type: "error", Code: code, Error: err.Error()}
			if rep != nil {
				line.Epochs = rep.Epochs
			}
			return line
		})
		return
	}
	line := LifelongReportLine{
		Type:         "report",
		OK:           true,
		Degraded:     c.complete(),
		DegradeSteps: c.steps,
		Strategy:     c.cfg.Strategy.String(),
		Epochs:       rep.Epochs,
		PeakAgents:   rep.PeakAgents,
		Delivered:    rep.Delivered,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	for _, b := range rep.Batches {
		line.Batches = append(line.Batches, LifelongBatchResult{Release: b.Release, Units: b.Units, Completed: b.Completed})
	}
	out.write(line)
}
