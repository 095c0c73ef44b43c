package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server/faultinject"
	"repro/wsp"
)

// StatusClientClosedRequest reports a solve abandoned because the client
// disconnected (nginx's 499 convention — there is no standard code for
// "you hung up"). It is distinguishable from 504, where the SERVER's
// deadline policy cut the solve short.
const StatusClientClosedRequest = 499

// errPanic roots the taxonomy branch for solver panics caught by the
// per-request recover.
var errPanic = errors.New("server: solver panicked")

// InstanceSpec names one WSP instance in a request: either an inline
// serialized instance or a builtin evaluation map plus a uniform demand.
type InstanceSpec struct {
	// Instance is a full inline instance (the wspio JSON form).
	Instance *wsp.InstanceFile `json:"instance,omitempty"`
	// Map selects a builtin evaluation map instead:
	// fulfillment1|fulfillment2|sorting.
	Map string `json:"map,omitempty"`
	// Units spreads a uniform workload over the map's products (required
	// with Map; overrides an inline instance's workload when set; negative
	// is a bad instance).
	Units int `json:"units,omitempty"`
	// Horizon is the timestep budget T (falls back to the inline
	// instance's own T; negative is a bad instance).
	Horizon int `json:"horizon,omitempty"`
}

// SolveOverrides are the per-request solver knobs shared by the solve,
// batch, sweep and lifelong endpoints. Zero values inherit the server's
// base configuration; negative ones are rejected with 400 bad-request.
type SolveOverrides struct {
	Strategy   string `json:"strategy,omitempty"` // route|flows|contract
	Exact      *bool  `json:"exact,omitempty"`
	WorkBudget int64  `json:"work_budget,omitempty"`
	NodeBudget int    `json:"node_budget,omitempty"`
	// DeadlineMS requests a per-solve deadline; the server clamps it to
	// its MaxDeadline and applies its default when absent.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// NoDegrade opts this request out of the degradation ladder: under
	// load it will be answered exactly as configured or fail trying.
	NoDegrade bool `json:"no_degrade,omitempty"`
}

// SolveRequest is the /v1/solve body.
type SolveRequest struct {
	InstanceSpec
	SolveOverrides
}

// SolveResponse is the /v1/solve answer envelope.
type SolveResponse struct {
	OK bool `json:"ok"`
	// Degraded marks a solve answered below the requested fidelity; the
	// applied ladder rungs are listed in DegradeSteps.
	Degraded     bool     `json:"degraded"`
	DegradeSteps []string `json:"degrade_steps,omitempty"`
	Strategy     string   `json:"strategy"`
	Agents       int      `json:"agents"`
	Cycles       int      `json:"cycles"`
	Attempts     int      `json:"attempts"`
	ServicedAt   int      `json:"serviced_at"`
	ElapsedMS    float64  `json:"elapsed_ms"`
}

// ErrorResponse is the error envelope of every non-2xx answer.
type ErrorResponse struct {
	Error         string `json:"error"`
	Code          string `json:"code"`
	RetryAfterSec int    `json:"retry_after_sec,omitempty"`
}

// BatchRequest is the /v1/batch body: one admission decision, one deadline,
// one (possibly degraded) configuration for the whole batch.
type BatchRequest struct {
	Instances []InstanceSpec `json:"instances"`
	SolveOverrides
}

// BatchItem is one instance's outcome within a /v1/batch answer.
type BatchItem struct {
	OK         bool    `json:"ok"`
	Error      string  `json:"error,omitempty"`
	Code       string  `json:"code,omitempty"`
	Agents     int     `json:"agents,omitempty"`
	ServicedAt int     `json:"serviced_at,omitempty"`
	ElapsedMS  float64 `json:"elapsed_ms"`
}

// BatchResponse is the /v1/batch answer envelope.
type BatchResponse struct {
	OK           bool        `json:"ok"`
	Degraded     bool        `json:"degraded"`
	DegradeSteps []string    `json:"degrade_steps,omitempty"`
	Items        []BatchItem `json:"items"`
}

// SweepRequest is the /v1/sweep body (the Fig. 5 co-design grid). With
// stream set, the answer is NDJSON: one "cell" line per completed
// topology (flushed immediately), then a terminal "summary" line — the
// same discipline as /v1/lifelong.
type SweepRequest struct {
	Corridors []int `json:"corridors"`
	Lens      []int `json:"lens"`
	Stripes   int   `json:"stripes,omitempty"`
	Products  int   `json:"products,omitempty"`
	Units     int   `json:"units"`
	Points    int   `json:"points"`
	Horizon   int   `json:"horizon"`
	Stream    bool  `json:"stream,omitempty"`
	SolveOverrides
}

// SweepPointResult is one (topology, level) evaluation in a sweep answer.
type SweepPointResult struct {
	Units  int    `json:"units"`
	OK     bool   `json:"ok"`
	Agents int    `json:"agents,omitempty"`
	Code   string `json:"code,omitempty"`
}

// SweepCellResult is one topology of the sweep grid.
type SweepCellResult struct {
	Corridor   int                `json:"corridor"`
	MaxLen     int                `json:"max_len"`
	Components int                `json:"components"`
	Points     []SweepPointResult `json:"points"`
}

// SweepResponse is the /v1/sweep answer envelope (non-streaming).
type SweepResponse struct {
	OK           bool              `json:"ok"`
	Degraded     bool              `json:"degraded"`
	DegradeSteps []string          `json:"degrade_steps,omitempty"`
	Cells        []SweepCellResult `json:"cells"`
}

// SweepCellLine is one streamed NDJSON topology record.
type SweepCellLine struct {
	Type string `json:"type"` // "cell"
	SweepCellResult
}

// SweepSummaryLine terminates a successful sweep stream.
type SweepSummaryLine struct {
	Type         string   `json:"type"` // "summary"
	OK           bool     `json:"ok"`
	Degraded     bool     `json:"degraded"`
	DegradeSteps []string `json:"degrade_steps,omitempty"`
	Cells        int      `json:"cells"`
	ElapsedMS    float64  `json:"elapsed_ms"`
}

// SweepErrorLine reports a failure after streaming began.
type SweepErrorLine struct {
	Type  string `json:"type"` // "error"
	Code  string `json:"code"`
	Error string `json:"error"`
	Cells int    `json:"cells"` // cells completed before the failure
}

// errStatus maps a solve error onto (HTTP status, taxonomy code). Order
// matters: a deadline expiry also satisfies ErrCanceled, so it is checked
// first; after it, any remaining cancellation means the client went away
// (the server never cancels an admitted solve — draining waits for them).
func errStatus(err error) (int, string) {
	switch {
	case errors.Is(err, errPanic):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, wsp.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout, "deadline-exceeded"
	case errors.Is(err, wsp.ErrCanceled), errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, "client-closed-request"
	case errors.Is(err, wsp.ErrHorizonTooShort):
		return http.StatusUnprocessableEntity, "horizon-too-short"
	case errors.Is(err, wsp.ErrInfeasible):
		return http.StatusUnprocessableEntity, "infeasible"
	case errors.Is(err, wsp.ErrBudgetExhausted):
		return http.StatusServiceUnavailable, "budget-exhausted"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	resp := ErrorResponse{Error: msg, Code: code}
	if retryAfter > 0 {
		sec := int(retryAfter / time.Second)
		if sec < 1 {
			sec = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(sec))
		resp.RetryAfterSec = sec
	}
	s.countStatus(status)
	writeJSON(w, status, resp)
}

// countExhausted accounts one answer that ended budget-exhausted — a
// /v1/solve or /v1/lifelong response, a /v1/batch item, or a /v1/sweep
// point — in budget_exhausted_total, and feeds it to the degradation
// ladder as a load signal.
func (s *Server) countExhausted(code string) {
	if code == "budget-exhausted" {
		s.met.budgetExhausted.Add(1)
		s.deg.observeExhausted()
	}
}

// countStatus attributes an error status to the outcome counters. Factored
// out of writeError so streaming handlers — which have already committed a
// 200 status line by the time a run fails — can account an in-band error
// the same way.
func (s *Server) countStatus(status int) {
	switch status {
	case http.StatusGatewayTimeout:
		s.met.deadline.Add(1)
	case StatusClientClosedRequest:
		s.met.clientGone.Add(1)
	case http.StatusUnprocessableEntity:
		s.met.infeasible.Add(1)
	}
}

// clientID resolves the admission identity: an explicit X-Client-ID header
// when present, the remote host otherwise.
func clientID(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// decodeBody parses a bounded JSON request body.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// checkSigns rejects a negative units or horizon. Read as absent, either
// would silently fall back to the inline instance's own workload or T.
func (spec *InstanceSpec) checkSigns() error {
	if spec.Units < 0 {
		return fmt.Errorf("units %d is negative", spec.Units)
	}
	if spec.Horizon < 0 {
		return fmt.Errorf("horizon %d is negative", spec.Horizon)
	}
	return nil
}

// buildInstance materializes an InstanceSpec. Builtin maps are built once
// and shared — a traffic.System is read-only after Build, so concurrent
// solves on one map are safe.
func (s *Server) buildInstance(spec *InstanceSpec) (wsp.Instance, error) {
	var inst wsp.Instance
	if err := spec.checkSigns(); err != nil {
		return inst, err
	}
	switch {
	case spec.Instance != nil && spec.Map != "":
		return inst, fmt.Errorf("request names both an inline instance and map %q", spec.Map)
	case spec.Instance != nil:
		sys, wl, err := wsp.DecodeInstance(spec.Instance)
		if err != nil {
			return inst, err
		}
		inst.System = sys
		if wl != nil {
			inst.Workload = *wl
		}
		inst.Horizon = spec.Instance.T
	case spec.Map != "":
		m, err := s.builtinMap(spec.Map)
		if err != nil {
			return inst, err
		}
		inst.System = m.S
	default:
		return inst, fmt.Errorf("request names neither an inline instance nor a builtin map")
	}
	if spec.Units > 0 {
		wl, err := wsp.UniformWorkload(inst.System.W, spec.Units)
		if err != nil {
			return inst, err
		}
		inst.Workload = wl
	}
	if len(inst.Workload.Units) == 0 {
		return inst, fmt.Errorf("request carries no workload (set units or an instance workload)")
	}
	if spec.Horizon > 0 {
		inst.Horizon = spec.Horizon
	}
	if inst.Horizon <= 0 {
		return inst, fmt.Errorf("request carries no horizon")
	}
	return inst, nil
}

// requestConfig applies the request's overrides onto the server's base
// solver configuration and validates the result; the deadline, which is
// not part of that value, is checked here too.
func (s *Server) requestConfig(ov *SolveOverrides) (wsp.Config, error) {
	cfg := s.cfg.Solver
	if ov.Strategy != "" {
		st, err := wsp.ParseStrategy(ov.Strategy)
		if err != nil {
			return cfg, err
		}
		cfg.Strategy = st
	}
	if ov.Exact != nil {
		cfg.Exact = *ov.Exact
	}
	if ov.WorkBudget != 0 {
		cfg.MaxWork = ov.WorkBudget
	}
	if ov.NodeBudget != 0 {
		cfg.MaxNodes = ov.NodeBudget
	}
	if ov.DeadlineMS < 0 {
		return cfg, fmt.Errorf("deadline_ms %d is negative", ov.DeadlineMS)
	}
	return cfg, cfg.Validate()
}

// solveCost is the admission charge for one solve under ov.
func (s *Server) solveCost(ov *SolveOverrides) int64 {
	if ov.WorkBudget > 0 {
		return ov.WorkBudget
	}
	return s.cfg.SolveCost
}

// solveContext merges the server's deadline policy with the client's
// request: default when absent, clamped to MaxDeadline, layered on the
// request context so a client disconnect still cancels the solve.
func (s *Server) solveContext(r *http.Request, deadlineMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.DefaultDeadline
	if deadlineMS > 0 {
		d = time.Duration(deadlineMS) * time.Millisecond
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return context.WithTimeout(r.Context(), d)
}

// admitOrReject runs the admission gate for a request charging cost units,
// returning a non-nil release closure on success and writing the 429/503
// itself on rejection.
func (s *Server) admitOrReject(w http.ResponseWriter, r *http.Request, cost int64) func() {
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		w.Header().Set("Connection", "close")
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return nil
	}
	release, occ, d := s.adm.admit(clientID(r), cost)
	if d != nil {
		s.deg.observeReject()
		if d.reason == "load" {
			s.met.rejectedLoad.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "over-capacity",
				fmt.Sprintf("all %d solve slots busy", s.cfg.MaxInFlight), d.retryAfter)
		} else {
			s.met.rejectedBudget.Add(1)
			s.writeError(w, http.StatusTooManyRequests, "work-budget",
				"client work budget exhausted", d.retryAfter)
		}
		return nil
	}
	s.met.admitted.Add(1)
	s.met.inFlight.Add(1)
	s.deg.observeAdmit(occ)
	return func() {
		s.met.inFlight.Add(-1)
		release()
	}
}

// solveGuarded runs one solve under the per-request panic isolation and
// the fault-injection hook, with a warm scratch checked out by topology
// signature. A panic is converted into an error wrapping errPanic — the
// daemon keeps serving — and the panicked scratch is discarded rather than
// returned to the warm pool.
func (s *Server) solveGuarded(ctx context.Context, cfg wsp.Config, inst wsp.Instance, info faultinject.Info) (res *wsp.Result, err error) {
	sig := inst.System.StructureSignature()
	clean := false
	var sc *wsp.Scratch
	defer func() {
		if p := recover(); p != nil {
			s.met.panics.Add(1)
			res, err = nil, fmt.Errorf("%w: %v", errPanic, p)
		}
		if sc != nil {
			if clean {
				s.cache.release(sig, sc)
			} else {
				s.cache.discard(sig)
			}
		}
	}()
	if s.cfg.Fault != nil {
		if err := s.cfg.Fault(ctx, info); err != nil {
			return nil, err
		}
	}
	sc, err = s.cache.checkout(ctx, sig)
	if err != nil {
		return nil, err
	}
	res, err = wsp.NewFromConfig(cfg).SolveWithScratch(ctx, inst, sc)
	clean = true
	return res, err
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	var req SolveRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	inst, err := s.buildInstance(&req.InstanceSpec)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-instance", err.Error(), 0)
		return
	}
	cfg, err := s.requestConfig(&req.SolveOverrides)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	release := s.admitOrReject(w, r, s.solveCost(&req.SolveOverrides))
	if release == nil {
		return
	}
	defer release()

	ctx, cancel := s.solveContext(r, req.DeadlineMS)
	defer cancel()

	var steps []string
	if !req.NoDegrade {
		cfg, steps = degradeConfig(cfg, s.deg.rung())
	}
	info := faultinject.Info{Path: "/v1/solve", Client: clientID(r), Horizon: inst.Horizon}
	start := time.Now()
	res, err := s.solveGuarded(ctx, cfg, inst, info)
	if errors.Is(err, wsp.ErrBudgetExhausted) && !req.NoDegrade && cfg.Strategy != wsp.RoutePacking {
		// Budget exhaustion is itself a load signal — and, when the
		// request allows degradation, a recoverable one: answer with the
		// cheap strategy instead of erroring.
		s.deg.observeExhausted()
		var more []string
		cfg, more = degradeConfig(cfg, 2)
		steps = append(steps, more...)
		res, err = s.solveGuarded(ctx, cfg, inst, info)
	}
	if err != nil {
		status, code := errStatus(err)
		s.countExhausted(code)
		s.writeError(w, status, code, err.Error(), 0)
		return
	}
	s.met.completed.Add(1)
	if len(steps) > 0 {
		s.met.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		OK:           true,
		Degraded:     len(steps) > 0,
		DegradeSteps: steps,
		Strategy:     cfg.Strategy.String(),
		Agents:       res.Stats.Agents,
		Cycles:       len(res.CycleSet.Cycles),
		Attempts:     res.Attempts,
		ServicedAt:   res.Sim.ServicedAt,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	})
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	var req BatchRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	if len(req.Instances) == 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request", "batch carries no instances", 0)
		return
	}
	if len(req.Instances) > s.cfg.MaxBatch {
		s.writeError(w, http.StatusUnprocessableEntity, "batch-too-large",
			fmt.Sprintf("batch of %d exceeds the %d-instance bound", len(req.Instances), s.cfg.MaxBatch), 0)
		return
	}
	insts := make([]wsp.Instance, len(req.Instances))
	for i := range req.Instances {
		inst, err := s.buildInstance(&req.Instances[i])
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "bad-instance",
				fmt.Sprintf("instance %d: %v", i, err), 0)
			return
		}
		insts[i] = inst
	}
	cfg, err := s.requestConfig(&req.SolveOverrides)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	release := s.admitOrReject(w, r, s.solveCost(&req.SolveOverrides)*int64(len(insts)))
	if release == nil {
		return
	}
	defer release()

	ctx, cancel := s.solveContext(r, req.DeadlineMS)
	defer cancel()
	var steps []string
	if !req.NoDegrade {
		cfg, steps = degradeConfig(cfg, s.deg.rung())
	}

	var results []wsp.BatchResult
	err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				err = fmt.Errorf("%w: %v", errPanic, p)
			}
		}()
		if s.cfg.Fault != nil {
			info := faultinject.Info{Path: "/v1/batch", Client: clientID(r)}
			if err := s.cfg.Fault(ctx, info); err != nil {
				return err
			}
		}
		results = wsp.NewFromConfig(cfg).SolveBatch(ctx, insts)
		return nil
	}()
	if err != nil {
		status, code := errStatus(err)
		s.writeError(w, status, code, err.Error(), 0)
		return
	}

	resp := BatchResponse{OK: true, Degraded: len(steps) > 0, DegradeSteps: steps}
	for _, br := range results {
		item := BatchItem{ElapsedMS: float64(br.Elapsed) / float64(time.Millisecond)}
		if br.Err != nil {
			_, item.Code = errStatus(br.Err)
			item.Error = br.Err.Error()
			s.countExhausted(item.Code)
		} else {
			item.OK = true
			item.Agents = br.Res.Stats.Agents
			item.ServicedAt = br.Res.Sim.ServicedAt
		}
		resp.Items = append(resp.Items, item)
	}
	s.met.completed.Add(1)
	if resp.Degraded {
		s.met.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1)
	var req SweepRequest
	if err := s.decodeBody(w, r, &req); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	points := len(req.Corridors) * len(req.Lens) * req.Points
	if points <= 0 {
		s.writeError(w, http.StatusBadRequest, "bad-request",
			"sweep needs corridors, lens, and points", 0)
		return
	}
	if points > s.cfg.MaxSweepPoints {
		s.writeError(w, http.StatusUnprocessableEntity, "sweep-too-large",
			fmt.Sprintf("sweep of %d evaluations exceeds the %d bound", points, s.cfg.MaxSweepPoints), 0)
		return
	}
	cfg, err := s.requestConfig(&req.SolveOverrides)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return
	}
	release := s.admitOrReject(w, r, s.solveCost(&req.SolveOverrides)*int64(points))
	if release == nil {
		return
	}
	defer release()

	ctx, cancel := s.solveContext(r, req.DeadlineMS)
	defer cancel()
	var steps []string
	if !req.NoDegrade {
		cfg, steps = degradeConfig(cfg, s.deg.rung())
	}

	stripes, products := req.Stripes, req.Products
	if stripes <= 0 {
		stripes = 1
	}
	if products <= 0 {
		products = 2
	}
	spec := wsp.SweepSpec{
		Corridors: req.Corridors, Lens: req.Lens,
		Stripes: stripes, Products: products,
		Units: req.Units, Points: req.Points, Horizon: req.Horizon,
	}
	if req.Stream {
		s.streamSweep(w, r, ctx, cfg, spec, steps)
		return
	}
	var cells []wsp.SweepCell
	err = func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				err = fmt.Errorf("%w: %v", errPanic, p)
			}
		}()
		if s.cfg.Fault != nil {
			info := faultinject.Info{Path: "/v1/sweep", Client: clientID(r)}
			if err := s.cfg.Fault(ctx, info); err != nil {
				return err
			}
		}
		cells, err = wsp.NewFromConfig(cfg).Sweep(ctx, spec)
		return err
	}()
	if err != nil {
		status, code := errStatus(err)
		s.writeError(w, status, code, err.Error(), 0)
		return
	}

	resp := SweepResponse{OK: true, Degraded: len(steps) > 0, DegradeSteps: steps}
	for _, c := range cells {
		resp.Cells = append(resp.Cells, s.sweepCellResult(c))
	}
	s.met.completed.Add(1)
	if resp.Degraded {
		s.met.degraded.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// sweepCellResult converts one engine cell to its wire form, mapping
// per-point errors through the taxonomy and counting budget exhaustion
// exactly like the batch endpoint.
func (s *Server) sweepCellResult(c wsp.SweepCell) SweepCellResult {
	cell := SweepCellResult{Corridor: c.Corridor, MaxLen: c.MaxLen, Components: c.Stats.Components}
	for _, pt := range c.Points {
		pr := SweepPointResult{Units: pt.Units}
		if pt.Err != nil {
			_, pr.Code = errStatus(pt.Err)
			s.countExhausted(pr.Code)
		} else {
			pr.OK = true
			pr.Agents = pt.Result.Stats.Agents
		}
		cell.Points = append(cell.Points, pr)
	}
	return cell
}

// streamSweep is handleSweep's NDJSON tail: one "cell" line per completed
// topology (flushed immediately), then a terminal "summary" line — the
// same discipline as /v1/lifelong. Failures before the first cell use the
// normal error envelope; once the 200 is committed, errors travel in-band
// as an "error" line and the outcome counters are bumped via countStatus.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, ctx context.Context, cfg wsp.Config, spec wsp.SweepSpec, steps []string) {
	// The per-cell fault hook aborts through a cause-carrying cancel so the
	// walk's next topology fails with the hook's error attached (the cancel
	// taxonomy then maps it exactly like a mid-solve failure).
	runCtx, abort := context.WithCancelCause(ctx)
	defer abort(nil)

	cid := clientID(r)
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	streamed := false
	cellsOut := 0
	observe := func(c wsp.SweepCell) {
		// Per-cell fault hook (Info.Horizon carries the cell index): the
		// faultinject harness stalls or aborts walks between cells with it.
		if s.cfg.Fault != nil {
			if err := s.cfg.Fault(runCtx, faultinject.Info{Path: "/v1/sweep", Client: cid, Horizon: cellsOut}); err != nil {
				abort(err)
				return
			}
		}
		if !streamed {
			w.Header().Set("Content-Type", "application/x-ndjson")
			w.WriteHeader(http.StatusOK)
			streamed = true
		}
		enc.Encode(SweepCellLine{Type: "cell", SweepCellResult: s.sweepCellResult(c)})
		if flusher != nil {
			flusher.Flush()
		}
		cellsOut++
	}

	start := time.Now()
	err := func() (err error) {
		defer func() {
			if p := recover(); p != nil {
				s.met.panics.Add(1)
				err = fmt.Errorf("%w: %v", errPanic, p)
			}
		}()
		if s.cfg.Fault != nil {
			if err := s.cfg.Fault(runCtx, faultinject.Info{Path: "/v1/sweep", Client: cid}); err != nil {
				return err
			}
		}
		_, err = wsp.NewFromConfig(cfg).SweepObserve(runCtx, spec, observe)
		if err == nil && runCtx.Err() != nil {
			// The per-cell hook aborted on the walk's final topology: no
			// later pre-check could observe the cancellation, so surface
			// the cause here instead of a bogus ok summary.
			err = context.Cause(runCtx)
		}
		return err
	}()
	if err != nil {
		status, code := errStatus(err)
		if !streamed {
			s.writeError(w, status, code, err.Error(), 0)
			return
		}
		s.countStatus(status)
		enc.Encode(SweepErrorLine{Type: "error", Code: code, Error: err.Error(), Cells: cellsOut})
		if flusher != nil {
			flusher.Flush()
		}
		return
	}
	s.met.completed.Add(1)
	if len(steps) > 0 {
		s.met.degraded.Add(1)
	}
	line := SweepSummaryLine{
		Type:         "summary",
		OK:           true,
		Degraded:     len(steps) > 0,
		DegradeSteps: steps,
		Cells:        cellsOut,
		ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
	}
	if !streamed {
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.WriteHeader(http.StatusOK)
	}
	enc.Encode(line)
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}
