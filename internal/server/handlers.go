package server

import (
	"cmp"
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
// out of writeError so a stream that has already committed its 200 status
// line accounts an in-band error the same way (ndjson.fail).
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

// system resolves the warehouse half of a spec whose signs were checked:
// the traffic system, the inline instance's own workload (nil for a
// builtin map), and the horizon — the spec's, else the inline instance's
// T, 0 when neither sets one. Builtin maps are built once and shared: a
// traffic.System is read-only after Build, so concurrent solves on one
// map are safe.
func (s *Server) system(spec *InstanceSpec) (*wsp.System, *wsp.Workload, int, error) {
	switch {
	case spec.Instance != nil && spec.Map != "":
		return nil, nil, 0, fmt.Errorf("request names both an inline instance and map %q", spec.Map)
	case spec.Instance != nil:
		sys, wl, err := wsp.DecodeInstance(spec.Instance)
		return sys, wl, cmp.Or(spec.Horizon, spec.Instance.T), err
	case spec.Map != "":
		m, err := s.builtinMap(spec.Map)
		if err != nil {
			return nil, nil, 0, err
		}
		return m.S, nil, spec.Horizon, nil
	}
	return nil, nil, 0, fmt.Errorf("request names neither an inline instance nor a builtin map")
}

// buildInstance materializes an InstanceSpec for /v1/solve and /v1/batch.
func (s *Server) buildInstance(spec *InstanceSpec) (wsp.Instance, error) {
	var inst wsp.Instance
	if err := spec.checkSigns(); err != nil {
		return inst, err
	}
	sys, wl, T, err := s.system(spec)
	if err != nil {
		return inst, err
	}
	inst.System, inst.Horizon = sys, T
	if wl != nil {
		inst.Workload = *wl
	}
	if spec.Units > 0 {
		if inst.Workload, err = wsp.UniformWorkload(sys.W, spec.Units); err != nil {
			return inst, err
		}
	}
	if len(inst.Workload.Units) == 0 {
		return inst, fmt.Errorf("request carries no workload (set units or an instance workload)")
	}
	if T <= 0 {
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

// call is one admitted request: the solver configuration it runs (degraded
// unless it opted out) with the ladder steps applied, and the context that
// carries its deadline.
type call struct {
	s       *Server
	ctx     context.Context
	cancel  context.CancelFunc
	release func()
	cfg     wsp.Config
	steps   []string
	client  string
}

// admit is the admission step of every solve endpoint. It resolves the
// request's configuration (400 bad-request), charges the client n solves
// at the gate (503 draining, 429 over-capacity or work-budget), merges the
// deadline policy and applies the degradation ladder unless the request
// sets no_degrade. On a refusal the answer is written and admit returns
// nil; otherwise the caller defers done.
func (s *Server) admit(w http.ResponseWriter, r *http.Request, ov *SolveOverrides, n int) *call {
	cfg, err := s.requestConfig(ov)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		return nil
	}
	if s.draining.Load() {
		s.met.rejectedDrain.Add(1)
		w.Header().Set("Connection", "close")
		s.writeError(w, http.StatusServiceUnavailable, "draining", "server is draining", 0)
		return nil
	}
	cost := s.cfg.SolveCost
	if ov.WorkBudget > 0 {
		cost = ov.WorkBudget
	}
	client := clientID(r)
	release, occ, d := s.adm.admit(client, cost*int64(n))
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

	// The server's deadline (default when absent, clamped to MaxDeadline)
	// is layered on the request context, so a client disconnect still
	// cancels the solve and the taxonomy tells the two apart (504 vs 499).
	deadline := s.cfg.DefaultDeadline
	if ov.DeadlineMS > 0 {
		deadline = time.Duration(ov.DeadlineMS) * time.Millisecond
	}
	c := &call{s: s, cfg: cfg, client: client, release: release}
	c.ctx, c.cancel = context.WithTimeout(r.Context(), min(deadline, s.cfg.MaxDeadline))
	if !ov.NoDegrade {
		c.cfg, c.steps = degradeConfig(cfg, s.deg.rung())
	}
	return c
}

// done cancels the call's context, then frees its admission slot.
func (c *call) done() {
	c.cancel()
	c.s.met.inFlight.Add(-1)
	c.release()
}

// complete accounts a call answered 200 and reports whether it ran
// degraded.
func (c *call) complete() bool {
	c.s.met.completed.Add(1)
	if len(c.steps) > 0 {
		c.s.met.degraded.Add(1)
	}
	return len(c.steps) > 0
}

// guard runs the fault hook, then fn, under the package's one recover: a
// panic in either is counted and comes back as an error wrapping errPanic,
// and the daemon keeps serving.
func (s *Server) guard(ctx context.Context, info faultinject.Info, fn func() error) (err error) {
	defer func() {
		if p := recover(); p != nil {
			s.met.panics.Add(1)
			err = fmt.Errorf("%w: %v", errPanic, p)
		}
	}()
	if s.cfg.Fault != nil {
		if err := s.cfg.Fault(ctx, info); err != nil {
			return err
		}
	}
	return fn()
}

// ndjson is the streamed answer of /v1/sweep and /v1/lifelong. The 200
// status line and the NDJSON content type go out with the first line, and
// every line is flushed at once, so clients watch the run live. The run
// goes on under ctx, which the per-line fault hook can abort with a cause.
type ndjson struct {
	s     *Server
	w     http.ResponseWriter
	enc   *json.Encoder
	lines int
	info  faultinject.Info
	ctx   context.Context
	abort context.CancelCauseFunc
}

// stream starts the NDJSON answer of c. The caller defers abort(nil).
func (s *Server) stream(w http.ResponseWriter, c *call, path string) *ndjson {
	n := &ndjson{s: s, w: w, enc: json.NewEncoder(w), info: faultinject.Info{Path: path, Client: c.client}}
	n.ctx, n.abort = context.WithCancelCause(c.ctx)
	return n
}

func (n *ndjson) write(v any) {
	if n.lines == 0 {
		n.w.Header().Set("Content-Type", "application/x-ndjson")
		n.w.WriteHeader(http.StatusOK)
	}
	n.lines++
	n.enc.Encode(v)
	if f, ok := n.w.(http.Flusher); ok {
		f.Flush()
	}
}

// step writes the line for the i-th cell or epoch after the per-line
// fault hook (Info.Horizon = i), with which the faultinject harness
// stalls or aborts a run between lines. A hook error cancels ctx with
// that error as its cause, so the run's next solve fails with it attached
// and the taxonomy maps it like a mid-solve failure; no line is written.
func (n *ndjson) step(i int, line func() any) {
	if n.s.cfg.Fault != nil {
		info := n.info
		info.Horizon = i
		if err := n.s.cfg.Fault(n.ctx, info); err != nil {
			n.abort(err)
			return
		}
	}
	n.write(line())
}

// fail answers err with the error envelope while no line is out. Once the
// 200 is committed the error can only travel in band: the outcome counters
// are bumped through countStatus and inband(code) is the last line.
func (n *ndjson) fail(err error, inband func(code string) any) {
	status, code := errStatus(err)
	if n.lines == 0 {
		n.s.writeError(n.w, status, code, err.Error(), 0)
		return
	}
	n.s.countStatus(status)
	n.write(inband(code))
}

// solveGuarded runs one /v1/solve attempt under guard on a scratch checked
// out by topology signature. The scratch goes back to the warm pool unless
// the solve or the hook panicked: a panicked scratch may hold half-mutated
// state, so it is dropped.
func (s *Server) solveGuarded(c *call, inst wsp.Instance, info faultinject.Info) (res *wsp.Result, err error) {
	sig := inst.System.StructureSignature()
	sc := s.cache.checkout(sig)
	err = s.guard(c.ctx, info, func() (err error) {
		res, err = wsp.NewFromConfig(c.cfg).SolveWithScratch(c.ctx, inst, sc)
		return err
	})
	if !errors.Is(err, errPanic) {
		s.cache.release(sig, sc)
	}
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
	c := s.admit(w, r, &req.SolveOverrides, 1)
	if c == nil {
		return
	}
	defer c.done()

	info := faultinject.Info{Path: "/v1/solve", Client: c.client, Horizon: inst.Horizon}
	start := time.Now()
	res, err := s.solveGuarded(c, inst, info)
	if errors.Is(err, wsp.ErrBudgetExhausted) && !req.NoDegrade && c.cfg.Strategy != wsp.RoutePacking {
		// Budget exhaustion is itself a load signal — and, when the
		// request allows degradation, a recoverable one: answer with the
		// cheap strategy instead of erroring.
		s.deg.observeExhausted()
		var more []string
		c.cfg, more = degradeConfig(c.cfg, 2)
		c.steps = append(c.steps, more...)
		res, err = s.solveGuarded(c, inst, info)
	}
	if err != nil {
		status, code := errStatus(err)
		s.countExhausted(code)
		s.writeError(w, status, code, err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, SolveResponse{
		OK:           true,
		Degraded:     c.complete(),
		DegradeSteps: c.steps,
		Strategy:     c.cfg.Strategy.String(),
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
	c := s.admit(w, r, &req.SolveOverrides, len(insts))
	if c == nil {
		return
	}
	defer c.done()

	var results []wsp.BatchResult
	err := s.guard(c.ctx, faultinject.Info{Path: "/v1/batch", Client: c.client}, func() error {
		results = wsp.NewFromConfig(c.cfg).SolveBatch(c.ctx, insts)
		return nil
	})
	if err != nil {
		status, code := errStatus(err)
		s.writeError(w, status, code, err.Error(), 0)
		return
	}
	resp := BatchResponse{OK: true, DegradeSteps: c.steps}
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
	resp.Degraded = c.complete()
	writeJSON(w, http.StatusOK, resp)
}

// handleSweep walks the grid once with wsp.SweepObserve. With stream set,
// the observer writes one "cell" line per completed topology, then a
// terminal "summary" line — the /v1/lifelong discipline; without it the
// cells are converted after the walk, so a failed plain sweep counts none
// of its points.
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
	// A points count past the bound must not wrap the product back into it.
	if points > s.cfg.MaxSweepPoints || req.Points > s.cfg.MaxSweepPoints {
		s.writeError(w, http.StatusUnprocessableEntity, "sweep-too-large",
			fmt.Sprintf("sweep of %d evaluations exceeds the %d bound", points, s.cfg.MaxSweepPoints), 0)
		return
	}
	spec := wsp.SweepSpec{
		Corridors: req.Corridors, Lens: req.Lens,
		Stripes: cmp.Or(req.Stripes, 1), Products: cmp.Or(req.Products, 2),
		Units: req.Units, Points: req.Points, Horizon: req.Horizon,
	}
	if err := spec.Validate(); err != nil {
		var size interface{ TooLarge() bool }
		if errors.As(err, &size) && size.TooLarge() {
			s.writeError(w, http.StatusUnprocessableEntity, "sweep-too-large", err.Error(), 0)
		} else {
			s.writeError(w, http.StatusBadRequest, "bad-request", err.Error(), 0)
		}
		return
	}
	c := s.admit(w, r, &req.SolveOverrides, points)
	if c == nil {
		return
	}
	defer c.done()

	ctx := c.ctx
	var observe func(wsp.SweepCell)
	var out *ndjson
	if req.Stream {
		out = s.stream(w, c, "/v1/sweep")
		defer out.abort(nil)
		ctx = out.ctx
		observe = func(cell wsp.SweepCell) {
			out.step(out.lines, func() any {
				return SweepCellLine{Type: "cell", SweepCellResult: s.sweepCellResult(cell)}
			})
		}
	}
	start := time.Now()
	var cells []wsp.SweepCell
	err := s.guard(ctx, faultinject.Info{Path: "/v1/sweep", Client: c.client}, func() (err error) {
		cells, err = wsp.NewFromConfig(c.cfg).SweepObserve(ctx, spec, observe)
		if err == nil && out != nil && ctx.Err() != nil {
			// The per-cell hook aborted on the walk's final topology: no
			// later pre-check could observe the cancellation, so surface
			// the cause here instead of a bogus ok summary.
			err = context.Cause(ctx)
		}
		return err
	})
	switch {
	case out != nil && err != nil:
		out.fail(err, func(code string) any {
			return SweepErrorLine{Type: "error", Code: code, Error: err.Error(), Cells: out.lines}
		})
	case out != nil:
		out.write(SweepSummaryLine{
			Type:         "summary",
			OK:           true,
			Degraded:     c.complete(),
			DegradeSteps: c.steps,
			Cells:        out.lines,
			ElapsedMS:    float64(time.Since(start)) / float64(time.Millisecond),
		})
	case err != nil:
		status, code := errStatus(err)
		s.writeError(w, status, code, err.Error(), 0)
	default:
		resp := SweepResponse{OK: true, DegradeSteps: c.steps}
		for _, cell := range cells {
			resp.Cells = append(resp.Cells, s.sweepCellResult(cell))
		}
		resp.Degraded = c.complete()
		writeJSON(w, http.StatusOK, resp)
	}
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
