package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/agentplan"
	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/maps"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/warehouse"
	"repro/internal/workload"
	"repro/wsp"
)

// setupRuns is how many times a run repeats its set-up; setup_s is the
// median, so one slow start does not move it.
const setupRuns = 21

// maxAttempts is core.Options.MaxAttempts' default, which both in-process
// workloads use.
const maxAttempts = 3

// op is one solve of a closed-loop workload.
type op struct {
	key string // pinned-answer key, "<workload>/<instance>"
	fp  string // input fingerprint
	sys *traffic.System
	wl  warehouse.Workload
	T   int
}

// inproc is a closed-loop workload calling the library in this process:
// one client, a fixed op order, whole passes over the ops.
type inproc struct {
	name     string
	strategy core.Strategy
	// facade sends solves through wsp.Solver.Solve; otherwise they call
	// core.SolveScratch with one reused scratch, as calibrate.Run does.
	facade bool
	// expect lists the verdicts accepted on an input that has no pin.
	expect []calibrate.Verdict
	build  func(seed int64) ([]*op, error)
}

// tableI is the paper's nine Table I instances at T=3600 under default
// route packing, solved through the public facade. Realization and
// validation dominate and the LP does no work.
var tableI = &inproc{
	name:     "tablei-e2e",
	strategy: core.RoutePacking,
	facade:   true,
	expect:   []calibrate.Verdict{calibrate.VerdictSolved},
	build:    tableIOps,
}

// corpusContract is the seeded scenario corpus under the ContractILP
// strategy with default knobs. Flow synthesis and its LP calls dominate,
// mostly proving integral infeasibility.
var corpusContract = &inproc{
	name:     "corpus-contract",
	strategy: core.ContractILP,
	expect: []calibrate.Verdict{calibrate.VerdictSolved, calibrate.VerdictInfeasible,
		calibrate.VerdictHorizon, calibrate.VerdictBudget},
	build: corpusOps,
}

const tableIHorizon = 3600

func tableIOps(int64) ([]*op, error) {
	rows := []struct {
		name  string
		build func() (*maps.Map, error)
		units []int
	}{
		{"SortingCenter", maps.SortingCenter, []int{160, 320, 480}},
		{"Fulfillment1", maps.Fulfillment1, []int{550, 825, 1100}},
		{"Fulfillment2", maps.Fulfillment2, []int{1200, 1320, 1440}},
	}
	var ops []*op
	for _, r := range rows {
		m, err := r.build()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		for _, u := range r.units {
			wl, err := workload.Uniform(m.W, u)
			if err != nil {
				return nil, fmt.Errorf("%s/%d: %w", r.name, u, err)
			}
			ops = append(ops, &op{key: fmt.Sprintf("tablei-e2e/%s-%d", r.name, u), sys: m.S, wl: wl, T: tableIHorizon})
		}
	}
	return ops, nil
}

// corpusSeeds is how many consecutive corpus seeds, starting at the run
// seed, one pass covers. The generator randomizes three demand instances
// per seed, and one of them flips between solved (~80 ms) and infeasible
// (~250 ms) with the seed; pooling ten seeds' variants keeps the latency
// percentiles from jumping between instance clusters with the run seed.
const corpusSeeds = 10

func corpusOps(seed int64) ([]*op, error) {
	var ops []*op
	for j := range int64(corpusSeeds) {
		insts, err := datasets.Generate(seed + j)
		if err != nil {
			return nil, err
		}
		for _, in := range insts {
			key := "corpus-contract/" + in.Name
			if j > 0 {
				key += fmt.Sprintf("@%d", seed+j)
			}
			ops = append(ops, &op{key: key, sys: in.Sys, wl: in.WL, T: in.T})
		}
	}
	return ops, nil
}

// setup builds the ops setupRuns times, each from a collected heap, and
// returns the last build with the median build time in seconds. It then
// fingerprints the ops and drops repeated inputs, keeping the first; that
// is the benchmark's own cost and stays out of the timing.
func (w *inproc) setup(seed int64) ([]*op, float64, error) {
	var ops []*op
	var times []float64
	for range setupRuns {
		runtime.GC()
		t0 := time.Now()
		var err error
		if ops, err = w.build(seed); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	seen := map[string]bool{}
	var distinct []*op
	for _, o := range ops {
		fp, err := instanceFingerprint(o.sys, o.wl, o.T)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", o.key, err)
		}
		if !seen[fp] {
			seen[fp] = true
			o.fp = fp
			distinct = append(distinct, o)
		}
	}
	return distinct, median(times), nil
}

// runner holds one run's state. The untraced solves and each traced
// call path own separate scratches, so every path sees the same sequence
// of instances and the same cold/warm pattern.
type runner struct {
	w      *inproc
	cfg    config
	ops    []*op
	solver *wsp.Solver
	sc     core.Scratch // untraced core.SolveScratch calls
	tcore  core.Scratch // traced core.SolveScratch calls
	tcyc   cycles.Scratch
	tflow  flow.ContractModel
	tr     *tracer
	out    *outcome
}

func (w *inproc) newRunner(cfg config) (*runner, float64, error) {
	ops, setup, err := w.setup(cfg.seed)
	if err != nil {
		return nil, 0, err
	}
	return &runner{w: w, cfg: cfg, ops: ops, solver: wsp.New(wsp.WithStrategy(w.strategy)),
		tr: newTracer(), out: &outcome{m: map[string]float64{}}}, setup, nil
}

func (w *inproc) pins(ctx context.Context, cfg config) (map[string]pin, error) {
	r, _, err := w.newRunner(cfg)
	if err != nil {
		return nil, err
	}
	p := map[string]pin{}
	for _, o := range r.ops {
		res, err := r.solve(ctx, o)
		p[o.key] = pin{Fingerprint: o.fp, answer: answerOf(res, err)}
	}
	return p, nil
}

// solve is one untraced operation: the call a user of the workload makes.
func (r *runner) solve(ctx context.Context, o *op) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("panic: %v", p)
		}
	}()
	if r.w.facade {
		return r.solver.Solve(ctx, wsp.Instance{System: o.sys, Workload: o.wl, Horizon: o.T})
	}
	return core.SolveScratch(ctx, o.sys, o.wl, o.T, core.Options{Strategy: r.w.strategy}, &r.sc)
}

// check counts a failure unless the answer matches its pin or, without
// one, carries an expected verdict and a plan the simulator accepts.
func (r *runner) check(o *op, res *core.Result, got answer) bool {
	pinned, err := r.cfg.pins.check(r.cfg.seed, o.key, o.fp, got, r.w.expect)
	if err == nil && !pinned && got.Verdict == calibrate.VerdictSolved {
		err = validate(o, res)
	}
	if err != nil {
		r.out.fail("%v", err)
		return false
	}
	return true
}

// validate replays a solved plan through sim.Run, independently of the
// check the solver already made.
func validate(o *op, res *core.Result) error {
	sr := sim.Run(o.sys.W, res.Plan, o.wl)
	switch {
	case len(sr.Violations) > 0:
		return fmt.Errorf("%s: plan violates feasibility: %w", o.key, sr.Violations[0])
	case sr.ServicedAt < 0 || sr.ServicedAt != res.Sim.ServicedAt:
		return fmt.Errorf("%s: plan services the workload at step %d, solver reported %d", o.key, sr.ServicedAt, res.Sim.ServicedAt)
	case res.Plan.NumAgents() != res.Stats.Agents:
		return fmt.Errorf("%s: plan has %d agents, solver reported %d", o.key, res.Plan.NumAgents(), res.Stats.Agents)
	}
	return nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// pass is one untraced pass's measurements.
type pass struct {
	latMS  []float64
	busy   time.Duration // summed op latency
	ok     int           // correct answers
	solved int
	alloc  uint64 // heap bytes the solves allocated
	work   int64  // lp.WorkMeter delta
	gc     uint32
	pause  time.Duration
}

func (r *runner) pass(ctx context.Context) pass {
	var p pass
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	w0 := lp.WorkMeter()
	for _, o := range r.ops {
		a0 := heapAllocs()
		t0 := time.Now()
		res, err := r.solve(ctx, o)
		d := time.Since(t0)
		p.alloc += heapAllocs() - a0
		p.busy += d
		p.latMS = append(p.latMS, float64(d)/1e6)
		got := answerOf(res, err)
		r.out.attempted++
		if r.check(o, res, got) {
			p.ok++
		}
		if got.Verdict == calibrate.VerdictSolved {
			p.solved++
		}
	}
	p.work = lp.WorkMeter() - w0
	runtime.ReadMemStats(&ms1)
	p.gc = ms1.NumGC - ms0.NumGC
	p.pause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return p
}

// chainResult is what the traced direct-stage chain produced for one op.
type chainResult struct {
	ans      answer
	attempts int
	cycles   int // cycles synthesized, over all attempts
	steps    int // agent-steps realized (agents × T), over all attempts
}

// chain re-enacts core.SolveScratch's synthesize → map → realize →
// validate attempt loop by calling each stage's public function directly,
// so every stage gets its own span under parent. The traced run checks
// that it reaches core's answer and attempt count.
func (r *runner) chain(ctx context.Context, o *op, opID, parent int) chainResult {
	var cr chainResult
	margin := 0
	var err error
	for cr.attempts = 1; ; cr.attempts++ {
		var ans answer
		if ans, err = r.chainOnce(ctx, o, margin, opID, parent, &cr); err == nil {
			cr.ans = ans
			return cr
		}
		if cr.attempts == maxAttempts || errors.Is(err, lp.ErrCanceled) {
			break
		}
		if margin == 0 {
			margin = defaultMargin(o.sys, o.T)
		}
		margin *= 2
		if qc := o.T / o.sys.CycleTime(); margin > qc-1 {
			margin = qc - 1
		}
	}
	cr.ans = answer{Verdict: calibrate.Classify(err)}
	return cr
}

// defaultMargin is core's first retry margin (core.defaultMargin is
// unexported). A drift shows as an answer or attempt mismatch.
func defaultMargin(s *traffic.System, T int) int {
	tc := s.CycleTime()
	if tc == 0 {
		return 1
	}
	m := s.NumComponents() + 2
	if qc := T / tc; m > qc/4 {
		m = qc / 4
	}
	return max(m, 1)
}

func (r *runner) chainOnce(ctx context.Context, o *op, margin, opID, parent int, cr *chainResult) (answer, error) {
	tr := r.tr
	var cs *cycles.Set
	var err error
	if r.w.strategy == core.RoutePacking {
		i := tr.begin("cycles.synthesize", opID, parent)
		cs, err = cycles.Synthesize(o.sys, o.wl, o.T, cycles.Options{WarmupMargin: margin, Scratch: &r.tcyc})
		tr.end(i)
	} else {
		i := tr.begin("flow.synthesize", opID, parent)
		set, ferr := r.tflow.Synthesize(ctx, o.sys, o.wl, o.T, flow.Options{WarmupMargin: margin})
		tr.end(i)
		if ferr != nil {
			return answer{}, ferr
		}
		i = tr.begin("cycles.map", opID, parent)
		cs, err = cycles.FromFlowSet(set, o.wl)
		tr.end(i)
	}
	if err != nil {
		return answer{}, err
	}
	cr.cycles += len(cs.Cycles)
	i := tr.begin("agentplan.realize", opID, parent)
	plan, stats, err := agentplan.Realize(cs, o.wl, o.T)
	tr.end(i)
	if err != nil {
		return answer{}, err
	}
	cr.steps += plan.NumAgents() * plan.Horizon()
	i = tr.begin("sim.validate", opID, parent)
	sr := sim.Run(o.sys.W, plan, o.wl)
	tr.end(i)
	if len(sr.Violations) > 0 {
		return answer{}, sr.Violations[0]
	}
	if sr.ServicedAt < 0 {
		return answer{}, fmt.Errorf("plan delivers %v of %v within %d steps", sr.Delivered, o.wl.Units, o.T)
	}
	return answer{Verdict: calibrate.VerdictSolved, Agents: stats.Agents, Cycles: len(cs.Cycles), ServicedAt: sr.ServicedAt}, nil
}

// crossCheck counts a failure unless every traced call reached the
// direct-stage chain's answer (and core its attempt count) and that answer
// passes the untraced run's check.
func (r *runner) crossCheck(o *op, answers []answer, res *core.Result, cr chainResult) {
	for _, a := range answers {
		if a != cr.ans {
			r.out.fail("%s: traced call answered %+v, direct stages %+v", o.key, a, cr.ans)
			return
		}
	}
	if res != nil && res.Attempts != cr.attempts {
		r.out.fail("%s: core took %d attempts, direct stages %d", o.key, res.Attempts, cr.attempts)
		return
	}
	r.check(o, res, cr.ans)
}

// tracedOp runs one op with spans: the facade call (when the workload
// uses it), a paired direct core.SolveScratch call, and the direct-stage
// chain, then cross-checks their answers. A panic counts as a failed op.
func (r *runner) tracedOp(ctx context.Context, o *op, opID int) (cr chainResult) {
	r.out.attempted++
	defer func() {
		if p := recover(); p != nil {
			r.out.fail("%s: panic: %v", o.key, p)
		}
	}()
	tr := r.tr
	root := tr.begin("op", opID, -1)
	var answers []answer
	if r.w.facade {
		i := tr.begin("wsp", opID, root)
		res, err := r.solver.Solve(ctx, wsp.Instance{System: o.sys, Workload: o.wl, Horizon: o.T})
		tr.end(i)
		answers = append(answers, answerOf(res, err))
	}
	i := tr.begin("core", opID, root)
	res, err := core.SolveScratch(ctx, o.sys, o.wl, o.T, core.Options{Strategy: r.w.strategy}, &r.tcore)
	tr.end(i)
	i = tr.begin("stages", opID, root)
	cr = r.chain(ctx, o, opID, i)
	tr.end(i)
	tr.end(root)
	r.crossCheck(o, append(answers, answerOf(res, err)), res, cr)
	return cr
}

// tracedPass is one traced pass; it returns the pass's per-layer values.
func (r *runner) tracedPass(ctx context.Context, n int) map[string]float64 {
	from := len(r.tr.spans)
	var attempts, cyc, steps int
	for k, o := range r.ops {
		cr := r.tracedOp(ctx, o, n*len(r.ops)+k)
		attempts += cr.attempts
		cyc += cr.cycles
		steps += cr.steps
	}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	s := r.tr.sums(from)
	coreD := s["core"]
	m := map[string]float64{
		"core.solve_ms":               ms(coreD),
		"core.self_ms":                ms(selfTime(coreD, s["cycles.synthesize"], s["flow.synthesize"], s["cycles.map"], s["agentplan.realize"], s["sim.validate"])),
		"core.attempts":               float64(attempts),
		"cycles.synthesize_ms":        ms(s["cycles.synthesize"]),
		"cycles.map_ms":               ms(s["cycles.map"]),
		"cycles.count":                float64(cyc),
		"cycles.core_share":           ratio(float64(s["cycles.synthesize"]+s["cycles.map"]), float64(coreD)),
		"flow.synthesize_ms":          ms(s["flow.synthesize"]),
		"flow.core_share":             ratio(float64(s["flow.synthesize"]), float64(coreD)),
		"agentplan.realize_ms":        ms(s["agentplan.realize"]),
		"agentplan.agent_steps":       float64(steps),
		"agentplan.ns_per_agent_step": ratio(float64(s["agentplan.realize"]), float64(steps)),
		"agentplan.core_share":        ratio(float64(s["agentplan.realize"]), float64(coreD)),
		"sim.validate_ms":             ms(s["sim.validate"]),
		"sim.agent_steps_per_ms":      ratio(float64(steps), ms(s["sim.validate"])),
		"sim.core_share":              ratio(float64(s["sim.validate"]), float64(coreD)),
		"wsp.self_ms":                 0,
		"traced_call_ms":              ms(coreD),
	}
	if r.w.facade {
		m["wsp.self_ms"] = ms(selfTime(s["wsp"], coreD))
		m["traced_call_ms"] = ms(s["wsp"])
	}
	return m
}

func (w *inproc) run(ctx context.Context, cfg config) (*outcome, error) {
	r, setup, err := w.newRunner(cfg)
	if err != nil {
		return nil, err
	}
	out := r.out
	var passes []pass
	var traced []map[string]float64
	var lat []float64
	start := time.Now()
	// The traced run alternates untraced and traced passes, so both see
	// the same machine conditions and their difference is the tracing
	// overhead.
	for time.Since(start) < cfg.seconds || (!cfg.traced && len(lat) < minSamples) || (cfg.traced && len(traced) == 0) {
		p := r.pass(ctx)
		passes = append(passes, p)
		lat = append(lat, p.latMS...)
		if cfg.traced {
			traced = append(traced, r.tracedPass(ctx, len(traced)))
		}
	}

	per := func(f func(p pass) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	m := out.m
	m["setup_s"] = setup
	m["solves_per_s"] = per(func(p pass) float64 { return float64(p.ok) / p.busy.Seconds() })
	m["alloc_mb_per_solve"] = per(func(p pass) float64 { return float64(p.alloc) / float64(len(r.ops)) / (1 << 20) })
	m["samples"] = float64(len(lat))
	if !cfg.traced {
		if m["latency_p50_ms"], err = percentile(lat, 0.5); err != nil {
			return nil, err
		}
		if m["latency_p90_ms"], err = percentile(lat, 0.9); err != nil {
			return nil, err
		}
	}
	m["solved"] = per(func(p pass) float64 { return float64(p.solved) })
	m["lp.work_units"] = per(func(p pass) float64 { return float64(p.work) })
	m["runtime.gc_cycles"] = per(func(p pass) float64 { return float64(p.gc) })
	m["runtime.gc_pause_ms"] = per(func(p pass) float64 { return float64(p.pause) / 1e6 })
	m["runtime.alloc_mb"] = per(func(p pass) float64 { return float64(p.alloc) / (1 << 20) })
	for _, k := range []string{"server.overhead_ms_p50", "server.overhead_ms_p90", "server.rejected",
		"server.cache_hit_ratio", "server.cache_lookups", "server.cache_waits", "loadgen.late_ms_p90"} {
		m[k] = 0 // no server and no open-loop generator on this path
	}
	if cfg.traced {
		for k := range traced[0] {
			xs := make([]float64, len(traced))
			for i, t := range traced {
				xs[i] = t[k]
			}
			m[k] = median(xs)
		}
		m["lp.work_units_per_ms"] = ratio(m["lp.work_units"], m["flow.synthesize_ms"])
		m["trace.overhead_ms"] = m["traced_call_ms"] - per(func(p pass) float64 { return float64(p.busy) / 1e6 })
		if err := r.tr.write(cfg.traceDir, w.name); err != nil {
			return nil, err
		}
		printLayerTable(m)
	}
	return out, nil
}

// printLayerTable prints each layer's time per pass and its share of the
// core span, to standard error so the result line stays last on stdout.
func printLayerTable(m map[string]float64) {
	coreMS := m["core.solve_ms"]
	fmt.Fprintf(os.Stderr, "%-20s %12s %10s\n", "layer (per pass)", "self ms", "of core")
	for _, l := range []struct{ name, key string }{
		{"wsp (facade)", "wsp.self_ms"},
		{"core (self)", "core.self_ms"},
		{"cycles.synthesize", "cycles.synthesize_ms"},
		{"cycles.map", "cycles.map_ms"},
		{"flow+lp", "flow.synthesize_ms"},
		{"agentplan", "agentplan.realize_ms"},
		{"sim", "sim.validate_ms"},
	} {
		fmt.Fprintf(os.Stderr, "%-20s %12.3f %9.1f%%\n", l.name, m[l.key], 100*ratio(m[l.key], coreMS))
	}
	fmt.Fprintf(os.Stderr, "%-20s %12.3f\n", "core span", coreMS)
	fmt.Fprintf(os.Stderr, "%-20s %12.3f (traced call minus untraced call, per pass)\n", "tracing overhead", m["trace.overhead_ms"])
}
