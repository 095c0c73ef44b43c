package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/calibrate"
	"repro/internal/datasets"
	"repro/internal/server"
	"repro/internal/wspio"
	"repro/wsp"
)

// The open-loop generator offers openRate requests per second over at
// most openConns connections. openRate is about half the capacity measured
// on a 2-core machine (README.md), so queueing shows in the tail without
// the backlog growing.
const (
	openRate  = 115.0
	openConns = 2
)

// wspdOpen serves a seeded open-loop arrival schedule to a loopback wspd
// daemon: route solves on the builtin sorting map plus contract solves of
// small inline corpus instances, all with no_degrade set.
type wspdOpen struct{}

// reqKind is one request shape of the mix.
type reqKind struct {
	key    string // pinned-answer key
	fp     string // fingerprint of the body
	weight float64
	body   []byte
}

// openMix builds the request shapes. The inline instances come from the
// seed's corpus; they are ones its generator does not randomize, each
// solving in a few milliseconds under ContractILP.
func openMix(seed int64) ([]reqKind, error) {
	var kinds []reqKind
	add := func(key string, weight float64, req server.SolveRequest) error {
		req.NoDegrade = true
		body, err := json.Marshal(req)
		if err != nil {
			return err
		}
		kinds = append(kinds, reqKind{key: "wspd-open/" + key, fp: fingerprint(body), weight: weight, body: body})
		return nil
	}
	for _, units := range []int{160, 320, 480} {
		req := server.SolveRequest{
			InstanceSpec:   server.InstanceSpec{Map: "sorting", Units: units, Horizon: tableIHorizon},
			SolveOverrides: server.SolveOverrides{Strategy: "route"},
		}
		if err := add(fmt.Sprintf("route/sorting-%d", units), 0.25, req); err != nil {
			return nil, err
		}
	}
	insts, err := datasets.Generate(seed, "stripes", "demand")
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"stripes/S1-R2-V2-L6-st1", "stripes/S1-R3-V2-L6-st1", "demand/spike-0"} {
		var in *datasets.Instance
		for _, c := range insts {
			if c.Name == name {
				in = c
			}
		}
		if in == nil {
			return nil, fmt.Errorf("corpus has no instance %s", name)
		}
		inst, err := wspio.Encode(in.Sys, &in.WL, in.T, in.Name)
		if err != nil {
			return nil, err
		}
		req := server.SolveRequest{
			InstanceSpec:   server.InstanceSpec{Instance: inst},
			SolveOverrides: server.SolveOverrides{Strategy: "contract"},
		}
		if err := add("contract/"+name, 0.25/3, req); err != nil {
			return nil, err
		}
	}
	return kinds, nil
}

// arrival is one scheduled request.
type arrival struct {
	due  time.Duration // offset from the schedule's start
	kind int
}

// schedule draws n jittered periodic arrivals: gaps uniform on 0.5–1.5
// times the mean, rescaled so the last arrival falls at span. Poisson gaps
// made the p90 hinge on how bursty each seed's schedule happened to be
// (its spread over ten seeds reached 26% of the median); these keep the
// load open-loop and seeded with the p90 steady. Kinds are drawn by
// weight. The same seed gives the same schedule.
func schedule(seed int64, n int, span time.Duration, weights []float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	var total float64
	for _, w := range weights {
		total += w
	}
	out := make([]arrival, n)
	at := make([]float64, n)
	var t float64
	for i := range out {
		t += 0.5 + rng.Float64()
		at[i] = t
		x := rng.Float64() * total
		k := 0
		for k < len(weights)-1 && x >= weights[k] {
			x -= weights[k]
			k++
		}
		out[i].kind = k
	}
	for i := range out {
		out[i].due = time.Duration(at[i] / t * float64(span))
	}
	return out
}

// sample is one request's timeline, in offsets from the schedule's start.
type sample struct {
	due, sent, recv time.Duration
	serverMS        float64 // the response's elapsed_ms
	attempts        int
	cycles          int
	err             error
}

// late is how long after its due time the request went out.
func (s sample) late() time.Duration { return s.sent - s.due }

// latency runs from the due time, not the send time, so a stall that holds
// back later sends counts against them too.
func (s sample) latency() time.Duration { return s.recv - s.due }

// overheadMS is the round trip minus the server's own solve time: HTTP,
// JSON, admission and queueing inside the daemon.
func (s sample) overheadMS() float64 { return float64(s.recv-s.sent)/1e6 - s.serverMS }

// gcCycle is one line of the daemon's GODEBUG=gctrace=1 output.
type gcCycle struct {
	pause             time.Duration // the two stop-the-world phases
	heapEnd, heapLive int64         // MB at the end of the cycle, and marked live
}

var gcLine = regexp.MustCompile(`^gc \d+ @[\d.]+s \d+%: ([\d.]+)\+[\d.]+\+([\d.]+) ms clock, .* \d+->(\d+)->(\d+) MB`)

func parseGC(line string) (gcCycle, bool) {
	m := gcLine.FindStringSubmatch(line)
	if m == nil {
		return gcCycle{}, false
	}
	f := func(s string) float64 { v, _ := strconv.ParseFloat(s, 64); return v }
	return gcCycle{
		pause:    time.Duration((f(m[1]) + f(m[2])) * 1e6),
		heapEnd:  int64(f(m[3])),
		heapLive: int64(f(m[4])),
	}, true
}

// allocMB estimates the heap allocated over cycles[from:to] as the growth
// from each cycle's predecessor's live heap to its own end-of-cycle heap.
// The trace prints whole MB, so each cycle is off by under 1 MB either way.
func allocMB(cycles []gcCycle, from, to int) float64 {
	var sum int64
	for i := from; i < to; i++ {
		var prevLive int64
		if i > 0 {
			prevLive = cycles[i-1].heapLive
		}
		sum += cycles[i].heapEnd - prevLive
	}
	return float64(sum)
}

// daemonLog receives the daemon's standard error: the line announcing the
// listen address, and one GC trace line per cycle.
type daemonLog struct {
	mu   sync.Mutex
	part []byte
	addr chan string
	gcs  []gcCycle
}

func (l *daemonLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.part = append(l.part, p...)
	for {
		i := bytes.IndexByte(l.part, '\n')
		if i < 0 {
			return len(p), nil
		}
		line := string(l.part[:i])
		l.part = l.part[i+1:]
		if c, ok := parseGC(line); ok {
			l.gcs = append(l.gcs, c)
		} else if j := strings.Index(line, "serving on "); j >= 0 {
			a, _, _ := strings.Cut(line[j+len("serving on "):], " ")
			select {
			case l.addr <- a:
			default:
			}
		} else {
			fmt.Fprintln(os.Stderr, "wspd:", line)
		}
	}
}

func (l *daemonLog) cycles() []gcCycle {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]gcCycle(nil), l.gcs...)
}

type daemon struct {
	cmd  *exec.Cmd
	log  *daemonLog
	base string
}

// startDaemon starts wspd on a loopback port and waits until /healthz
// answers. The flags admit the offered rate: an effectively unlimited
// per-client work budget and no degradation ladder.
func startDaemon(bin string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("wspd-open needs the wspd binary (-wspd)")
	}
	d := &daemon{log: &daemonLog{addr: make(chan string, 1)}}
	d.cmd = exec.Command(bin, "-addr", "127.0.0.1:0", "-strategy", "contract",
		"-client-rate", "1000000000000", "-no-degrade")
	d.cmd.Env = append(os.Environ(), "GODEBUG=gctrace=1")
	d.cmd.Stderr = d.log
	// The daemon must not outlive a benchmark that is killed mid-run.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting wspd: %w", err)
	}
	deadline := time.After(20 * time.Second)
	select {
	case a := <-d.log.addr:
		d.base = "http://" + a
	case <-deadline:
		d.kill()
		return nil, errors.New("wspd did not report its address")
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case <-deadline:
			d.kill()
			return nil, errors.New("wspd /healthz did not answer")
		case <-time.After(time.Millisecond):
		}
	}
}

func (d *daemon) kill() {
	d.cmd.Process.Kill()
	d.cmd.Wait()
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-done
		return errors.New("wspd did not drain within 60s")
	}
}

// vars reads the daemon's counters from /debug/vars.
func (d *daemon) vars() (map[string]json.RawMessage, error) {
	resp, err := http.Get(d.base + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var v map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		return nil, fmt.Errorf("/debug/vars: %w", err)
	}
	return v, nil
}

func counter(v map[string]json.RawMessage, name string) float64 {
	n, _ := strconv.ParseFloat(string(v[name]), 64)
	return n
}

// post sends one request and checks the answer against the kind's pin.
func post(client *http.Client, base string, k reqKind, seed int64, pins *pinFile, start time.Time) sample {
	var s sample
	s.sent = time.Since(start)
	resp, err := client.Post(base+"/v1/solve", "application/json", bytes.NewReader(k.body))
	if err != nil {
		s.recv, s.err = time.Since(start), err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.recv = time.Since(start)
	if err != nil {
		s.err = err
		return s
	}
	if resp.StatusCode != http.StatusOK {
		s.err = fmt.Errorf("%s: status %d: %s", k.key, resp.StatusCode, bytes.TrimSpace(body))
		return s
	}
	var r server.SolveResponse
	if err := json.Unmarshal(body, &r); err != nil {
		s.err = fmt.Errorf("%s: %w", k.key, err)
		return s
	}
	s.serverMS, s.attempts, s.cycles = r.ElapsedMS, r.Attempts, r.Cycles
	if r.Degraded {
		s.err = fmt.Errorf("%s: answer degraded by %v", k.key, r.DegradeSteps)
		return s
	}
	got := answer{Verdict: calibrate.VerdictSolved, Agents: r.Agents, Cycles: r.Cycles, ServicedAt: r.ServicedAt}
	_, s.err = pins.check(seed, k.key, k.fp, got, []calibrate.Verdict{calibrate.VerdictSolved})
	return s
}

func (w *wspdOpen) pins(ctx context.Context, cfg config) (map[string]pin, error) {
	kinds, err := openMix(cfg.seed)
	if err != nil {
		return nil, err
	}
	p := map[string]pin{}
	for _, k := range kinds {
		// The daemon answers undegraded requests exactly as the library
		// does, so the pins come from direct solves of the same bodies.
		var req server.SolveRequest
		if err := json.Unmarshal(k.body, &req); err != nil {
			return nil, err
		}
		var inst wsp.Instance
		if req.Map != "" {
			m, err := wsp.BuiltinMap(req.Map)
			if err != nil {
				return nil, err
			}
			wl, err := wsp.UniformWorkload(m.W, req.Units)
			if err != nil {
				return nil, err
			}
			inst = wsp.Instance{System: m.S, Workload: wl, Horizon: req.Horizon}
		} else {
			sys, wl, err := wsp.DecodeInstance(req.Instance)
			if err != nil {
				return nil, err
			}
			inst = wsp.Instance{System: sys, Workload: *wl, Horizon: req.Instance.T}
		}
		st, err := wsp.ParseStrategy(req.Strategy)
		if err != nil {
			return nil, err
		}
		res, err := wsp.New(wsp.WithStrategy(st)).Solve(ctx, inst)
		p[k.key] = pin{Fingerprint: k.fp, answer: answerOf(res, err)}
	}
	return p, nil
}

func (w *wspdOpen) run(ctx context.Context, cfg config) (*outcome, error) {
	out := &outcome{m: map[string]float64{}}
	var kinds []reqKind
	var d *daemon
	var setups []float64
	for i := range setupRuns {
		t0 := time.Now()
		var err error
		if kinds, err = openMix(cfg.seed); err != nil {
			return nil, err
		}
		if d, err = startDaemon(cfg.wspd); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	defer d.kill()

	transport := &http.Transport{MaxConnsPerHost: openConns, MaxIdleConnsPerHost: openConns}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 2 * time.Minute}

	// One sequential request per kind first, so the daemon's map and
	// scratch caches are warm before the timed schedule starts.
	for _, k := range kinds {
		out.attempted++
		if s := post(client, d.base, k, cfg.seed, cfg.pins, time.Now()); s.err != nil {
			out.fail("warm-up %v", s.err)
		}
	}

	weights := make([]float64, len(kinds))
	for i, k := range kinds {
		weights[i] = k.weight
	}
	n := max(int(openRate*cfg.seconds.Seconds()), minSamples)
	sched := schedule(cfg.seed, n, time.Duration(float64(n)/openRate*float64(time.Second)), weights)

	v0, err := d.vars()
	if err != nil {
		return nil, err
	}
	g0 := len(d.log.cycles())
	samples := make([]sample, len(sched))
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now().Add(5 * time.Millisecond)
	for range openConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				samples[i] = post(client, d.base, kinds[sched[i].kind], cfg.seed, cfg.pins, start)
				samples[i].due = sched[i].due
			}
		}()
	}
	for i, a := range sched {
		time.Sleep(time.Until(start.Add(a.due)))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	v1, err := d.vars()
	if err != nil {
		return nil, err
	}
	gcs := d.log.cycles()
	if err := d.stop(); err != nil {
		return nil, fmt.Errorf("stopping wspd: %w", err)
	}

	var lat, late, over []float64
	var ok, attempts, cyc int
	var serverMS float64
	var last time.Duration
	for _, s := range samples {
		out.attempted++
		last = max(last, s.recv)
		late = append(late, float64(s.late())/1e6)
		attempts += s.attempts
		cyc += s.cycles
		serverMS += s.serverMS
		if s.serverMS > 0 { // the daemon answered, rightly or not
			over = append(over, s.overheadMS())
		}
		if s.err != nil {
			out.fail("%v", s.err)
			lat = append(lat, math.MaxFloat64) // a failed request misses any latency limit
			continue
		}
		ok++
		lat = append(lat, float64(s.latency())/1e6)
	}
	m := out.m
	delta := func(name string) float64 { return counter(v1, name) - counter(v0, name) }
	hits, misses := delta("cache_hits_total"), delta("cache_misses_total")
	var pause time.Duration
	for _, c := range gcs[g0:] {
		pause += c.pause
	}
	alloc := allocMB(gcs, g0, len(gcs))

	m["setup_s"] = median(setups)
	m["solves_per_s"] = float64(ok) / (last - sched[0].due).Seconds()
	m["alloc_mb_per_solve"] = ratio(alloc, float64(ok))
	m["solved"] = float64(ok)
	m["samples"] = float64(len(lat))
	m["core.solve_ms"] = serverMS // the daemon's own solve time; nothing beneath is reachable from here
	m["core.self_ms"] = serverMS
	m["core.attempts"] = float64(attempts)
	m["cycles.count"] = float64(cyc)
	m["server.rejected"] = delta("rejected_load_total") + delta("rejected_budget_total") + delta("rejected_drain_total")
	m["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["server.cache_lookups"] = hits + misses
	m["server.cache_waits"] = delta("cache_waits_total")
	m["runtime.gc_cycles"] = float64(len(gcs) - g0)
	m["runtime.gc_pause_ms"] = float64(pause) / 1e6
	m["runtime.alloc_mb"] = alloc
	for _, k := range []string{"wsp.self_ms", "cycles.synthesize_ms", "cycles.map_ms", "cycles.core_share",
		"flow.synthesize_ms", "flow.core_share", "lp.work_units", "lp.work_units_per_ms",
		"agentplan.realize_ms", "agentplan.agent_steps", "agentplan.ns_per_agent_step", "agentplan.core_share",
		"sim.validate_ms", "sim.agent_steps_per_ms", "sim.core_share", "trace.overhead_ms"} {
		// Stages run inside the daemon, out of the benchmark's reach, and
		// both runs time requests identically, so tracing adds nothing.
		m[k] = 0
	}
	for _, p := range []struct {
		name string
		xs   []float64
		q    float64
	}{
		{"latency_p50_ms", lat, 0.5}, {"latency_p90_ms", lat, 0.9},
		{"server.overhead_ms_p50", over, 0.5}, {"server.overhead_ms_p90", over, 0.9},
		{"loadgen.late_ms_p90", late, 0.9},
	} {
		if m[p.name], err = percentile(p.xs, p.q); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return out, nil
}
