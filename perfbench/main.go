// Command perfbench is the repository benchmark. One run executes one
// named workload for a fixed time, checks every answer against pinned
// answers (or, on inputs without a pin, against the program's own
// simulator and verdict taxonomy), prints each metric with its unit, and
// ends with one JSON line:
//
//	{"correct": true, "attempted": 900, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// also records spans around every call it makes into a layer's public
// function and reports the per-layer metrics instead. README.md lists the
// workloads, the metrics, and which layer metric should move which
// end-to-end metric. Run it through run.sh, which builds it and wspd:
//
//	bash perfbench/run.sh --workload tablei-e2e --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"time"
)

// defaultSeed is the seed the pinned answers were generated at.
const defaultSeed = 1

type metricDef struct{ name, unit string }

// endToEnd and perLayer are the metrics BENCHMARK.json lists, in order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solves_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"alloc_mb_per_solve", "MB"},
}

var perLayer = []metricDef{
	{"solved", "count"},
	{"samples", "count"},
	{"wsp.self_ms", "ms"},
	{"core.solve_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.attempts", "count"},
	{"cycles.synthesize_ms", "ms"},
	{"cycles.map_ms", "ms"},
	{"cycles.count", "count"},
	{"cycles.core_share", "ratio"},
	{"flow.synthesize_ms", "ms"},
	{"flow.core_share", "ratio"},
	{"lp.work_units", "count"},
	{"lp.work_units_per_ms", "1/ms"},
	{"agentplan.realize_ms", "ms"},
	{"agentplan.agent_steps", "count"},
	{"agentplan.ns_per_agent_step", "ns"},
	{"agentplan.core_share", "ratio"},
	{"sim.validate_ms", "ms"},
	{"sim.agent_steps_per_ms", "1/ms"},
	{"sim.core_share", "ratio"},
	{"server.overhead_ms_p50", "ms"},
	{"server.overhead_ms_p90", "ms"},
	{"server.rejected", "count"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.cache_lookups", "count"},
	{"server.cache_waits", "count"},
	{"loadgen.late_ms_p90", "ms"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"runtime.alloc_mb", "MB"},
	{"trace.overhead_ms", "ms"},
}

// config is one run's settings.
type config struct {
	seed     int64
	seconds  time.Duration
	traced   bool
	pins     *pinFile
	wspd     string // wspd binary (wspd-open)
	traceDir string // where the traced run writes its spans
}

// outcome is what a workload run reports: operation counts and every
// metric it measured, by name.
type outcome struct {
	attempted, failed int
	m                 map[string]float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED "+format+"\n", args...)
}

type bench interface {
	run(ctx context.Context, cfg config) (*outcome, error)
	// pins computes the pinned answers of every operation at cfg.seed.
	pins(ctx context.Context, cfg config) (map[string]pin, error)
}

var workloads = map[string]bench{
	"tablei-e2e":      tableI,
	"corpus-contract": corpusContract,
	"wspd-open":       &wspdOpen{},
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: tablei-e2e, corpus-contract or wspd-open")
	seed := flag.Int64("seed", defaultSeed, "input seed (same seed, same inputs)")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	wspdBin := flag.String("wspd", "", "wspd binary, needed by wspd-open")
	traceDir := flag.String("trace-dir", "", "directory the traced run writes its spans to")
	writeAnswers := flag.String("write-answers", "", "recompute the pinned answers at the default seed into this file and exit")
	flag.Parse()

	pf, err := loadPins()
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		traced: *trace == 1, pins: pf, wspd: *wspdBin, traceDir: *traceDir}
	ctx := context.Background()

	if *writeAnswers != "" {
		cfg.seed = defaultSeed
		out := &pinFile{Seed: defaultSeed, Pins: map[string]pin{}}
		for _, n := range slices.Sorted(maps.Keys(workloads)) {
			p, err := workloads[n].pins(ctx, cfg)
			if err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
			maps.Copy(out.Pins, p)
		}
		return out.save(*writeAnswers)
	}

	w, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want one of %v)", *name, slices.Sorted(maps.Keys(workloads)))
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	out, err := w.run(ctx, cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricOut{}}
	if out.attempted < 1 {
		return fmt.Errorf("%s attempted no operation", *name)
	}
	for _, d := range defs {
		v, ok := out.m[d.name]
		if !ok {
			return fmt.Errorf("%s did not measure %s", *name, d.name)
		}
		line.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.4f %s\n", d.name, v, d.unit)
	}
	fmt.Printf("%-28s %14.4f (%d of %d operations failed)\n", "failed_share",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(data))
	return nil
}
