// Package calibrate runs the scenario corpus (internal/datasets) against a
// knob configuration, records per-family health metrics, and grid-searches
// knob defaults. It is the measurement half of the corpus subsystem: the
// datasets package says WHAT to solve, calibrate says HOW IT WENT.
//
// Reports separate two kinds of numbers. Verdicts, solve counts, and work
// units are deterministic — the same corpus seed and knobs reproduce them
// bit-for-bit (pinned by TestRunDeterministic) — so calibration scores are
// computed only from them. Latencies are wall-clock and recorded for
// operators (and the benchjson trajectory), never for scoring.
package calibrate

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/lp"
)

// ReportSchema versions the JSON report layout.
const ReportSchema = "wsp-corpus-report/v3"

// Verdict classifies how one instance solve ended.
type Verdict string

// Verdicts, most specific sentinel first (see Classify).
const (
	VerdictSolved     Verdict = "solved"
	VerdictInfeasible Verdict = "infeasible"
	VerdictHorizon    Verdict = "horizon"
	VerdictBudget     Verdict = "budget"
	VerdictCanceled   Verdict = "canceled"
	VerdictError      Verdict = "error"
)

// Classify maps a solve error onto the verdict taxonomy via the typed
// sentinels of the flow and lp layers. Cancellation is checked before
// budget exhaustion (a cancelled solve may also have spent its budget),
// and budget before feasibility (a budget-stopped search proves nothing
// about the instance).
func Classify(err error) Verdict {
	switch {
	case err == nil:
		return VerdictSolved
	case errors.Is(err, lp.ErrCanceled):
		return VerdictCanceled
	case errors.Is(err, lp.ErrBudgetExhausted):
		return VerdictBudget
	case errors.Is(err, flow.ErrHorizonTooShort):
		return VerdictHorizon
	case errors.Is(err, flow.ErrInfeasible):
		return VerdictInfeasible
	default:
		return VerdictError
	}
}

// InstanceResult is one corpus instance's outcome.
type InstanceResult struct {
	Name    string  `json:"name"`
	Family  string  `json:"family"`
	Verdict Verdict `json:"verdict"`
	Err     string  `json:"err,omitempty"`
	// Millis is wall-clock solve latency (informational; never scored).
	Millis float64 `json:"millis"`
	// Work is deterministic simplex work consumed (lp.WorkMeter delta).
	Work     int64 `json:"work"`
	Attempts int   `json:"attempts,omitempty"`
}

// FamilyStats aggregates one generator family's results.
type FamilyStats struct {
	Family    string          `json:"family"`
	Instances int             `json:"instances"`
	Solved    int             `json:"solved"`
	SolveRate float64         `json:"solve_rate"`
	Verdicts  map[Verdict]int `json:"verdicts"`
	// Latency percentiles in milliseconds (nearest-rank; informational).
	P50Millis float64 `json:"p50_millis"`
	P95Millis float64 `json:"p95_millis"`
	P99Millis float64 `json:"p99_millis"`
	// Work is the family's total deterministic work consumption.
	Work int64 `json:"work"`
}

// Report is one corpus run, serializable as JSON.
type Report struct {
	Schema    string           `json:"schema"`
	Label     string           `json:"label"`
	Seed      int64            `json:"seed"`
	Knobs     core.Options     `json:"knobs"`
	Families  []FamilyStats    `json:"families"`
	Instances []InstanceResult `json:"instances"`
}

// Run solves every corpus instance sequentially under opts and aggregates
// the outcomes. One core.Scratch is reused across the run, matching how a
// solver-pool worker would consume the corpus. Cancelling ctx drains the
// remaining instances as VerdictCanceled rather than failing the run, so
// a partial report still serializes.
//
// Verdicts and work are deterministic for a fixed corpus and knob set;
// latencies are wall-clock.
func Run(ctx context.Context, insts []*datasets.Instance, opts core.Options, label string, seed int64) *Report {
	rep := &Report{Schema: ReportSchema, Label: label, Seed: seed, Knobs: opts}
	sc := &core.Scratch{}
	for _, in := range insts {
		w0 := lp.WorkMeter()
		t0 := time.Now()
		res, err := core.SolveScratch(ctx, in.Sys, in.WL, in.T, opts, sc)
		ir := InstanceResult{
			Name:    in.Name,
			Family:  in.Family,
			Verdict: Classify(err),
			Millis:  float64(time.Since(t0)) / 1e6,
			Work:    lp.WorkMeter() - w0,
		}
		if err != nil {
			ir.Err = err.Error()
		} else {
			ir.Attempts = res.Attempts
		}
		rep.Instances = append(rep.Instances, ir)
	}
	rep.Families = aggregate(rep.Instances)
	return rep
}

// aggregate folds instance results into per-family stats, preserving the
// corpus enumeration order of family first appearance.
func aggregate(insts []InstanceResult) []FamilyStats {
	index := map[string]int{}
	var fams []FamilyStats
	lat := map[string][]float64{}
	for _, ir := range insts {
		i, ok := index[ir.Family]
		if !ok {
			i = len(fams)
			index[ir.Family] = i
			fams = append(fams, FamilyStats{Family: ir.Family, Verdicts: map[Verdict]int{}})
		}
		f := &fams[i]
		f.Instances++
		f.Verdicts[ir.Verdict]++
		if ir.Verdict == VerdictSolved {
			f.Solved++
		}
		f.Work += ir.Work
		lat[ir.Family] = append(lat[ir.Family], ir.Millis)
	}
	for i := range fams {
		f := &fams[i]
		f.SolveRate = float64(f.Solved) / float64(f.Instances)
		ms := lat[f.Family]
		sort.Float64s(ms)
		f.P50Millis = percentile(ms, 0.50)
		f.P95Millis = percentile(ms, 0.95)
		f.P99Millis = percentile(ms, 0.99)
	}
	return fams
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted)) + 0.9999999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// WriteBenchLines renders the report as `go test -bench`-style lines so
// scripts/benchjson can append a corpus run to a perf trajectory file and
// -compare it against earlier snapshots. Names are
// `BenchmarkCorpus/family=F/inst=I`; benchjson exempts the BenchmarkCorpus
// prefix from its GOMAXPROCS-suffix strip, so instance names that end in
// `-N` (bursty-0, spike-0, …) survive intact.
func WriteBenchLines(w io.Writer, rep *Report) error {
	for _, ir := range rep.Instances {
		inst := ir.Name
		if len(inst) > len(ir.Family)+1 {
			inst = inst[len(ir.Family)+1:]
		}
		solved := 0
		if ir.Verdict == VerdictSolved {
			solved = 1
		}
		if _, err := fmt.Fprintf(w, "BenchmarkCorpus/family=%s/inst=%s \t 1 \t %d ns/op \t %d work/op \t %d solved\n",
			ir.Family, inst, int64(ir.Millis*1e6), ir.Work, solved); err != nil {
			return err
		}
	}
	return nil
}
