package wsp

import (
	"context"
	"io"

	"repro/internal/calibrate"
	"repro/internal/datasets"
)

// The scenario corpus: seeded deterministic generator families (stripes
// sweeps, perimeter rings, demand traces, MovingAI map imports) plus the
// corpus runner and knob calibration stages that measure them. These are
// thin re-exports of internal/datasets and internal/calibrate so CLI and
// service code keeps importing only the facade.

// CorpusInstance is one named, reproducible corpus scenario.
type CorpusInstance = datasets.Instance

// CorpusFamily is one generator family of the corpus.
type CorpusFamily = datasets.Family

// CorpusFamilies lists the registered generator families in deterministic
// order.
func CorpusFamilies() []CorpusFamily { return datasets.Families() }

// CorpusFamilyNames lists the family names in deterministic order.
func CorpusFamilyNames() []string { return datasets.FamilyNames() }

// GenerateCorpus enumerates the corpus for a seed — every family, or just
// the named ones. The same seed always produces byte-identical instances.
func GenerateCorpus(seed int64, families ...string) ([]*CorpusInstance, error) {
	return datasets.Generate(seed, families...)
}

// CorpusVerdict classifies how one corpus solve ended.
type CorpusVerdict = calibrate.Verdict

// Corpus verdicts.
const (
	CorpusSolved     = calibrate.VerdictSolved
	CorpusInfeasible = calibrate.VerdictInfeasible
	CorpusHorizon    = calibrate.VerdictHorizon
	CorpusBudget     = calibrate.VerdictBudget
	CorpusCanceled   = calibrate.VerdictCanceled
	CorpusError      = calibrate.VerdictError
)

// CorpusReport is one corpus run's JSON-serializable result.
type CorpusReport = calibrate.Report

// RunCorpus solves every instance under cfg and aggregates per-family
// solve rates, verdicts, latency percentiles and deterministic work.
func RunCorpus(ctx context.Context, insts []*CorpusInstance, cfg Config, label string, seed int64) *CorpusReport {
	return calibrate.Run(ctx, insts, cfg, label, seed)
}

// WriteCorpusBenchLines renders a report as `go test -bench`-style lines
// for the scripts/benchjson trajectory tooling.
func WriteCorpusBenchLines(w io.Writer, rep *CorpusReport) error {
	return calibrate.WriteBenchLines(w, rep)
}

// CalibrationSpec is a knob grid to search over the corpus.
type CalibrationSpec = calibrate.Spec

// CalibrationTable is a scored calibration result, best candidate first.
type CalibrationTable = calibrate.Table

// CalibrateCorpus grid-searches knob defaults over the corpus. Scoring
// uses only deterministic quantities (verdicts and work), so the same
// corpus and spec always produce the same recommendation.
func CalibrateCorpus(ctx context.Context, insts []*CorpusInstance, spec CalibrationSpec) (*CalibrationTable, error) {
	return calibrate.Calibrate(ctx, insts, spec)
}
