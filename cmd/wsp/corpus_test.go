package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCmdCorpusList drives the list subcommand end to end: every family
// header and at least one instance per family must render.
func TestCmdCorpusList(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCorpusList([]string{"-seed", "1"})
	})
	if err != nil {
		t.Fatalf("corpus list: %v\n%s", err, out)
	}
	for _, want := range []string{"stripes (", "rings (", "demand (", "movingai (",
		"stripes/S1-R2-V2-L6-st1", "rings/10x6-L6-st1", "demand/bursty-0", "movingai/pods-12x7"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q:\n%s", want, out)
		}
	}
	if _, err := captureStdout(t, func() error {
		return cmdCorpusList([]string{"-families", "nope"})
	}); err == nil {
		t.Error("unknown family accepted")
	}
}

// TestCmdCorpusRun drives the run subcommand on one small family and
// checks the table, the JSON report file, and the bench-line file.
func TestCmdCorpusRun(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	benchPath := filepath.Join(dir, "bench.txt")
	out, err := captureStdout(t, func() error {
		return cmdCorpusRun(context.Background(), []string{
			"-families", "rings", "-label", "t", "-json", jsonPath, "-bench", benchPath,
		})
	})
	if err != nil {
		t.Fatalf("corpus run: %v\n%s", err, out)
	}
	if !strings.Contains(out, "rings") || !strings.Contains(out, "4/4") {
		t.Errorf("run table missing rings solve rate:\n%s", out)
	}
	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Schema    string `json:"schema"`
		Instances []struct {
			Name    string `json:"name"`
			Verdict string `json:"verdict"`
		} `json:"instances"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v", err)
	}
	if rep.Schema != "wsp-corpus-report/v2" || len(rep.Instances) != 4 {
		t.Errorf("report schema %q with %d instances", rep.Schema, len(rep.Instances))
	}
	bench, err := os.ReadFile(benchPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(bench), "BenchmarkCorpus/family=rings/inst=10x6-L6-st1") {
		t.Errorf("bench lines missing corpus name:\n%s", bench)
	}
}

// TestCmdCorpusCalibrate drives the calibrate subcommand on one instance
// family with a two-point budget grid.
func TestCmdCorpusCalibrate(t *testing.T) {
	out, err := captureStdout(t, func() error {
		return cmdCorpusCalibrate(context.Background(), []string{
			"-families", "rings", "-strategy", "route", "-maxwork", "0,200000",
		})
	})
	if err != nil {
		t.Fatalf("corpus calibrate: %v\n%s", err, out)
	}
	for _, want := range []string{"score", "recommended: ", "2 candidates × 4 instances"} {
		if !strings.Contains(out, want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out)
		}
	}
	if err := cmdCorpusCalibrate(context.Background(), []string{"-maxwork", "x"}); err == nil {
		t.Error("bad maxwork list accepted")
	}
	if err := cmdCorpus(context.Background(), []string{"bogus"}); err == nil {
		t.Error("unknown subcommand accepted")
	}
}
