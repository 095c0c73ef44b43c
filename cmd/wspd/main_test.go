package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testFlags mirrors the wspd flag set shape closely enough to exercise
// every value kind applyOverrides must round-trip (string, int, int64,
// bool, duration).
func testFlags() (*flag.FlagSet, map[string]any) {
	fs := flag.NewFlagSet("wspd", flag.ContinueOnError)
	vals := map[string]any{
		"addr":         fs.String("addr", ":8080", ""),
		"max-inflight": fs.Int("max-inflight", 0, ""),
		"deadline":     fs.Duration("deadline", 0, ""),
		"strategy":     fs.String("strategy", "contract", ""),
		"no-degrade":   fs.Bool("no-degrade", false, ""),
		"client-rate":  fs.Int64("client-rate", 0, ""),
		"config":       fs.String("config", "", ""),
	}
	return fs, vals
}

func writeConfig(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wspd.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestConfigFileFillsDefaults(t *testing.T) {
	fs, vals := testFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	path := writeConfig(t, `{"addr": ":9090", "max_inflight": 16, "deadline": "45s",
		"strategy": "route", "no_degrade": true, "client_rate": 123456}`)
	if err := applyOverrides(fs, path); err != nil {
		t.Fatal(err)
	}
	if got := *vals["addr"].(*string); got != ":9090" {
		t.Errorf("addr = %q", got)
	}
	if got := *vals["max-inflight"].(*int); got != 16 {
		t.Errorf("max-inflight = %d", got)
	}
	if got := *vals["deadline"].(*time.Duration); got != 45*time.Second {
		t.Errorf("deadline = %v", got)
	}
	if got := *vals["strategy"].(*string); got != "route" {
		t.Errorf("strategy = %q", got)
	}
	if !*vals["no-degrade"].(*bool) {
		t.Error("no-degrade not applied")
	}
	if got := *vals["client-rate"].(*int64); got != 123456 {
		t.Errorf("client-rate = %d", got)
	}
}

func TestExplicitFlagBeatsEnvBeatsConfig(t *testing.T) {
	fs, vals := testFlags()
	if err := fs.Parse([]string{"-max-inflight", "3"}); err != nil {
		t.Fatal(err)
	}
	t.Setenv("WSPD_MAX_INFLIGHT", "7")
	t.Setenv("WSPD_CLIENT_RATE", "2")
	path := writeConfig(t, `{"max_inflight": 16, "client_rate": 8, "addr": ":7070"}`)
	if err := applyOverrides(fs, path); err != nil {
		t.Fatal(err)
	}
	if got := *vals["max-inflight"].(*int); got != 3 {
		t.Errorf("explicit flag overridden: max-inflight = %d, want 3", got)
	}
	if got := *vals["client-rate"].(*int64); got != 2 {
		t.Errorf("env override lost: client-rate = %d, want 2", got)
	}
	if got := *vals["addr"].(*string); got != ":7070" {
		t.Errorf("config file value lost: addr = %q, want :7070", got)
	}
}

func TestConfigRejectsUnknownKeyAndBadValue(t *testing.T) {
	fs, _ := testFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := applyOverrides(fs, writeConfig(t, `{"max_inflght": 16}`)); err == nil {
		t.Error("typo'd config key accepted")
	}
	fs, _ = testFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := applyOverrides(fs, writeConfig(t, `{"deadline": "not-a-duration"}`)); err == nil {
		t.Error("unparseable config value accepted")
	}
	if err := applyOverrides(fs, filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing config file accepted")
	}
}

func TestNoConfigNoEnvKeepsDefaults(t *testing.T) {
	fs, vals := testFlags()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := applyOverrides(fs, ""); err != nil {
		t.Fatal(err)
	}
	if got := *vals["addr"].(*string); got != ":8080" {
		t.Errorf("addr default clobbered: %q", got)
	}
}
