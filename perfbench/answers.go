package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"repro/internal/calibrate"
	"repro/internal/core"
	"repro/internal/traffic"
	"repro/internal/warehouse"
	"repro/internal/wspio"
)

// answers.json pins the answer of every workload operation at the default
// seed. Regenerate it with -write-answers only when a change is meant to
// alter answers.
//
//go:embed answers.json
var answersJSON []byte

// answer is the part of an operation's outcome the benchmark checks: the
// verdict (calibrate.Classify), and for a solve the team size, the cycle
// count and the step by which the workload was serviced.
type answer struct {
	Verdict    calibrate.Verdict `json:"verdict"`
	Agents     int               `json:"agents,omitempty"`
	Cycles     int               `json:"cycles,omitempty"`
	ServicedAt int               `json:"serviced_at,omitempty"`
}

func answerOf(res *core.Result, err error) answer {
	if err != nil {
		return answer{Verdict: calibrate.Classify(err)}
	}
	return answer{
		Verdict:    calibrate.VerdictSolved,
		Agents:     res.Stats.Agents,
		Cycles:     len(res.CycleSet.Cycles),
		ServicedAt: res.Sim.ServicedAt,
	}
}

// pin is an expected answer, valid only for the input whose fingerprint
// it carries.
type pin struct {
	Fingerprint string `json:"fingerprint"`
	answer
}

type pinFile struct {
	Seed int64          `json:"seed"`
	Pins map[string]pin `json:"pins"`
}

func loadPins() (*pinFile, error) {
	var pf pinFile
	if err := json.Unmarshal(answersJSON, &pf); err != nil {
		return nil, fmt.Errorf("answers.json: %w", err)
	}
	return &pf, nil
}

func (pf *pinFile) save(path string) error {
	data, err := json.MarshalIndent(pf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// check compares got with the pin for key when that pin was made for the
// same input (fingerprint fp). At the default seed every operation must
// have such a pin. On another seed an input without one is accepted when
// its verdict is among expect; the caller re-validates solved answers with
// the program's own simulator.
func (pf *pinFile) check(seed int64, key, fp string, got answer, expect []calibrate.Verdict) (pinned bool, err error) {
	if p, ok := pf.Pins[key]; ok && p.Fingerprint == fp {
		if got != p.answer {
			return true, fmt.Errorf("%s: answer %+v differs from pinned %+v", key, got, p.answer)
		}
		return true, nil
	}
	if seed == pf.Seed {
		return false, fmt.Errorf("%s: no pinned answer for this input at the default seed %d", key, seed)
	}
	if !slices.Contains(expect, got.Verdict) {
		return false, fmt.Errorf("%s: verdict %q, want one of %v", key, got.Verdict, expect)
	}
	return false, nil
}

func fingerprint(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:12])
}

// instanceFingerprint hashes an instance's interchange (wspio) encoding,
// so a pin follows the input rather than its name.
func instanceFingerprint(s *traffic.System, wl warehouse.Workload, T int) (string, error) {
	inst, err := wspio.Encode(s, &wl, T, "")
	if err != nil {
		return "", err
	}
	data, err := wspio.Marshal(inst)
	if err != nil {
		return "", err
	}
	return fingerprint(data), nil
}
