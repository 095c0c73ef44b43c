package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer's public
// function. Spans of one operation share op; parent is the index of the
// span whose call caused this one, or -1 for an operation's root.
type span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps every span in memory; write dumps them when the run ends.
// Recording a span costs two clock reads and an append, and happens only
// in the traced run.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, op, parent int) int {
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: time.Since(t.epoch)})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) { t.spans[i].End = time.Since(t.epoch) }

// sums totals span durations by name over spans[from:].
func (t *tracer) sums(from int) map[string]time.Duration {
	m := map[string]time.Duration{}
	for _, s := range t.spans[from:] {
		m[s.Name] += s.End - s.Start
	}
	return m
}

// selfTime is a layer's span time minus the time of the child spans
// attributed to it. The program itself is not instrumented, so in the
// traced run a child span times a paired direct call on the same input
// rather than a call made inside the parent; the difference can dip below
// zero by the pair's timing noise and is reported as measured.
func selfTime(parent time.Duration, children ...time.Duration) time.Duration {
	for _, c := range children {
		parent -= c
	}
	return parent
}

// write stores the spans as JSON under dir, named after the workload.
func (t *tracer) write(dir, workload string) error {
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".json"), data, 0o644)
}
