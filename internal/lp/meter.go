package lp

import "sync/atomic"

// workMeter is the process-wide ledger of deterministic simplex work units
// committed by finished solves. Every LP solve adds the arena work it spent
// and every branch-and-bound search adds its total once, when it ends — the
// same deterministic quantity the MaxWork budget is charged against, so the
// meter advances identically across runs of the same instance sequence (and
// across simplex representations, which share the work-unit contract).
//
// The meter exists for callers that need work attribution without touching
// Solution values: the corpus runner samples it around each solve to report
// work-budget consumption per instance. It is monotone and never reset.
var workMeter atomic.Int64

// WorkMeter returns the cumulative deterministic work units committed by
// all LP/ILP solves in this process. Subtracting two samples taken around a
// sequential stretch of solves yields the work those solves committed.
func WorkMeter() int64 {
	return workMeter.Load()
}

// meterWork records finished-solve work on the process meter.
func meterWork(n int64) {
	if n > 0 {
		workMeter.Add(n)
	}
}
