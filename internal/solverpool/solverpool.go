// Package solverpool serves batches of WSP instances concurrently: a
// bounded pool of workers, each with its own reusable synthesis scratch,
// drains a request list and solves every instance with core.SolveScratch.
//
// core.Solve is a pure function of its inputs — a traffic.System is
// read-only after traffic.Build — so concurrent solves of requests that
// share a System are safe, and the pool's output for every request is
// bit-identical to what a sequential core.Solve of that request returns.
// This is what lets an online re-planner answer many what-if workloads (or
// serve many tenants on the same floorplan) at once without giving up the
// reproducibility of the sequential path.
package solverpool

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lp"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// Request is one WSP instance to solve.
type Request struct {
	S    *traffic.System
	WL   warehouse.Workload
	T    int
	Opts core.Options
}

// Result pairs a request's outcome with its wall-clock solve time.
type Result struct {
	Res     *core.Result
	Err     error
	Elapsed time.Duration
}

// Pool is a bounded solver pool. Use New; the zero value works but
// degrades to draining every batch sequentially.
type Pool struct {
	workers int
}

// New returns a pool of the given width. workers <= 0 selects GOMAXPROCS.
func New(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers}
}

// SolveBatch solves every request and returns results in request order.
// It runs as many solves at once as the pool is wide; each worker owns a
// core.Scratch that is reused across all requests it drains, so the
// synthesis hot path allocates per worker, not per request.
//
// Cancelling ctx aborts in-flight solves (within one LP work-budget tick)
// and fails every not-yet-started request fast; the pool still drains the
// whole batch — every Result slot is filled, workers exit, and no
// goroutine outlives the call. Cancelled slots carry an error wrapping
// lp.ErrCanceled.
func (p *Pool) SolveBatch(ctx context.Context, reqs []Request) []Result {
	results := make([]Result, len(reqs))
	n := p.workers
	if n > len(reqs) {
		n = len(reqs)
	}
	if n <= 1 {
		solveRange(ctx, reqs, results, new(atomic.Int64))
		return results
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			solveRange(ctx, reqs, results, &next)
		}()
	}
	wg.Wait()
	return results
}

// solveRange drains requests by atomic index, reusing one scratch for every
// request this worker handles. Once ctx is cancelled the remaining indices
// drain without solving, so the batch always completes with every slot
// filled.
func solveRange(ctx context.Context, reqs []Request, results []Result, next *atomic.Int64) {
	sc := &core.Scratch{}
	for {
		i := int(next.Add(1)) - 1
		if i >= len(reqs) {
			return
		}
		if err := ctx.Err(); err != nil {
			results[i] = Result{Err: lp.WrapCancelCause(ctx,
				fmt.Errorf("solverpool: request %d canceled before solving: %w", i, lp.ErrCanceled))}
			continue
		}
		start := time.Now()
		res, err := core.SolveScratch(ctx, reqs[i].S, reqs[i].WL, reqs[i].T, reqs[i].Opts, sc)
		results[i] = Result{Res: res, Err: err, Elapsed: time.Since(start)}
	}
}
