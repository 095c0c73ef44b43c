package lp

// Tests for the frontier-decomposed parallel search (parallel.go). The
// contract under test is absolute: for every engine, solve mode, budget
// shape, and cancellation pattern, SolveILP with SearchParallel ∈
// {1, 2, 4} returns the bit-identical Solution (and error text) of the
// sequential search — and the extra goroutines stay bounded by the
// process-wide token pool even when many parallel solves run at once.

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// lowFence lowers the frontier fence so the small fuzz instances decompose
// into many subtree tasks (the machinery the tests exist to exercise),
// restoring the production value when the test ends.
func lowFence(t *testing.T, n int) {
	t.Helper()
	old := bbFrontierNodes
	bbFrontierNodes = n
	t.Cleanup(func() { bbFrontierNodes = old })
}

var parallelWorkerCounts = []int{1, 2, 4}

// solveAllWorkers solves p sequentially, then at every worker count, and
// requires each parallel answer — Solution fields and error text alike —
// to match the sequential one exactly.
func solveAllWorkers(t *testing.T, tag string, p *Problem, opts ILPOptions) {
	t.Helper()
	want, werr := SolveILP(p, opts)
	for _, workers := range parallelWorkerCounts {
		po := opts
		po.SearchParallel = workers
		got, gerr := SolveILP(p, po)
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s workers=%d: err=%v, sequential err=%v", tag, workers, gerr, werr)
		}
		if werr != nil {
			continue
		}
		if err := sameSolution(want, got); err != nil {
			t.Fatalf("%s workers=%d: %v", tag, workers, err)
		}
	}
}

// parallelConfigs is the engine/mode matrix every parity corpus
// runs through. Hybrid ignores the knob (its replay tree must stay on one
// certified arena) and root cuts re-enter SolveILP after separation; both
// must still be answer-identical at every worker count.
func parallelConfigs() []struct {
	tag  string
	opts ILPOptions
} {
	return []struct {
		tag  string
		opts ILPOptions
	}{
		{"exact", ILPOptions{Engine: EngineExact}},
		{"float", ILPOptions{Engine: EngineFloat}},
		{"hybrid", ILPOptions{Engine: EngineExact, Hybrid: true}},
		{"cuts", ILPOptions{Engine: EngineExact, RootCuts: true}},
	}
}

// The core parity fuzz: random mixed-shape ILPs across the whole engine
// matrix, unbudgeted and under random node and work budgets.
func TestParallelSearchParityFuzz(t *testing.T) {
	lowFence(t, 3)
	rounds := parityRounds(t, 40)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(9100 + seed)))
		p := randomBoundedProblem(rng, true)
		maxWork := int64(200 + rng.Intn(4000))
		maxNodes := 5 + rng.Intn(60)
		for _, cfg := range parallelConfigs() {
			base := fmt.Sprintf("seed=%d %s", seed, cfg.tag)
			solveAllWorkers(t, base, p, cfg.opts)
			budget := cfg.opts
			budget.MaxWork = maxWork
			solveAllWorkers(t, base+"/work", p, budget)
			budget = cfg.opts
			budget.MaxNodes = maxNodes
			solveAllWorkers(t, base+"/nodes", p, budget)
		}
	}
}

// Pure feasibility problems stop at the FIRST integral solution, so the
// ordered commit must preserve exactly which solution wins no matter which
// worker finds one earlier in wall time.
func TestParallelSearchFeasibilityFirstWin(t *testing.T) {
	lowFence(t, 2)
	rounds := parityRounds(t, 30)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(5200 + seed)))
		p := randomBoundedProblem(rng, true)
		p.Objective = nil
		for _, cfg := range parallelConfigs() {
			solveAllWorkers(t, fmt.Sprintf("seed=%d %s", seed, cfg.tag), p, cfg.opts)
		}
	}
}

// Budget verdicts on a deterministic exponential tree: the StatusLimit
// point (and the incumbent carried out of it) must replay exactly through
// speculative execution, including mixed node+work budgets.
func TestParallelSearchBudgetParity(t *testing.T) {
	lowFence(t, 3)
	p := parityILP(13)
	for _, cfg := range []struct {
		tag  string
		opts ILPOptions
	}{
		{"exact/nodes", ILPOptions{Engine: EngineExact, MaxNodes: 500}},
		{"exact/work", ILPOptions{Engine: EngineExact, MaxWork: 20000}},
		{"exact/both", ILPOptions{Engine: EngineExact, MaxNodes: 300, MaxWork: 15000}},
		{"float/nodes", ILPOptions{Engine: EngineFloat, MaxNodes: 500}},
	} {
		solveAllWorkers(t, cfg.tag, p, cfg.opts)
	}
}

// A pre-fired cancellation channel must yield StatusCanceled at every
// worker count, before meaningful work happens.
func TestParallelSearchCancelParity(t *testing.T) {
	lowFence(t, 3)
	p := parityILP(9)
	for _, workers := range parallelWorkerCounts {
		sol, err := SolveILP(p, ILPOptions{Engine: EngineExact, Cancel: closedChan(), SearchParallel: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if sol.Status != StatusCanceled {
			t.Fatalf("workers=%d: status %v, want canceled", workers, sol.Status)
		}
	}
}

// Cancellation mid-search with workers in flight: the solve must terminate
// promptly with StatusCanceled and leave no goroutines behind.
func TestParallelSearchCancelMidFlight(t *testing.T) {
	lowFence(t, 3)
	p := parityILP(21) // exceeds the default node budget; never finishes fast
	cancel := make(chan struct{})
	done := make(chan *Solution, 1)
	go func() {
		sol, err := SolveILP(p, ILPOptions{Engine: EngineExact, Cancel: cancel, SearchParallel: 4})
		if err != nil {
			t.Errorf("solve: %v", err)
		}
		done <- sol
	}()
	time.Sleep(10 * time.Millisecond)
	close(cancel)
	select {
	case sol := <-done:
		if sol != nil && sol.Status != StatusCanceled {
			t.Fatalf("status %v, want canceled", sol.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("canceled solve did not return")
	}
}

// Nested-parallelism stress: many concurrent solves, each asking for more
// workers than the machine has. The process-wide token pool must cap the
// extra goroutines, every solve must still match the sequential answer bit
// for bit, and everything must wind down leak-free.
func TestParallelSearchNestedGoroutineBound(t *testing.T) {
	lowFence(t, 2)
	p := parityILP(11)
	opts := ILPOptions{Engine: EngineExact, MaxNodes: 2000}
	want, werr := SolveILP(p, opts)
	if werr != nil {
		t.Fatal(werr)
	}

	base := runtime.NumGoroutine()
	const concurrent = 6
	var (
		peak    atomic.Int64
		stop    = make(chan struct{})
		sampler sync.WaitGroup
	)
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	var wg sync.WaitGroup
	for g := 0; g < concurrent; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				po := opts
				po.SearchParallel = 8 // far beyond the token pool
				got, err := SolveILP(p, po)
				if err != nil {
					t.Errorf("nested solve: %v", err)
					return
				}
				if err := sameSolution(want, got); err != nil {
					t.Errorf("nested solve diverged: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	sampler.Wait()

	// Extra search workers exist only while holding a token, so the peak is
	// bounded by base + the solver goroutines + the pool capacity (+ the
	// sampler and a little slack for runtime goroutines).
	bound := int64(base + concurrent + cap(searchTokens) + 4)
	if got := peak.Load(); got > bound {
		t.Fatalf("goroutine peak %d exceeds bound %d (base=%d pool=%d)", got, bound, base, cap(searchTokens))
	}

	// Leak check: every worker joined before its solve returned.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= base+2 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines did not settle: %d, base %d", n, base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
