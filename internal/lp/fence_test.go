package lp

// Tests for the fenced depth-first search (search.go). The production loop
// is pinned against fenceOracle, a reference commit loop kept in the shape
// of an ordered task queue over its own walker and fold
// (fence_oracle_test.go): a first walk on the tree root, then a queue whose
// every root restarts cold and whose frontier subtasks are spliced in at
// the cursor. With the fence lowered to a few nodes, small random trees
// shed many tasks, so any drift in fence placement, pop order or restart
// state shows up in the Solution, the error text or the work metered. The
// TestParallelSearch* names are kept from the speculative executor's
// parity tests, which these replace.

import (
	"fmt"
	"math/big"
	"math/rand"
	"testing"
)

// lowFence lowers the frontier fence so small instances decompose into
// many subtree tasks, restoring the production value when the test ends.
func lowFence(t *testing.T, n int) {
	t.Helper()
	old := bbFrontierNodes
	bbFrontierNodes = n
	t.Cleanup(func() { bbFrontierNodes = old })
}

// engineConfigs is the engine matrix the fenced-search tests run through.
func engineConfigs() []struct {
	tag  string
	opts ILPOptions
} {
	return []struct {
		tag  string
		opts ILPOptions
	}{
		{"exact", ILPOptions{Engine: EngineExact}},
		{"float", ILPOptions{Engine: EngineFloat}},
	}
}

// oracleInsertAt splices sub into s before index at, preserving order.
func oracleInsertAt[E any](s []E, at int, sub []E) []E {
	s = append(s, sub...)
	copy(s[at+len(sub):], s[at:])
	copy(s[at:], sub)
	return s
}

// fenceOracle is bbSolveArena with the reference commit loop in place of
// bbSearch. tasks reports how many frontier tasks the search ran, so the
// tests can tell that the fence really fired.
func fenceOracle[T any, A arith[T]](p *Problem, tb oracleArena[T], ar A, opts ILPOptions, tasks *int) (*Solution, error) {
	tb.setCancel(opts.Cancel)
	tb.startSearch(opts.MaxWork)
	maxNodes := opts.MaxNodes
	if maxNodes == 0 {
		maxNodes = 200000
	}
	w := newWalker(p, tb, ar)
	fold := new(bbFold)
	defer func() { meterWork(fold.work) }()
	first := w.run(walkIn{root: integerBox(p), nodeCap: maxNodes, remWork: opts.MaxWork})
	fold.absorb(first)
	if first.event != evFrontier || fold.terminal() {
		return fold.solution(tb.canceled())
	}
	queue := first.tasks
	for cursor := 0; cursor < len(queue); {
		if fold.preempt(maxNodes, opts.MaxWork, opts.Cancel) {
			break
		}
		res := w.run(walkIn{
			root:    queue[cursor],
			nodeCap: maxNodes - fold.nodes, remWork: remWorkOf(opts.MaxWork, fold.work),
			cold: true,
		})
		*tasks++
		fold.absorb(res)
		cursor++
		if fold.terminal() {
			break
		}
		if res.event == evFrontier {
			queue = oracleInsertAt(queue, cursor, res.tasks)
		}
	}
	return fold.solution(w.tb.canceled())
}

// oracleILP is solveILP over fenceOracle, with the same engine choice and
// rat64 → big.Rat promotion.
func oracleILP(p *Problem, opts ILPOptions, tasks *int) (*Solution, error) {
	if opts.Engine == EngineFloat {
		return fenceOracle[float64](p, newRevisedFloat(p), floatArith{eps: defaultEps}, opts, tasks)
	}
	var sol *Solution
	var err error
	if promote(func() {
		sol, err = fenceOracle[rat64](p, newRevised[rat64, rat64Arith](p, rat64Arith{}), rat64Arith{}, opts, tasks)
	}) {
		return sol, err
	}
	return fenceOracle[*big.Rat](p, newRevised[*big.Rat, ratArith](p, ratArith{}), ratArith{}, opts, tasks)
}

// requireOracle solves p with the oracle, with solveILP, and twice with
// Model.ResolveILP on one retained model, and requires every production
// answer — Solution, error text and WorkMeter delta — to equal the
// oracle's. It returns the oracle's frontier task count.
func requireOracle(t *testing.T, tag string, p *Problem, opts ILPOptions) int {
	t.Helper()
	tasks := 0
	m0 := WorkMeter()
	want, werr := oracleILP(p, opts, &tasks)
	wantWork := WorkMeter() - m0
	check := func(path string, solve func() (*Solution, error)) {
		t.Helper()
		m0 := WorkMeter()
		got, gerr := solve()
		work := WorkMeter() - m0
		if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("%s %s: err=%v, oracle err=%v", tag, path, gerr, werr)
		}
		if werr == nil {
			if err := sameSolution(want, got); err != nil {
				t.Fatalf("%s %s: %v", tag, path, err)
			}
		}
		if work != wantWork {
			t.Fatalf("%s %s: work %d, oracle %d", tag, path, work, wantWork)
		}
	}
	check("solveILP", func() (*Solution, error) { return solveILP(p, opts) })
	mo := NewModel(p)
	for rep := 0; rep < 2; rep++ {
		check(fmt.Sprintf("ResolveILP#%d", rep), func() (*Solution, error) { return mo.ResolveILP(opts) })
	}
	return tasks
}

// requireFenceFired fails the test when no oracle search reached the
// fence, i.e. when the lowered fence exercised nothing.
func requireFenceFired(t *testing.T, tasks int) {
	t.Helper()
	if tasks == 0 {
		t.Fatal("no search reached the fence; the test exercises nothing")
	}
	t.Logf("%d frontier tasks run", tasks)
}

// The fence fuzz: random mixed-shape ILPs in both engines, unbudgeted,
// under random node and work budgets, and with the cancellation channel
// already closed.
func TestParallelSearchParityFuzz(t *testing.T) {
	lowFence(t, 3)
	tasks := 0
	rounds := parityRounds(t, 40)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(9100 + seed)))
		p := randomBoundedProblem(rng, true)
		maxWork := int64(200 + rng.Intn(4000))
		maxNodes := 5 + rng.Intn(60)
		for _, cfg := range engineConfigs() {
			base := fmt.Sprintf("seed=%d %s", seed, cfg.tag)
			tasks += requireOracle(t, base, p, cfg.opts)
			budget := cfg.opts
			budget.MaxWork = maxWork
			tasks += requireOracle(t, base+"/work", p, budget)
			budget = cfg.opts
			budget.MaxNodes = maxNodes
			tasks += requireOracle(t, base+"/nodes", p, budget)
			budget = cfg.opts
			budget.Cancel = closedChan()
			tasks += requireOracle(t, base+"/canceled", p, budget)
		}
	}
	requireFenceFired(t, tasks)
}

// The search stops at the FIRST integral solution, so the task order alone
// decides which solution wins.
func TestParallelSearchFeasibilityFirstWin(t *testing.T) {
	lowFence(t, 2)
	tasks := 0
	rounds := parityRounds(t, 30)
	for seed := 0; seed < rounds; seed++ {
		rng := rand.New(rand.NewSource(int64(5200 + seed)))
		p := randomBoundedProblem(rng, true)
		for _, cfg := range engineConfigs() {
			tasks += requireOracle(t, fmt.Sprintf("seed=%d %s", seed, cfg.tag), p, cfg.opts)
		}
	}
	requireFenceFired(t, tasks)
}

// Budget verdicts on a deterministic exponential tree: the StatusLimit
// point lands deep in the task queue, including under mixed node+work
// budgets.
func TestParallelSearchBudgetParity(t *testing.T) {
	lowFence(t, 3)
	tasks := 0
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
		tasks += requireOracle(t, cfg.tag, p, cfg.opts)
	}
	requireFenceFired(t, tasks)
}

// A pre-fired cancellation channel yields StatusCanceled in both engines,
// before the fenced search runs a task, and matches the oracle.
func TestParallelSearchCancelParity(t *testing.T) {
	lowFence(t, 3)
	p := parityILP(9)
	for _, cfg := range engineConfigs() {
		opts := cfg.opts
		opts.Cancel = closedChan()
		if tasks := requireOracle(t, cfg.tag, p, opts); tasks != 0 {
			t.Fatalf("%s: canceled search ran %d frontier tasks", cfg.tag, tasks)
		}
		sol, err := solveILP(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", cfg.tag, err)
		}
		if sol.Status != StatusCanceled {
			t.Fatalf("%s: status %v, want canceled", cfg.tag, sol.Status)
		}
	}
}

// untickedArena is a scripted arena whose solves never tick: each charges
// ten work units and reports a feasible point, fractional in x0 at the
// root and integral below it. It stands for a node whose last pivot
// carries the work past MaxWork without a tick noticing, which only the
// work check before a cold restart can catch.
type untickedArena struct {
	work   int64
	solves int
}

func (a *untickedArena) startSearch(int64)         { a.work, a.solves = 0, 0 }
func (a *untickedArena) setWorkBudget(int64)       {}
func (a *untickedArena) workSpent() int64          { return a.work }
func (a *untickedArena) dropWarm()                 {}
func (a *untickedArena) setCancel(<-chan struct{}) {}
func (a *untickedArena) canceled() bool            { return false }
func (a *untickedArena) solveNode(_, _ []*big.Rat) Status {
	a.solves++
	a.work += 10
	return StatusOptimal
}
func (a *untickedArena) value(int) float64 {
	if a.solves == 1 {
		return 0.5
	}
	return 0
}
func (a *untickedArena) extractInto(dst []*big.Rat) {
	for _, d := range dst {
		d.SetInt64(0)
	}
}
func (a *untickedArena) firstFractionalInt() int {
	if a.solves == 1 {
		return 0
	}
	return -1
}

// With the fence at one node, the root's two children are fenced at once,
// and the root alone has spent the whole work budget without a tick. The
// search must stop at the first fenced pop — canceled when the channel has
// fired, a limit otherwise — as the oracle's check before each task does,
// instead of solving the child and returning its integral point. Random
// trees almost never reach this case.
func TestFencedPopChecksWorkBudget(t *testing.T) {
	lowFence(t, 1)
	p := &Problem{}
	p.AddIntVar("x0", rat(0, 1), rat(1, 1))
	ar := floatArith{eps: defaultEps}
	for _, tc := range []struct {
		cancel <-chan struct{}
		want   Status
	}{{nil, StatusLimit}, {closedChan(), StatusCanceled}} {
		opts := ILPOptions{Engine: EngineFloat, MaxWork: 10, Cancel: tc.cancel}
		tasks := 0
		want, err := fenceOracle[float64](p, &untickedArena{}, ar, opts, &tasks)
		if err != nil || want.Status != tc.want {
			t.Fatalf("oracle: %v, %v; want %v", want, err, tc.want)
		}
		got, err := bbSolveArena[float64](p, &untickedArena{}, ar, opts)
		if err != nil || got.Status != tc.want {
			t.Fatalf("search: %v, %v; want %v", got, err, tc.want)
		}
	}
}
