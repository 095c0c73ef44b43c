package lifelong

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/flow"
	"repro/internal/lp"
	"repro/internal/testmaps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// recorder collects every observer event in firing order.
type recorder struct {
	epochs     []EpochReport
	deliveries []Delivery
	completes  []int
	stats      []BatchStats
}

func (r *recorder) OnEpoch(er EpochReport) { r.epochs = append(r.epochs, er) }
func (r *recorder) OnDelivery(d Delivery)  { r.deliveries = append(r.deliveries, d) }
func (r *recorder) OnBatchComplete(b int, s BatchStats) {
	r.completes = append(r.completes, b)
	r.stats = append(r.stats, s)
}

func TestObserverEventsMatchReport(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
		{Release: 1800, Units: []int{4, 4}},
	}
	rec := &recorder{}
	rep, err := Run(context.Background(), s, batches, 4800, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.epochs) != rep.Epochs {
		t.Fatalf("OnEpoch fired %d times for %d epochs", len(rec.epochs), rep.Epochs)
	}
	// Per-epoch deliveries must sum to the report totals, per product.
	sums := make([]int, len(rep.Delivered))
	for _, er := range rec.epochs {
		if er.End != er.Start+er.Changeover+er.ServicedAt {
			t.Errorf("epoch %d: End %d != Start+Changeover+ServicedAt", er.Epoch, er.End)
		}
		if er.EpochInfo != rep.EpochLog[er.Epoch-1] {
			t.Errorf("epoch %d: EpochInfo diverges from EpochLog", er.Epoch)
		}
		for k, u := range er.Delivered {
			sums[k] += u
		}
	}
	for k := range sums {
		if sums[k] != rep.Delivered[k] {
			t.Errorf("product %d: epoch deliveries sum to %d, report says %d", k, sums[k], rep.Delivered[k])
		}
	}
	// Delivery attributions must sum to each batch's unit count.
	perBatch := make([]int, len(rep.Batches))
	for _, d := range rec.deliveries {
		perBatch[d.Batch] += d.Units
	}
	for bi, b := range rep.Batches {
		if perBatch[bi] != b.Units {
			t.Errorf("batch %d: %d units attributed, batch holds %d", bi, perBatch[bi], b.Units)
		}
	}
	// Every batch completed exactly once, carrying its final stats.
	if len(rec.completes) != len(rep.Batches) {
		t.Fatalf("OnBatchComplete fired %d times for %d batches", len(rec.completes), len(rep.Batches))
	}
	for i, bi := range rec.completes {
		if rec.stats[i] != rep.Batches[bi] {
			t.Errorf("batch %d completion stats %+v != report %+v", bi, rec.stats[i], rep.Batches[bi])
		}
	}
	// The final epoch's backlog is empty and its cumulative throughput
	// series covers at least every accounted delivery.
	last := rec.epochs[len(rec.epochs)-1]
	if sumPos(last.Outstanding) != 0 {
		t.Errorf("final outstanding = %v, want all zero", last.Outstanding)
	}
	total := 0
	for _, b := range last.Throughput {
		if b < 0 {
			t.Errorf("negative throughput bin in %v", last.Throughput)
		}
		total += b
	}
	if want := sumPos(rep.Delivered); total < want {
		t.Errorf("throughput series holds %d deliveries, report accounted %d", total, want)
	}
}

func TestObserverDoesNotChangeReport(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{8, 0}},
		{Release: 900, Units: []int{0, 8}},
	}
	plain, err := Run(context.Background(), s, batches, 4800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	observed, err := Run(context.Background(), s, batches, 4800, Options{Observer: &recorder{}})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", plain) != fmt.Sprintf("%+v", observed) {
		t.Errorf("observed run diverged:\nplain:    %+v\nobserved: %+v", plain, observed)
	}
}

func TestStepMachineDrivesRun(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{6, 0}},
		{Release: 1200, Units: []int{0, 6}},
	}
	e, err := NewEngine(s, batches, 4800, Options{})
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for {
		done, err := e.Step(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		steps++
		if done {
			break
		}
		if e.Report().Epochs > 0 && e.now == 0 {
			t.Fatal("clock did not advance across an epoch step")
		}
		if steps > 100 {
			t.Fatal("step machine did not terminate")
		}
	}
	if !e.done {
		t.Error("engine not done after final Step")
	}
	// Stepping a done engine is a no-op.
	if done, err := e.Step(context.Background()); !done || err != nil {
		t.Errorf("Step after done = (%v, %v), want (true, nil)", done, err)
	}
	rep := e.Report()
	if rep.Delivered[0] != 6 || rep.Delivered[1] != 6 {
		t.Errorf("delivered = %v, want [6 6]", rep.Delivered)
	}
	// The machine takes strictly more steps than epochs: clock jumps to
	// future releases are separate events.
	if steps <= rep.Epochs {
		t.Errorf("steps = %d, epochs = %d; release jumps should be separate steps", steps, rep.Epochs)
	}
}

func TestMergeSameReleaseBatches(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{
		{Release: 0, Units: []int{3, 1}},
		{Release: 0, Units: []int{5, 2}},
		{Release: 1200, Units: []int{0, 4}},
	}
	rec := &recorder{}
	rep, err := Run(context.Background(), s, batches, 4800, Options{Observer: rec})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Batches) != 2 {
		t.Fatalf("batches = %d, want 2 (same-release pair merged)", len(rep.Batches))
	}
	if rep.Batches[0].Units != 11 {
		t.Errorf("merged batch units = %d, want 11", rep.Batches[0].Units)
	}
	if rep.Delivered[0] != 8 || rep.Delivered[1] != 7 {
		t.Errorf("delivered = %v, want [8 7]", rep.Delivered)
	}
	for _, d := range rec.deliveries {
		if d.Batch < 0 || d.Batch >= len(rep.Batches) {
			t.Errorf("delivery attributed to batch %d outside merged range", d.Batch)
		}
	}
	// Merging must not mutate the caller's batch slice vectors.
	if batches[0].Units[0] != 3 || batches[1].Units[0] != 5 {
		t.Errorf("caller batches mutated: %v", batches)
	}
}

// failingSolve returns a solveFn failing the first n calls with err, then
// delegating to the real solver.
func failingSolve(n int, err error, calls *int) solveFn {
	return func(ctx context.Context, s *traffic.System, wl warehouse.Workload, T int, opts core.Options, sc *core.Scratch) (*core.Result, error) {
		*calls++
		if *calls <= n {
			return nil, err
		}
		return core.SolveScratch(ctx, s, wl, T, opts, sc)
	}
}

func driveToError(t *testing.T, e *Engine) error {
	t.Helper()
	for {
		done, err := e.Step(context.Background())
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

func TestRetryOnRetryableErrors(t *testing.T) {
	_, s := testmaps.MustRing()
	batches := []Batch{{Release: 0, Units: []int{6, 4}}}
	for _, sentinel := range []error{flow.ErrInfeasible, flow.ErrHorizonTooShort, lp.ErrBudgetExhausted} {
		e, err := NewEngine(s, batches, 2400, Options{})
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		e.solve = failingSolve(1, fmt.Errorf("synthetic: %w", sentinel), &calls)
		if err := driveToError(t, e); err != nil {
			t.Errorf("%v: run failed despite successful retry: %v", sentinel, err)
		}
		// Epoch 1: fail + halved retry (2 calls, 5 of 10 units); epoch 2
		// clears the remainder with one more solve.
		if calls != 3 {
			t.Errorf("%v: %d solve calls, want 3 (fail + halved retry + follow-up epoch)", sentinel, calls)
		}
		rep := e.Report()
		if rep.Epochs != 2 {
			t.Errorf("%v: epochs = %d, want 2", sentinel, rep.Epochs)
		}
		if got := sumPos(rep.Delivered); got != 10 {
			t.Errorf("%v: delivered %d units, want 10", sentinel, got)
		}
	}
}

func TestNoRetryOnUnclassifiedError(t *testing.T) {
	_, s := testmaps.MustRing()
	e, err := NewEngine(s, []Batch{{Release: 0, Units: []int{6, 4}}}, 2400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("synthetic constructor bug")
	calls := 0
	e.solve = failingSolve(99, boom, &calls)
	runErr := driveToError(t, e)
	if runErr == nil {
		t.Fatal("run succeeded despite failing solver")
	}
	if calls != 1 {
		t.Errorf("%d solve calls, want 1 (no halved retry for unclassified errors)", calls)
	}
	if !errors.Is(runErr, boom) {
		t.Errorf("error %v does not wrap the solver failure", runErr)
	}
	if !strings.Contains(runErr.Error(), "lifelong: epoch at t=0 failed") {
		t.Errorf("error %v missing the epoch-failed wrap", runErr)
	}
}

func TestNoRetryOnCancel(t *testing.T) {
	_, s := testmaps.MustRing()
	e, err := NewEngine(s, []Batch{{Release: 0, Units: []int{6, 4}}}, 2400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e.solve = failingSolve(99, fmt.Errorf("synthetic: %w", lp.ErrCanceled), &calls)
	runErr := driveToError(t, e)
	if calls != 1 {
		t.Errorf("%d solve calls, want 1 (canceled attempts never retry)", calls)
	}
	if runErr == nil || !errors.Is(runErr, lp.ErrCanceled) {
		t.Errorf("error %v does not wrap lp.ErrCanceled", runErr)
	}
	if !strings.Contains(runErr.Error(), "run canceled in epoch at t=0") {
		t.Errorf("error %v missing the canceled-run wrap", runErr)
	}
}

func TestRetryExhaustedWrapsRetryError(t *testing.T) {
	_, s := testmaps.MustRing()
	e, err := NewEngine(s, []Batch{{Release: 0, Units: []int{6, 4}}}, 2400, Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	e.solve = failingSolve(99, fmt.Errorf("synthetic: %w", flow.ErrInfeasible), &calls)
	runErr := driveToError(t, e)
	if calls != 2 {
		t.Errorf("%d solve calls, want 2", calls)
	}
	if runErr == nil || !errors.Is(runErr, flow.ErrInfeasible) {
		t.Errorf("error %v does not wrap flow.ErrInfeasible", runErr)
	}
}
