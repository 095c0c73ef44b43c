package lp

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"testing"
	"time"
)

// parityILP builds a classic exponential branch-and-bound instance:
// 2·Σx_i = k with binary x and k odd. The LP relaxation is feasible
// (Σx = k/2, fractional) and stays feasible until about k/2 variables are
// pinned per branch, every integral assignment violates parity, and
// proving that by branching alone visits a binomial-sized tree — a
// deterministic long-running search to cancel into (k=21 already exceeds
// the 200000-node default).
func parityILP(k int) *Problem {
	if k%2 == 0 {
		panic("parityILP needs odd k")
	}
	p := &Problem{}
	terms := make([]Term, k)
	for i := 0; i < k; i++ {
		v := p.AddIntVar("x", big.NewRat(0, 1), big.NewRat(1, 1))
		terms[i] = T(v, 2)
	}
	p.AddConstraint("parity", terms, EQ, big.NewRat(int64(k), 1))
	return p
}

func closedChan() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}

// A solve whose cancellation channel is already closed must return
// StatusCanceled on the first work-budget tick, before any pivoting.
func TestSolveILPCanceledBeforeStart(t *testing.T) {
	sol, err := solveILP(parityILP(7), ILPOptions{Engine: EngineExact, Cancel: closedChan()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Errorf("status %v, want canceled", sol.Status)
	}
}

// The same holds for a continuous problem, whose search is its root solve.
func TestSolveLPCanceled(t *testing.T) {
	sol, err := solveILP(relaxation(parityILP(7)), ILPOptions{Cancel: closedChan()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusCanceled {
		t.Errorf("status %v, want canceled", sol.Status)
	}
}

// Cancelling mid-branch-and-bound must abort the search promptly (the
// check rides every pivot's accounting tick) even though the full tree is
// exponential.
func TestSolveILPCanceledMidSearch(t *testing.T) {
	cancel := make(chan struct{})
	done := make(chan *Solution, 1)
	go func() {
		// k=31 with the node cap lifted runs for minutes uncancelled, so
		// a prompt return proves the cancellation path.
		sol, err := solveILP(parityILP(31), ILPOptions{Engine: EngineExact, MaxNodes: 1 << 30, Cancel: cancel})
		if err != nil {
			t.Error(err)
		}
		done <- sol
	}()
	time.Sleep(5 * time.Millisecond)
	close(cancel)
	select {
	case sol := <-done:
		if sol != nil && sol.Status != StatusCanceled {
			t.Errorf("status %v, want canceled", sol.Status)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled search did not return within 30s")
	}
}

// A cancelled solve must leave a Model reusable: the retained arena serves
// the next (uncancelled) solve with answers bit-identical to a fresh one.
func TestModelReusableAfterCancel(t *testing.T) {
	// A small feasibility ILP the uncancelled path decides quickly.
	build := func() *Problem {
		p := &Problem{}
		x := addNat(p, "x")
		y := addNat(p, "y")
		p.AddConstraint("c1", []Term{T(x, 3), T(y, 2)}, LE, big.NewRat(12, 1))
		p.AddConstraint("c2", []Term{T(x, 1), T(y, 1)}, GE, big.NewRat(3, 1))
		return p
	}
	mo := NewModel(build())

	sol, err := mo.ResolveILP(ILPOptions{Engine: EngineExact, Cancel: closedChan()})
	if err != nil {
		t.Fatalf("cancelled solve: %v", err)
	}
	if sol.Status != StatusCanceled {
		t.Fatalf("status %v, want canceled", sol.Status)
	}

	got, err := mo.ResolveILP(ILPOptions{Engine: EngineExact})
	if err != nil {
		t.Fatalf("re-solve after cancel: %v", err)
	}
	want, err := solveILP(build(), ILPOptions{Engine: EngineExact})
	if err != nil {
		t.Fatalf("fresh solve: %v", err)
	}
	if got.Status != want.Status {
		t.Fatalf("status %v after cancel, fresh %v", got.Status, want.Status)
	}
	for i := range want.Values {
		if got.Values[i].Cmp(want.Values[i]) != 0 {
			t.Errorf("value %d = %v after cancel, fresh %v", i, got.Values[i], want.Values[i])
		}
	}
	// The LP path through the same retained arena must also recover.
	lpGot, err := resolveLP(mo)
	if err != nil {
		t.Fatalf("LP re-solve after cancel: %v", err)
	}
	lpWant, err := solveLP(build())
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSolution(lpGot, lpWant); err != nil {
		t.Errorf("LP after cancel differs from a fresh solve: %v", err)
	}
}

// An installed-but-never-fired channel must not change any answer: the
// cancellation check is outside the pivot arithmetic.
func TestCancelChannelInertWhenUnfired(t *testing.T) {
	cancel := make(chan struct{})
	defer close(cancel)
	p := parityILP(7) // small enough to decide
	got, err := solveILP(p, ILPOptions{Engine: EngineExact, Cancel: cancel})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solveILP(parityILP(7), ILPOptions{Engine: EngineExact})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status {
		t.Errorf("status with inert channel %v, without %v", got.Status, want.Status)
	}
}

// The budget sentinel: node/work exhaustion classifies as
// ErrBudgetExhausted once it crosses the contracts layer; at the lp layer
// it is StatusLimit, distinct from StatusCanceled.
func TestBudgetVersusCancelStatus(t *testing.T) {
	sol, err := solveILP(parityILP(15), ILPOptions{Engine: EngineExact, MaxWork: 500})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != StatusLimit {
		t.Errorf("budgeted status %v, want limit", sol.Status)
	}
	if errors.Is(ErrCanceled, ErrBudgetExhausted) {
		t.Error("sentinels must be distinct")
	}
}

// TestWrapCancelCause pins the deadline/cancel distinction at its root:
// the helper annotates cancellation errors with the context's cause and
// leaves everything else alone.
func TestWrapCancelCause(t *testing.T) {
	base := fmt.Errorf("solve abandoned: %w", ErrCanceled)

	t.Run("deadline", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		err := WrapCancelCause(ctx, base)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v does not classify as DeadlineExceeded", err)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("%v lost ErrCanceled", err)
		}
	})

	t.Run("plain-cancel", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		err := WrapCancelCause(ctx, base)
		if err != base {
			t.Fatalf("plain cancel rewrote the error: %v", err)
		}
		if errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%v spuriously classifies as DeadlineExceeded", err)
		}
	})

	t.Run("custom-cause", func(t *testing.T) {
		reason := errors.New("shed load")
		ctx, cancel := context.WithCancelCause(context.Background())
		cancel(reason)
		err := WrapCancelCause(ctx, base)
		if !errors.Is(err, reason) {
			t.Fatalf("%v does not carry the custom cause", err)
		}
	})

	t.Run("pass-through", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		if err := WrapCancelCause(ctx, nil); err != nil {
			t.Fatalf("nil error rewritten to %v", err)
		}
		other := errors.New("unrelated")
		if err := WrapCancelCause(ctx, other); err != other {
			t.Fatalf("non-cancellation error rewritten to %v", err)
		}
		if err := WrapCancelCause(context.Background(), base); err != base {
			t.Fatalf("unfired context rewrote the error: %v", err)
		}
	})

	t.Run("idempotent", func(t *testing.T) {
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		once := WrapCancelCause(ctx, base)
		twice := WrapCancelCause(ctx, once)
		if twice != once {
			t.Fatalf("double wrap produced a new error: %v", twice)
		}
	})
}
