package warehouse

import (
	"testing"
	"time"
)

// TestFeederRelaysPanic: a tile fed past the horizon panics on the
// Feeder's goroutine. Feed calls after it return without blocking, and
// Finish panics on the caller's goroutine with the value Replayer.Feed
// panics with when called directly.
func TestFeederRelaysPanic(t *testing.T) {
	w, shelf, _ := lineWarehouse(t)
	tile := []AgentState{{Vertex: shelf, Carried: NoProduct}, {Vertex: shelf, Carried: NoProduct}}
	want := func() (p any) {
		defer func() { p = recover() }()
		NewReplayer(w, 1, 1, Workload{}).Feed(tile, 2)
		return nil
	}()
	if want == nil {
		t.Fatal("Replayer.Feed accepted two steps of a one-step plan")
	}

	f := NewReplayer(w, 1, 1, Workload{}).Async()
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		// Feed holds at most two tiles, so the later calls pass only if
		// Feed stops waiting for a buffer once the goroutine has stopped.
		for range 2 * feedBuffers {
			f.Feed(tile, 2)
		}
	}()
	select {
	case <-fed:
	case <-time.After(10 * time.Second):
		t.Fatal("Feed blocked after the Feeder's goroutine panicked")
	}
	got := func() (p any) {
		defer func() { p = recover() }()
		f.Finish()
		return nil
	}()
	if got != want {
		t.Errorf("Finish panicked with %v, want %v", got, want)
	}
}
