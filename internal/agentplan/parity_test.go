package agentplan

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/testmaps/paritycases"
	"repro/internal/warehouse"
)

// TestRealizeMatchesReference holds the ring realization to refRealize, the
// cell walk it replaced: identical plans and Stats on the nine Table I
// instances at every tile-edge horizon and on the generated corpus under
// both route packing and the contract ILP. On the same cases, Stream fed
// into a warehouse.Replayer, directly and through the warehouse.Feeder that
// checks tiles on its own goroutine as core.Solve runs it, must give the
// Stats, error and Replay of Realize followed by warehouse.ReplayPlan.
func TestRealizeMatchesReference(t *testing.T) {
	tableI, err := paritycases.TableI()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := paritycases.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	if len(corpus) == 0 {
		t.Fatal("empty corpus")
	}
	for _, c := range append(tableI, corpus...) {
		for _, T := range c.Horizons {
			t.Run(fmt.Sprintf("%s/T=%d", c.Name, T), func(t *testing.T) {
				plan, stats, err := Realize(c.CS, c.WL, T)
				wantPlan, wantStats, wantErr := refRealize(c.CS, c.WL, T)
				if fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("err = %v, reference %v", err, wantErr)
				}
				if !reflect.DeepEqual(stats, wantStats) {
					t.Errorf("stats = %+v, reference %+v", stats, wantStats)
				}
				if !reflect.DeepEqual(plan, wantPlan) {
					t.Errorf("plan differs from the reference")
				}
				w := c.CS.S.W
				var want warehouse.Replay
				if err == nil {
					want = warehouse.ReplayPlan(w, plan, c.WL)
				}
				for _, async := range []bool{false, true} {
					rp := warehouse.NewReplayer(w, c.CS.NumAgents(), T, c.WL)
					feed, finish := rp.Feed, rp.Finish
					if async {
						f := rp.Async()
						feed, finish = f.Feed, f.Finish
					}
					streamStats, streamErr := Stream(c.CS, c.WL, T, func(tile []warehouse.AgentState, width, steps int) error {
						feed(tile, width, steps)
						return nil
					})
					replay := finish()
					if fmt.Sprint(streamErr) != fmt.Sprint(err) {
						t.Fatalf("async=%v: Stream err = %v, Realize %v", async, streamErr, err)
					}
					if err != nil {
						continue
					}
					if !reflect.DeepEqual(streamStats, stats) {
						t.Errorf("async=%v: Stream stats = %+v, Realize %+v", async, streamStats, stats)
					}
					if !reflect.DeepEqual(replay, want) {
						t.Errorf("async=%v: streamed replay = %+v, ReplayPlan %+v", async, replay, want)
					}
				}
			})
		}
	}
}
