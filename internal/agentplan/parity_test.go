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
// straight into a warehouse.Replayer, as core.Solve runs it, must give the
// Stats and Replay of Realize followed by warehouse.ReplayPlan.
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
				rp := warehouse.NewReplayer(w, c.CS.NumAgents(), T, c.WL)
				streamStats, streamErr := Stream(c.CS, c.WL, T, func(tile []warehouse.AgentState, width, steps int) error {
					rp.Feed(tile, width, steps)
					return nil
				})
				replay := rp.Finish()
				if fmt.Sprint(streamErr) != fmt.Sprint(err) {
					t.Fatalf("Stream err = %v, Realize %v", streamErr, err)
				}
				if err != nil {
					return
				}
				if !reflect.DeepEqual(streamStats, stats) {
					t.Errorf("Stream stats = %+v, Realize %+v", streamStats, stats)
				}
				if want := warehouse.ReplayPlan(w, plan, c.WL); !reflect.DeepEqual(replay, want) {
					t.Errorf("streamed replay = %+v, ReplayPlan %+v", replay, want)
				}
			})
		}
	}
}
