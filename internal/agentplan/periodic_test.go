package agentplan

import (
	"context"
	"testing"

	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/testmaps/paritycases"
	"repro/internal/warehouse"
)

// discard is an emit that keeps nothing.
func discard([]warehouse.AgentState, int) error { return nil }

// TestStreamReplaysFromFirstRepeat pins the period boundary from which
// stream replays the movement phase instead of running it: t = tc on the
// nine Table I sets and t = 9·tc = 126 on Fulfillment1 at 1,320 units, the
// boundaries whose edges paritycases.TableI realizes at, and never on
// demand/bursty-0's ContractILP set at corpus seed 3, whose state does not
// repeat, so the parity tests keep covering the unreplayed path at full
// length.
func TestStreamReplaysFromFirstRepeat(t *testing.T) {
	cases, err := paritycases.TableI()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		want := c.CS.Tc
		if c.Name == "Fulfillment1_units=1320" {
			want = 9 * c.CS.Tc
		}
		if _, from, err := stream(c.CS, c.WL, 3600, discard); err != nil || from != want {
			t.Errorf("%s: replay from %d (err %v), want %d", c.Name, from, err, want)
		}
	}

	insts, err := datasets.Generate(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range insts {
		if in.Name != "demand/bursty-0" {
			continue
		}
		var model flow.ContractModel
		set, err := model.Synthesize(context.Background(), in.Sys, in.WL, in.T, flow.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cs, err := cycles.FromFlowSet(set, in.WL)
		if err != nil {
			t.Fatal(err)
		}
		if _, from, err := stream(cs, in.WL, in.T, discard); err != nil || from != -1 {
			t.Errorf("%s: replay from %d (err %v), want none", in.Name, from, err)
		}
		return
	}
	t.Fatal("corpus seed 3 has no demand/bursty-0 instance")
}
