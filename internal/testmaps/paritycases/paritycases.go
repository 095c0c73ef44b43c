// Package paritycases builds the cycle sets on which tests hold
// agentplan.Realize and the warehouse plan replay to the reference
// implementations kept in their _test.go files.
package paritycases

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cycles"
	"repro/internal/datasets"
	"repro/internal/flow"
	"repro/internal/maps"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// Case is one cycle set, to be realized at each of its horizons.
type Case struct {
	Name     string
	CS       *cycles.Set
	WL       warehouse.Workload
	Horizons []int
}

// tableIHorizons are the horizons every Table I cycle set is realized at:
// one- and two-step plans, the edges of the first 64-step tile, and the
// paper's plan length. TableI adds the edges of each set's periodic replay.
var tableIHorizons = []int{1, 2, 63, 64, 65, 3600}

// TableI returns the nine Table I instances, route-packed at T=3600, and
// Fulfillment1 at 1,320 units. Realization replays the nine from their
// first period boundary, t = tc, and the tenth only from its ninth, t = 126.
// Each is realized at tableIHorizons and at the edges of its replay from
// boundary b: b itself, the first replayed steps b+1 and b+2, and b+tc and
// b+tc+1, where the replay first wraps to the next period.
func TableI() ([]Case, error) {
	var out []Case
	for _, row := range []struct {
		name    string
		build   func() (*maps.Map, error)
		units   []int
		periods []int // per units, the periods until the replay starts
	}{
		{"SortingCenter", maps.SortingCenter, []int{160, 320, 480}, []int{1, 1, 1}},
		{"Fulfillment1", maps.Fulfillment1, []int{550, 825, 1100, 1320}, []int{1, 1, 1, 9}},
		{"Fulfillment2", maps.Fulfillment2, []int{1200, 1320, 1440}, []int{1, 1, 1}},
	} {
		m, err := row.build()
		if err != nil {
			return nil, err
		}
		for j, units := range row.units {
			wl, err := workload.Uniform(m.W, units)
			if err != nil {
				return nil, err
			}
			cs, err := cycles.Synthesize(m.S, wl, 3600, cycles.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s units=%d: %w", row.name, units, err)
			}
			tc := cs.Tc
			b := row.periods[j] * tc
			horizons := append([]int{b, b + 1, b + 2, b + tc, b + tc + 1}, tableIHorizons...)
			slices.Sort(horizons)
			out = append(out, Case{Name: fmt.Sprintf("%s_units=%d", row.name, units), CS: cs, WL: wl, Horizons: slices.Compact(horizons)})
		}
	}
	return out, nil
}

// Corpus returns the datasets.Generate instances of seeds 1–5, each
// distinct instance once, synthesized by route packing and by the contract
// ILP and realized at the instance's horizon. An instance a strategy does
// not solve on its first attempt yields no case for that strategy.
func Corpus() ([]Case, error) {
	var out []Case
	var model flow.ContractModel
	seen := map[string]bool{}
	for seed := int64(1); seed <= 5; seed++ {
		insts, err := datasets.Generate(seed)
		if err != nil {
			return nil, err
		}
		for _, in := range insts {
			key := fmt.Sprint(in.Name, in.WL.Units, in.T)
			if seen[key] {
				continue
			}
			seen[key] = true
			if cs, err := cycles.Synthesize(in.Sys, in.WL, in.T, cycles.Options{}); err == nil {
				out = append(out, Case{Name: in.Name + "/route", CS: cs, WL: in.WL, Horizons: []int{in.T}})
			}
			set, err := model.Synthesize(context.Background(), in.Sys, in.WL, in.T, flow.Options{})
			if err != nil {
				continue
			}
			if cs, err := cycles.FromFlowSet(set, in.WL); err == nil {
				out = append(out, Case{Name: in.Name + "/contract", CS: cs, WL: in.WL, Horizons: []int{in.T}})
			}
		}
	}
	return out, nil
}
