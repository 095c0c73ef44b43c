package lifelong

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/lp"
	"repro/internal/testmaps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// seedRun is the pre-engine monolithic Run loop, copied verbatim from the
// last commit before the event-driven refactor. The parity corpus below
// proves the engine path returns a bit-identical Report (and identical
// error strings) on randomized batch schedules, including canceled and
// budget-exhausted runs. Do not "fix" this copy — it IS the spec.
func seedRun(ctx context.Context, s *traffic.System, batches []Batch, T int, opts Options) (*Report, error) {
	w := s.W
	p := w.NumProducts
	sorted := append([]Batch(nil), batches...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Release < sorted[b].Release })
	for i, b := range sorted {
		if len(b.Units) != p {
			return nil, fmt.Errorf("lifelong: batch %d has %d demands for %d products", i, len(b.Units), p)
		}
		if b.Release < 0 || b.Release >= T {
			return nil, fmt.Errorf("lifelong: batch %d released at %d outside [0, %d)", i, b.Release, T)
		}
	}

	rep := &Report{Delivered: make([]int, p)}
	rep.Batches = make([]BatchStats, len(sorted))
	for i, b := range sorted {
		total := 0
		for _, u := range b.Units {
			total += u
		}
		rep.Batches[i] = BatchStats{Release: b.Release, Completed: -1, Units: total}
	}

	outstanding := make([]int, p)
	remaining := make([][]int, len(sorted))
	for i, b := range sorted {
		remaining[i] = append([]int(nil), b.Units...)
	}
	stock := make([][]int, p)
	for k := 0; k < p; k++ {
		stock[k] = append([]int(nil), w.Stock[k]...)
	}
	paths := make([][]grid.VertexID, len(s.Components))
	for i, c := range s.Components {
		paths[i] = c.Cells
	}
	sc := &core.Scratch{}

	now := 0
	next := 0
	for next < len(sorted) || sumPos(outstanding) > 0 {
		for next < len(sorted) && sorted[next].Release <= now {
			for k, u := range sorted[next].Units {
				outstanding[k] += u
			}
			next++
		}
		if sumPos(outstanding) == 0 {
			if next >= len(sorted) {
				break
			}
			now = sorted[next].Release
			continue
		}
		horizon := T - now
		if next < len(sorted) && sorted[next].Release-now < horizon {
			horizon = sorted[next].Release - now
		}
		horizon -= s.CycleTime()
		if horizon < s.CycleTime() {
			if next < len(sorted) {
				now = sorted[next].Release
				continue
			}
			return rep, fmt.Errorf("lifelong: %d units outstanding with no time left", sumPos(outstanding))
		}
		we, err := warehouse.New(w.Graph, w.ShelfAccess, w.Stations, p, stock)
		if err != nil {
			return rep, err
		}
		se, err := traffic.Build(we, paths)
		if err != nil {
			return rep, err
		}
		wl, err := warehouse.NewWorkload(we, clampByStock(we, outstanding))
		if err != nil {
			return rep, err
		}
		res, err := core.SolveScratch(ctx, se, wl, horizon, opts.Core, sc)
		if err != nil {
			if errors.Is(err, lp.ErrCanceled) {
				return rep, fmt.Errorf("lifelong: run canceled in epoch at t=%d: %w", now, err)
			}
			half := halve(wl.Units)
			wl2, err2 := warehouse.NewWorkload(we, half)
			if err2 != nil {
				return rep, err
			}
			res, err = core.SolveScratch(ctx, se, wl2, horizon, opts.Core, sc)
			if err != nil {
				return rep, fmt.Errorf("lifelong: epoch at t=%d failed: %w", now, err)
			}
			wl = wl2
		}
		rep.Epochs++
		if res.Stats.Agents > rep.PeakAgents {
			rep.PeakAgents = res.Stats.Agents
		}
		for k := 0; k < p; k++ {
			delivered := res.Sim.Delivered[k]
			if delivered > outstanding[k] {
				delivered = outstanding[k]
			}
			outstanding[k] -= delivered
			rep.Delivered[k] += delivered
			deplete(stock[k], delivered)
			for bi := range remaining {
				if delivered == 0 {
					break
				}
				take := remaining[bi][k]
				if take > delivered {
					take = delivered
				}
				remaining[bi][k] -= take
				delivered -= take
			}
		}
		epochEnd := now + s.CycleTime() + res.Sim.ServicedAt
		rep.EpochLog = append(rep.EpochLog, EpochInfo{
			Start:      now,
			Horizon:    horizon,
			Changeover: s.CycleTime(),
			ServicedAt: res.Sim.ServicedAt,
			End:        epochEnd,
		})
		for bi := range remaining {
			if rep.Batches[bi].Completed < 0 && sumPos(remaining[bi]) == 0 && sorted[bi].Release <= now {
				rep.Batches[bi].Completed = epochEnd
			}
		}
		now = epochEnd
		if now >= T && (next < len(sorted) || sumPos(outstanding) > 0) {
			return rep, fmt.Errorf("lifelong: horizon exhausted with %d units outstanding", sumPos(outstanding))
		}
	}
	return rep, nil
}

// parityCase is one randomized schedule + solver config + context setup.
type parityCase struct {
	name    string
	batches []Batch
	T       int
	opts    Options
	ctx     context.Context
}

// parityCorpus builds randomized batch schedules with distinct release
// times (the seed's documented precondition — same-release merging is new
// engine behavior, deliberately outside the parity surface) and crosses
// them with solver configs that exercise the success, canceled, and
// budget-exhausted paths. Release times and demand stay within what the
// ring map services comfortably, so the seed's any-error retry and the
// engine's classified retry never diverge on these runs.
func parityCorpus(t *testing.T) []parityCase {
	t.Helper()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	rng := rand.New(rand.NewSource(9))
	var cases []parityCase
	for i := 0; i < 10; i++ {
		T := 3600 + 1200*rng.Intn(3)
		nb := 1 + rng.Intn(3)
		// Distinct releases on a 600-step grid, always including t=0.
		slots := rng.Perm(5)
		releases := []int{0}
		for _, s := range slots[:nb-1] {
			releases = append(releases, 600*(s+1))
		}
		sort.Ints(releases)
		var batches []Batch
		for _, r := range releases {
			batches = append(batches, Batch{
				Release: r,
				Units:   []int{rng.Intn(7), rng.Intn(7)},
			})
		}
		cases = append(cases,
			parityCase{
				name:    fmt.Sprintf("case%d/route", i),
				batches: batches, T: T,
				opts: Options{Core: core.Options{Strategy: core.RoutePacking}},
				ctx:  context.Background(),
			},
			parityCase{
				name:    fmt.Sprintf("case%d/contract", i),
				batches: batches, T: T,
				opts: Options{Core: core.Options{Strategy: core.ContractILP}},
				ctx:  context.Background(),
			},
			parityCase{
				name:    fmt.Sprintf("case%d/canceled", i),
				batches: batches, T: T,
				opts: Options{Core: core.Options{Strategy: core.RoutePacking}},
				ctx:  canceled,
			},
		)
		// Budget exhaustion: a work budget far below one contract solve
		// forces lp.ErrBudgetExhausted deterministically; both paths retry
		// with a halved workload, fail again, and must agree on the final
		// "epoch failed" error string and the (empty) partial report.
		if i%3 == 0 {
			cases = append(cases, parityCase{
				name:    fmt.Sprintf("case%d/exhausted", i),
				batches: batches, T: T,
				opts: Options{Core: core.Options{Strategy: core.ContractILP, Limits: lp.Limits{MaxWork: 50}}},
				ctx:  context.Background(),
			})
		}
	}
	return cases
}

func TestEngineParityWithSeed(t *testing.T) {
	_, s := testmaps.MustRing()
	for _, tc := range parityCorpus(t) {
		t.Run(tc.name, func(t *testing.T) {
			wantRep, wantErr := seedRun(tc.ctx, s, tc.batches, tc.T, tc.opts)
			gotRep, gotErr := Run(tc.ctx, s, tc.batches, tc.T, tc.opts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("error mismatch: seed=%v engine=%v", wantErr, gotErr)
			}
			if wantErr != nil && wantErr.Error() != gotErr.Error() {
				t.Fatalf("error string mismatch:\nseed:   %q\nengine: %q", wantErr, gotErr)
			}
			if !reflect.DeepEqual(wantRep, gotRep) {
				t.Fatalf("report mismatch:\nseed:   %+v\nengine: %+v", wantRep, gotRep)
			}
		})
	}
}

// TestEngineParityValidation pins the pre-run validation errors to the
// seed's exact strings (and nil reports).
func TestEngineParityValidation(t *testing.T) {
	_, s := testmaps.MustRing()
	for _, batches := range [][]Batch{
		{{Release: 0, Units: []int{1}}},
		{{Release: -5, Units: []int{1, 1}}},
		{{Release: 2400, Units: []int{1, 1}}},
	} {
		wantRep, wantErr := seedRun(context.Background(), s, batches, 2400, Options{})
		gotRep, gotErr := Run(context.Background(), s, batches, 2400, Options{})
		if wantRep != nil || gotRep != nil {
			t.Errorf("validation failure should return nil reports, got seed=%v engine=%v", wantRep, gotRep)
		}
		if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
			t.Errorf("error mismatch: seed=%v engine=%v", wantErr, gotErr)
		}
	}
}
