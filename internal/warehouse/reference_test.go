package warehouse_test

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"repro/internal/agentplan"
	"repro/internal/grid"
	"repro/internal/sim"
	"repro/internal/testmaps/paritycases"
	"repro/internal/warehouse"
)

// refValidatePlan, refDelivered, refServices and refRun are the three-pass
// validator ReplayPlan replaced, kept verbatim as the oracle the parity
// tests hold ValidatePlan, Delivered, Services and sim.Run to: the vertex
// and transition sweeps with a map of pickups, Delivered's per-agent sweep,
// and sim.Run's tally sweep after a full validation.
func refValidatePlan(w *warehouse.Warehouse, p *warehouse.Plan) []warehouse.PlanViolation {
	var out []warehouse.PlanViolation
	T := p.Horizon()
	c := p.NumAgents()
	st := p.Rows()
	for i := 0; i < c; i++ {
		if len(st[i]) != T {
			out = append(out, warehouse.PlanViolation{Agent: i, OtherIdx: -1, Condition: 1,
				Detail: fmt.Sprintf("agent has %d states, want %d", len(st[i]), T)})
			return out
		}
	}
	// Per-(vertex,product) pickup totals for stock accounting.
	type pick struct {
		v grid.VertexID
		k warehouse.ProductID
	}
	picked := make(map[pick]int)

	// Stamped occupancy arena: occAgent[v] holds the occupant at timestep t
	// iff occStamp[v] == t+1, so no per-step clearing is needed.
	nv := w.Graph.NumVertices()
	occAgent := grid.GetInt32(nv)
	occStamp := grid.GetInt32(nv)
	defer grid.PutInt32(occAgent)
	defer grid.PutInt32(occStamp)
	for t := 0; t < T; t++ {
		stamp := int32(t) + 1
		// Condition 2a: vertex conflicts.
		for i := 0; i < c; i++ {
			v := st[i][t].Vertex
			if v < 0 || int(v) >= nv {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("vertex %d out of range", v)})
				continue
			}
			if occStamp[v] == stamp {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: int(occAgent[v]), Condition: 2,
					Detail: fmt.Sprintf("agents %d and %d both at vertex %d", occAgent[v], i, v)})
			}
			occAgent[v] = int32(i)
			occStamp[v] = stamp
		}
		if t+1 >= T {
			break
		}
		for i := 0; i < c; i++ {
			cur, next := st[i][t], st[i][t+1]
			// Condition 1: unit moves.
			if cur.Vertex != next.Vertex && !w.Graph.Adjacent(cur.Vertex, next.Vertex) {
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
					Detail: fmt.Sprintf("teleport %d -> %d", cur.Vertex, next.Vertex)})
			}
			// Condition 2b: edge swaps.
			if next.Vertex >= 0 && int(next.Vertex) < nv && occStamp[next.Vertex] == stamp {
				if j := int(occAgent[next.Vertex]); j != i && st[j][t+1].Vertex == cur.Vertex {
					if i < j { // report each swap once
						out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: j, Condition: 2,
							Detail: fmt.Sprintf("agents %d and %d swap across edge %d-%d", i, j, cur.Vertex, next.Vertex)})
					}
				}
			}
			// Condition 3: product handling.
			switch {
			case cur.Carried == next.Carried:
				// holding steady is always fine
			case cur.Carried == warehouse.NoProduct:
				// pickup: must stand at a shelf-access vertex stocking it
				if w.UnitsAt(cur.Vertex, next.Carried) <= 0 {
					out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("picked product %d at vertex %d which stocks none", next.Carried, cur.Vertex)})
				} else {
					picked[pick{cur.Vertex, next.Carried}]++
				}
			case next.Carried == warehouse.NoProduct:
				// drop-off: must stand at a station
				if !w.IsStation(cur.Vertex) {
					out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("dropped product %d at non-station vertex %d", cur.Carried, cur.Vertex)})
				}
			default:
				out = append(out, warehouse.PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
					Detail: fmt.Sprintf("carried product mutated %d -> %d", cur.Carried, next.Carried)})
			}
		}
	}
	for pk, n := range picked {
		if have := w.UnitsAt(pk.v, pk.k); n > have {
			out = append(out, warehouse.PlanViolation{Timestep: T - 1, Agent: -1, OtherIdx: -1, Condition: 3,
				Detail: fmt.Sprintf("picked %d units of product %d at vertex %d, stock is %d", n, pk.k, pk.v, have)})
		}
	}
	return out
}

func refDelivered(w *warehouse.Warehouse, p *warehouse.Plan) []int {
	units := make([]int, w.NumProducts)
	st := p.Rows()
	for i := 0; i < p.NumAgents(); i++ {
		for t := 0; t+1 < p.Horizon(); t++ {
			cur, next := st[i][t], st[i][t+1]
			if cur.Carried != warehouse.NoProduct && next.Carried == warehouse.NoProduct && w.IsStation(cur.Vertex) {
				units[cur.Carried]++
			}
		}
	}
	return units
}

func refServices(w *warehouse.Warehouse, p *warehouse.Plan, wl warehouse.Workload) (bool, []warehouse.PlanViolation) {
	if v := refValidatePlan(w, p); len(v) > 0 {
		return false, v
	}
	got := refDelivered(w, p)
	for k, want := range wl.Units {
		if got[k] < want {
			return false, []warehouse.PlanViolation{{Timestep: p.Horizon() - 1, Agent: -1, OtherIdx: -1, Condition: 3,
				Detail: fmt.Sprintf("delivered %d of product %d, want %d", got[k], k, want)}}
		}
	}
	return true, nil
}

func refRun(w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload) sim.Result {
	res := sim.Result{
		Delivered:  make([]int, w.NumProducts),
		ServicedAt: -1,
	}
	res.Violations = refValidatePlan(w, plan)
	T := plan.Horizon()
	c := plan.NumAgents()
	serviced := func() bool {
		for k, want := range wl.Units {
			if res.Delivered[k] < want {
				return false
			}
		}
		return true
	}
	if serviced() {
		res.ServicedAt = 0
	}
	st := plan.Rows()
	for t := 0; t+1 < T; t++ {
		for i := 0; i < c; i++ {
			cur, next := st[i][t], st[i][t+1]
			if cur.Vertex == next.Vertex {
				res.Waits++
			} else {
				res.Moves++
			}
			if cur.Carried != warehouse.NoProduct {
				res.Carrying++
			}
			if cur.Carried != warehouse.NoProduct && next.Carried == warehouse.NoProduct && w.IsStation(cur.Vertex) {
				res.Delivered[cur.Carried]++
				res.DeliveryTimes = append(res.DeliveryTimes, t+1)
			}
		}
		if res.ServicedAt < 0 && serviced() {
			res.ServicedAt = t + 1
		}
	}
	return res
}

// canon sorts the trailing stock-overdraw violations (the only ones without
// an agent) by detail: the reference emits them in map order.
func canon(vs []warehouse.PlanViolation) []warehouse.PlanViolation {
	vs = slices.Clone(vs)
	i := len(vs)
	for i > 0 && vs[i-1].Agent == -1 {
		i--
	}
	sort.Slice(vs[i:], func(a, b int) bool { return vs[i+a].Detail < vs[i+b].Detail })
	return vs
}

// checkParity requires ValidatePlan, Delivered, Services and sim.Run to
// answer exactly as the reference does on p, and a Replayer fed p's rows in
// tiles of every width in tileWidths, directly and through a Feeder, to
// answer as ValidatePlan and sim.Run.
func checkParity(t *testing.T, w *warehouse.Warehouse, p *warehouse.Plan, wls ...warehouse.Workload) {
	t.Helper()
	wantVs := canon(refValidatePlan(w, p))
	if got := canon(warehouse.ValidatePlan(w, p)); !reflect.DeepEqual(got, wantVs) {
		t.Errorf("ValidatePlan = %v, reference %v", got, wantVs)
	}
	for _, width := range tileWidths(p.Horizon()) {
		for _, async := range []bool{false, true} {
			if got := canon(feedTiles(w, p, warehouse.Workload{}, width, async).Violations); !reflect.DeepEqual(got, wantVs) {
				t.Errorf("width %d, async=%v: Replayer violations = %v, reference %v", width, async, got, wantVs)
			}
		}
	}
	if got, want := warehouse.Delivered(w, p), refDelivered(w, p); !reflect.DeepEqual(got, want) {
		t.Errorf("Delivered = %v, reference %v", got, want)
	}
	for _, wl := range wls {
		ok, vs := warehouse.Services(w, p, wl)
		wantOK, wantVs := refServices(w, p, wl)
		if ok != wantOK || !reflect.DeepEqual(canon(vs), canon(wantVs)) {
			t.Errorf("Services(%v) = %v %v, reference %v %v", wl.Units, ok, vs, wantOK, wantVs)
		}
		want := refRun(w, p, wl)
		want.Violations = canon(want.Violations)
		got := sim.Run(w, p, wl)
		got.Violations = canon(got.Violations)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sim.Run(%v) = %+v, reference %+v", wl.Units, got, want)
		}
		for _, width := range tileWidths(p.Horizon()) {
			for _, async := range []bool{false, true} {
				got := feedTiles(w, p, wl, width, async)
				got.Violations = canon(got.Violations)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("width %d, async=%v: Replayer(%v) = %+v, reference %+v", width, async, wl.Units, got, want)
				}
			}
		}
	}
}

// tileWidths are the tile widths checkParity feeds a T-step plan to a
// Replayer at: one step at a time, a width prime to 64, the edges of
// ReplayPlan's 64-step tile, and the whole plan at once.
func tileWidths(T int) []int { return []int{1, 7, 63, 64, 65, T} }

// feedTiles replays p through a Replayer fed tiles of the given width,
// directly or, when async, through a Feeder. The tile is refilled with an
// off-grid state before every copy, so a read of a state outside the steps
// fed, or of the tile after Feed returned, shows as a violation.
func feedTiles(w *warehouse.Warehouse, p *warehouse.Plan, wl warehouse.Workload, width int, async bool) sim.Result {
	rows, T := p.Rows(), p.Horizon()
	rp := warehouse.NewReplayer(w, len(rows), T, wl)
	feed, finish := rp.Feed, rp.Finish
	if async {
		f := rp.Async()
		feed, finish = f.Feed, f.Finish
	}
	tile := make([]warehouse.AgentState, width*len(rows))
	for t0 := 0; t0 < T; t0 += width {
		n := min(width, T-t0)
		for i := range tile {
			tile[i] = warehouse.AgentState{Vertex: -2, Carried: -2}
		}
		for i, row := range rows {
			copy(tile[i*width:i*width+n], row[t0:t0+n])
		}
		feed(tile, width, n)
	}
	return sim.Result(finish())
}

// demands returns the zero workload and a unit demand for every product.
func demands(w *warehouse.Warehouse) []warehouse.Workload {
	zero, ones := make([]int, w.NumProducts), make([]int, w.NumProducts)
	for k := range ones {
		ones[k] = 1
	}
	return []warehouse.Workload{{Units: zero}, {Units: ones}}
}

func TestReplayMatchesReferenceOnHandBuiltPlans(t *testing.T) {
	plans := warehouse.HandBuiltPlans(t)
	for _, name := range slices.Sorted(maps.Keys(plans)) {
		hb := plans[name]
		t.Run(name, func(t *testing.T) {
			if name == "ragged" {
				// The reference tallies panic on a short row; only its
				// validator can be compared.
				if got, want := warehouse.ValidatePlan(hb.W, hb.P), refValidatePlan(hb.W, hb.P); !reflect.DeepEqual(got, want) {
					t.Errorf("ValidatePlan = %v, reference %v", got, want)
				}
				return
			}
			checkParity(t, hb.W, hb.P, demands(hb.W)...)
		})
	}
}

// TestReplayMatchesReferenceOnRealizedPlans replays the plans Algorithm 1
// realizes for the nine Table I instances at every tile-edge horizon and
// for the generated corpus, plus a corrupted copy of every 3600-step Table I
// plan whose violations span several replay tiles.
func TestReplayMatchesReferenceOnRealizedPlans(t *testing.T) {
	tableI, err := paritycases.TableI()
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := paritycases.Corpus()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range append(tableI, corpus...) {
		for _, T := range c.Horizons {
			t.Run(fmt.Sprintf("%s/T=%d", c.Name, T), func(t *testing.T) {
				plan, _, err := agentplan.Realize(c.CS, c.WL, T)
				if err != nil {
					t.Fatal(err)
				}
				w := c.CS.S.W
				checkParity(t, w, plan, c.WL)
				if T == 3600 {
					corrupt(plan, c.WL)
					checkParity(t, w, plan, c.WL)
				}
			})
		}
	}
}

// corrupt breaks plan in place at timesteps around the replay tile edges:
// one agent jumps onto another's vertex, one swaps places with another, one
// changes or conjures its load, and one is sent off the grid.
func corrupt(plan *warehouse.Plan, wl warehouse.Workload) {
	c := plan.NumAgents()
	st := plan.Rows()
	for n, t := range []int{0, 62, 63, 64, 125, 126, 1000, 3598} {
		i, j := n%c, (n+3)%c
		switch n % 4 {
		case 0:
			st[i][t].Vertex = st[j][t].Vertex
		case 1:
			st[i][t+1].Vertex, st[j][t+1].Vertex = st[j][t].Vertex, st[i][t].Vertex
		case 2:
			st[i][t+1].Carried = warehouse.ProductID((int(st[i][t].Carried) + 2) % len(wl.Units))
		case 3:
			st[i][t].Vertex = grid.VertexID(1 << 20)
		}
	}
}

// TestMalformedPlansReportViolations covers plans the three-pass validator
// panicked on: each is reported as a violation by every entry point.
func TestMalformedPlansReportViolations(t *testing.T) {
	plans := warehouse.HandBuiltPlans(t)
	fig1, line := plans["legalTour"].W, plans["stockOverdraw"].W
	v0 := fig1.Graph.At(grid.Coord{X: 0, Y: 0})
	station := line.Stations[0]
	for _, tc := range []struct {
		name      string
		w         *warehouse.Warehouse
		p         *warehouse.Plan
		condition int
		detail    string
	}{
		{"vertexOffGrid", fig1, warehouse.NewPlan([][]warehouse.AgentState{
			{{Vertex: 9999, Carried: warehouse.NoProduct}, {Vertex: v0, Carried: warehouse.NoProduct}},
		}), 1, "vertex 9999 out of range"},
		{"ragged", fig1, plans["ragged"].P, 1, "agent has 1 states, want 2"},
		{"unknownProductDropped", line, warehouse.NewPlan([][]warehouse.AgentState{
			{{Vertex: station, Carried: 7}, {Vertex: station, Carried: warehouse.NoProduct}},
		}), 3, "dropped unknown product 7"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			has := func(vs []warehouse.PlanViolation) bool {
				for _, v := range vs {
					if v.Condition == tc.condition && strings.Contains(v.Detail, tc.detail) {
						return true
					}
				}
				return false
			}
			if vs := warehouse.ValidatePlan(tc.w, tc.p); !has(vs) {
				t.Errorf("ValidatePlan = %v, want a condition-%d %q", vs, tc.condition, tc.detail)
			}
			if ok, vs := warehouse.Services(tc.w, tc.p, warehouse.Workload{Units: make([]int, tc.w.NumProducts)}); ok || !has(vs) {
				t.Errorf("Services = %v %v, want false with a condition-%d %q", ok, vs, tc.condition, tc.detail)
			}
			if got := warehouse.Delivered(tc.w, tc.p); !slices.Equal(got, make([]int, tc.w.NumProducts)) {
				t.Errorf("Delivered = %v, want nothing delivered", got)
			}
			if res := sim.Run(tc.w, tc.p, warehouse.Workload{}); !has(res.Violations) {
				t.Errorf("sim.Run violations = %v, want a condition-%d %q", res.Violations, tc.condition, tc.detail)
			}
		})
	}
}
