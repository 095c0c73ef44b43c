package warehouse

import (
	"fmt"
	"slices"

	"repro/internal/grid"
)

// PlanViolation describes one breach of the feasibility conditions of §III.
type PlanViolation struct {
	Timestep  int // 0-based timestep at which the violation occurs
	Agent     int // primary agent involved
	OtherIdx  int // second agent for collision violations, else -1
	Condition int // 1 = movement, 2 = collision, 3 = product handling
	Detail    string
}

func (v PlanViolation) Error() string {
	return fmt.Sprintf("plan violation (condition %d) at t=%d agent=%d: %s", v.Condition, v.Timestep, v.Agent, v.Detail)
}

// replayTile is how many states ReplayPlan copies out of every agent's plan
// row at a time; consecutive runs overlap by one state. The per-step sweeps
// over all agents then read a small tile that stays in cache instead of one
// cache line in each agent's row of a plan that spans megabytes. It equals
// agentplan's write-tile width, so replaying a freshly realized plan reuses
// the tile the realization returned to the pool.
const replayTile = 64

// Replay is what one pass over a plan establishes: every feasibility
// violation, and the delivery and movement tallies.
type Replay struct {
	// Violations lists every breach, in ValidatePlan's order.
	Violations []PlanViolation
	// Delivered counts units dropped at stations, per product.
	Delivered []int
	// DeliveryTimes records the timestep of every delivery, in order.
	DeliveryTimes []int
	// Moves counts cell transitions and Waits stationary agent-steps;
	// Moves+Waits = agents × (T-1). Carrying counts agent-steps spent
	// loaded over the same transitions.
	Moves, Waits, Carrying int
	// ServicedAt is the first timestep by which the workload was fully
	// delivered, or -1.
	ServicedAt int
}

// ReplayPlan replays p against the warehouse in one time-major pass. It
// reports the violations ValidatePlan describes, in timestep order: for each
// timestep the vertex checks of every agent, then the checks of every
// agent's move to the next timestep, and after the last timestep the stock
// overdraws in (shelf column, product) order. Along the way it tallies what
// sim.Run reports, with ServicedAt measured against wl. A ragged plan, whose
// agents have different horizons, is reported at its first mismatching agent
// and not replayed.
func ReplayPlan(w *Warehouse, p *Plan, wl Workload) Replay {
	r := Replay{Delivered: make([]int, w.NumProducts), ServicedAt: -1}
	short := 0 // products still below their demand
	for _, want := range wl.Units {
		if want > 0 {
			short++
		}
	}
	if short == 0 {
		r.ServicedAt = 0
	}
	T := p.Horizon()
	c := p.NumAgents()
	for i := 0; i < c; i++ {
		if len(p.States[i]) != T {
			r.Violations = append(r.Violations, PlanViolation{Agent: i, OtherIdx: -1, Condition: 1,
				Detail: fmt.Sprintf("agent has %d states, want %d", len(p.States[i]), T)})
			return r
		}
	}
	if T == 0 {
		return r
	}

	np := w.NumProducts
	// Stamped occupancy arena: occAgent[v] holds the occupant at timestep t
	// iff occStamp[v] == t+1, so no per-step clearing is needed.
	nv := w.Graph.NumVertices()
	occAgent := grid.GetInt32(nv)
	occStamp := grid.GetInt32(nv)
	defer grid.PutInt32(occAgent)
	defer grid.PutInt32(occStamp)
	// Pickups per shelf column × product at col*|ρ|+k, allocated at the
	// first pickup; over lists the entries that exceeded their stock.
	var picked []int32
	var over []int
	moves, carrying := 0, 0

	// tile[i*width+s] holds agent i's state at timestep t0+s. A block's
	// first state is the previous block's last one, carried over.
	width := min(replayTile, T)
	tile := GetStates(width * c)
	defer PutStates(tile)
	for t0 := 0; t0 < T; t0 += replayTile - 1 {
		n := min(width, T-t0)
		for i, states := range p.States {
			run := tile[i*width : i*width+n]
			first := 0
			if t0 > 0 {
				run[0] = tile[i*width+replayTile-1]
				first = 1
			}
			copy(run[first:], states[t0+first:t0+n])
		}
		for step := range min(replayTile-1, T-t0) {
			t := t0 + step
			stamp := int32(t) + 1
			// Condition 2a: vertex conflicts.
			for i := range c {
				st := tile[i*width+step]
				v := st.Vertex
				if v < 0 || int(v) >= nv {
					r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
						Detail: fmt.Sprintf("vertex %d out of range", v)})
					continue
				}
				if occStamp[v] == stamp {
					r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: int(occAgent[v]), Condition: 2,
						Detail: fmt.Sprintf("agents %d and %d both at vertex %d", occAgent[v], i, v)})
				}
				occAgent[v] = int32(i)
				occStamp[v] = stamp
			}
			if t+1 >= T {
				break
			}
			for i := range c {
				cu, nx := tile[i*width+step], tile[i*width+step+1]
				// Condition 1: unit moves.
				if cu.Vertex != nx.Vertex {
					moves++
					if !w.Graph.Adjacent(cu.Vertex, nx.Vertex) {
						r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 1,
							Detail: fmt.Sprintf("teleport %d -> %d", cu.Vertex, nx.Vertex)})
					}
				}
				// Condition 2b: edge swaps.
				if v := nx.Vertex; v >= 0 && int(v) < nv && occStamp[v] == stamp {
					if j := int(occAgent[v]); j != i && tile[j*width+step+1].Vertex == cu.Vertex {
						if i < j { // report each swap once
							r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: j, Condition: 2,
								Detail: fmt.Sprintf("agents %d and %d swap across edge %d-%d", i, j, cu.Vertex, v)})
						}
					}
				}
				// Condition 3: product handling.
				if cu.Carried != NoProduct {
					carrying++
				}
				switch k := cu.Carried; {
				case k == nx.Carried:
					// holding steady is always fine
				case k == NoProduct:
					// pickup: must stand at a shelf-access vertex stocking it
					units := w.UnitsAt(cu.Vertex, nx.Carried)
					if units <= 0 {
						r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("picked product %d at vertex %d which stocks none", nx.Carried, cu.Vertex)})
						break
					}
					if picked == nil {
						picked = grid.GetInt32(len(w.ShelfAccess) * np)
					}
					at := w.ShelfColumn(cu.Vertex)*np + int(nx.Carried)
					if picked[at]++; int(picked[at]) == units+1 {
						over = append(over, at)
					}
				case nx.Carried == NoProduct:
					// drop-off: must stand at a station
					switch {
					case !w.IsStation(cu.Vertex):
						r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped product %d at non-station vertex %d", k, cu.Vertex)})
					case k < 0 || int(k) >= np:
						r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped unknown product %d at station vertex %d", k, cu.Vertex)})
					default:
						r.Delivered[k]++
						r.DeliveryTimes = append(r.DeliveryTimes, t+1)
						if int(k) < len(wl.Units) && r.Delivered[k] == wl.Units[k] {
							short--
						}
					}
				default:
					r.Violations = append(r.Violations, PlanViolation{Timestep: t, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("carried product mutated %d -> %d", k, nx.Carried)})
				}
			}
			if r.ServicedAt < 0 && short == 0 {
				r.ServicedAt = t + 1
			}
		}
	}
	r.Moves, r.Waits, r.Carrying = moves, c*(T-1)-moves, carrying
	slices.Sort(over)
	for _, at := range over {
		v, k := w.ShelfAccess[at/np], ProductID(at%np)
		r.Violations = append(r.Violations, PlanViolation{Timestep: T - 1, Agent: -1, OtherIdx: -1, Condition: 3,
			Detail: fmt.Sprintf("picked %d units of product %d at vertex %d, stock is %d", picked[at], k, v, w.UnitsAt(v, k))})
	}
	if picked != nil {
		grid.PutInt32(picked)
	}
	return r
}

// ValidatePlan checks the three feasibility conditions of §III against the
// warehouse and returns every violation found (nil means feasible).
//
//	(1) an agent moves by 0 or 1 vertices per timestep;
//	(2) no two agents occupy the same vertex or swap along an edge;
//	(3) pickups happen only at shelf-access vertices stocking the product,
//	    drop-offs only at stations, and carried products never mutate.
//
// ValidatePlan also checks that shelf stock is never over-drawn: the number
// of units of product k picked up at shelf-access vertex v over the whole
// plan must not exceed Λ[k][v].
func ValidatePlan(w *Warehouse, p *Plan) []PlanViolation {
	return ReplayPlan(w, p, Workload{}).Violations
}

// Delivered counts, per product, the units a plan transfers to stations: a
// delivery is a transition carried=k -> carried=ρ0 at a station vertex.
func Delivered(w *Warehouse, p *Plan) []int {
	return ReplayPlan(w, p, Workload{}).Delivered
}

// Services reports whether plan p services workload wl: it is feasible and
// delivers at least Units[k] of every product k.
func Services(w *Warehouse, p *Plan, wl Workload) (bool, []PlanViolation) {
	r := ReplayPlan(w, p, wl)
	if len(r.Violations) > 0 {
		return false, r.Violations
	}
	for k, want := range wl.Units {
		if got := r.Delivered[k]; got < want {
			return false, []PlanViolation{{Timestep: p.Horizon() - 1, Agent: -1, OtherIdx: -1, Condition: 3,
				Detail: fmt.Sprintf("delivered %d of product %d, want %d", got, k, want)}}
		}
	}
	return true, nil
}
