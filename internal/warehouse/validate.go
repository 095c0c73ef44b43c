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

// replayTile is how many timesteps ReplayPlan copies out of every agent's
// plan row at a time. The per-step sweeps over all agents then read a small
// tile that stays in cache instead of one cache line in each agent's row of
// a plan that spans megabytes. It equals agentplan's tile length, so
// replaying a freshly realized plan reuses the tile the realization
// returned to the pool.
const replayTile = 64

// Replay is what one pass over a plan establishes: every feasibility
// violation, and the delivery and movement tallies. It is the only owner of
// a realized plan's tallies: sim.Result is this type, and the realizer
// reports no tallies of its own.
type Replay struct {
	// Delivered counts units dropped at stations, per product.
	Delivered []int
	// DeliveryTimes records the timestep of every delivery, in order.
	DeliveryTimes []int
	// Moves counts cell transitions and Waits stationary agent-steps;
	// Moves+Waits = agents × (T-1). Carrying counts agent-steps spent
	// loaded over the same transitions.
	Moves, Waits, Carrying int
	// Violations lists every breach, in ReplayPlan's order.
	Violations []PlanViolation
	// ServicedAt is the first timestep by which the workload was fully
	// delivered, or -1.
	ServicedAt int
}

// ReplayPlan replays p against the warehouse in one time-major pass,
// feeding its rows to a Replayer one tile at a time, and checks the three
// feasibility conditions of §III:
//
//	(1) an agent moves by 0 or 1 vertices per timestep;
//	(2) no two agents occupy the same vertex or swap along an edge;
//	(3) pickups happen only at shelf-access vertices stocking the product,
//	    drop-offs only at stations, and carried products never mutate;
//	    over the whole plan, the units of product k picked up at
//	    shelf-access vertex v do not exceed Λ[k][v].
//
// It reports the violations in timestep order: for each timestep the
// vertex checks of every agent, then the checks of every agent's move to
// the next timestep, and after the last timestep the stock overdraws in
// (shelf column, product) order; none means the plan is feasible. Along the
// way it tallies deliveries, moves, waits and loaded steps, with ServicedAt
// measured against wl. A ragged plan, whose agents have different horizons,
// is reported at its first mismatching agent and not replayed.
func ReplayPlan(w *Warehouse, p *Plan, wl Workload) Replay {
	rows, T := p.Rows(), p.Horizon()
	for i, row := range rows {
		if len(row) != T {
			r := NewReplayer(w, 0, 0, wl).Finish()
			r.Violations = append(r.Violations, PlanViolation{Agent: i, OtherIdx: -1, Condition: 1,
				Detail: fmt.Sprintf("agent has %d states, want %d", len(row), T)})
			return r
		}
	}
	c := len(rows)
	rp := NewReplayer(w, c, T, wl)
	// tile[s*c+i] holds agent i's state at timestep t0+s.
	width := min(replayTile, T)
	tile := GetStates(width * c)
	defer PutStates(tile)
	for t0 := 0; t0 < T; t0 += width {
		steps := min(width, T-t0)
		for i, row := range rows {
			for s, st := range row[t0 : t0+steps] {
				tile[s*c+i] = st
			}
		}
		rp.Feed(tile[:steps*c], steps)
	}
	return rp.Finish()
}

// Replayer checks a plan fed to it in timestep order, one tile at a time,
// and tallies what ReplayPlan reports. Whatever the tile lengths, it reports
// the same violations in the same order. Between tiles it keeps every
// agent's last state, the occupancy of the last timestep and the pickup
// counts, so its memory does not depend on the horizon.
//
// Like ReplayPlan, it sees only agent states, never how they were chosen,
// so it checks a realization independently of the code that produced it.
type Replayer struct {
	w     *Warehouse
	units []int // the workload's demand per product
	c, T  int
	t     int // timesteps fed so far
	short int // products still below their demand
	// last[i] is agent i's state at timestep t-1, and occAgent[v] the agent
	// at vertex v then iff occStamp[v] == t: stamps spare a per-step clear.
	last               []AgentState
	occAgent, occStamp []int32
	// Pickups per shelf column × product at col*|ρ|+k, allocated at the
	// first pickup; over lists the entries that exceeded their stock.
	picked          []int32
	over            []int
	moves, carrying int
	r               Replay
}

// NewReplayer returns a Replayer for a plan of agents agents over T
// timesteps, measuring ServicedAt against wl. Feed it every timestep in
// order, then call Finish once.
func NewReplayer(w *Warehouse, agents, T int, wl Workload) *Replayer {
	rp := &Replayer{w: w, units: wl.Units, c: agents, T: T,
		last:     make([]AgentState, agents),
		occAgent: grid.GetInt32(w.Graph.NumVertices()),
		occStamp: grid.GetInt32(w.Graph.NumVertices()),
		r:        Replay{Delivered: make([]int, w.NumProducts), ServicedAt: -1}}
	for _, want := range wl.Units {
		if want > 0 {
			rp.short++
		}
	}
	if rp.short == 0 {
		rp.r.ServicedAt = 0
	}
	return rp
}

// Feed checks the next steps timesteps. The tile is step-major:
// tile[s*agents+i], for s < steps, is agent i's state at the s-th of them,
// so each timestep is one contiguous run of states. Feed reads the tile
// only during the call. It checks each timestep's moves from the one
// before, then its vertices, so every timestep's vertex violations precede
// those of its moves to the next, as in ReplayPlan.
func (rp *Replayer) Feed(tile []AgentState, steps int) {
	if rp.t+steps > rp.T {
		panic(fmt.Sprintf("warehouse: Feed past the horizon: %d+%d of %d timesteps", rp.t, steps, rp.T))
	}
	w, c, r := rp.w, rp.c, &rp.r
	np := w.NumProducts
	occAgent, occStamp := rp.occAgent, rp.occStamp
	nv := len(occStamp)
	moves, carrying, short := rp.moves, rp.carrying, rp.short
	// prev holds every agent's state at the timestep before the one
	// checked: the last one fed for the tile's first, the tile's row before
	// for the others.
	prev := rp.last[:c]
	for s := range steps {
		t := rp.t + s
		row := tile[s*c : (s+1)*c]
		if t > 0 {
			// The moves from timestep t-1, whose occupancy has stamp t.
			stamp := int32(t)
			for i, nx := range row {
				cu := prev[i]
				// Condition 1: unit moves.
				if cu.Vertex != nx.Vertex {
					moves++
					if !w.Graph.Adjacent(cu.Vertex, nx.Vertex) {
						r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 1,
							Detail: fmt.Sprintf("teleport %d -> %d", cu.Vertex, nx.Vertex)})
					}
				}
				// Condition 2b: edge swaps.
				if v := nx.Vertex; v >= 0 && int(v) < nv && occStamp[v] == stamp {
					if j := int(occAgent[v]); j != i && row[j].Vertex == cu.Vertex {
						if i < j { // report each swap once
							r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: j, Condition: 2,
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
						r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("picked product %d at vertex %d which stocks none", nx.Carried, cu.Vertex)})
						break
					}
					if rp.picked == nil {
						rp.picked = grid.GetInt32(len(w.ShelfAccess) * np)
					}
					at := w.ShelfColumn(cu.Vertex)*np + int(nx.Carried)
					if rp.picked[at]++; int(rp.picked[at]) == units+1 {
						rp.over = append(rp.over, at)
					}
				case nx.Carried == NoProduct:
					// drop-off: must stand at a station
					switch {
					case !w.IsStation(cu.Vertex):
						r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped product %d at non-station vertex %d", k, cu.Vertex)})
					case k < 0 || int(k) >= np:
						r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
							Detail: fmt.Sprintf("dropped unknown product %d at station vertex %d", k, cu.Vertex)})
					default:
						r.Delivered[k]++
						r.DeliveryTimes = append(r.DeliveryTimes, t)
						if int(k) < len(rp.units) && r.Delivered[k] == rp.units[k] {
							short--
						}
					}
				default:
					r.Violations = append(r.Violations, PlanViolation{Timestep: t - 1, Agent: i, OtherIdx: -1, Condition: 3,
						Detail: fmt.Sprintf("carried product mutated %d -> %d", k, nx.Carried)})
				}
			}
			if r.ServicedAt < 0 && short == 0 {
				r.ServicedAt = t
			}
		}
		// Condition 2a: vertex conflicts at timestep t.
		stamp := int32(t) + 1
		for i, st := range row {
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
		prev = row
	}
	copy(rp.last, prev)
	rp.t += steps
	rp.moves, rp.carrying, rp.short = moves, carrying, short
}

// Finish returns the replay of the timesteps fed: their violations, then the
// stock overdraws in (shelf column, product) order, and their tallies. It
// releases the Replayer's buffers, so the Replayer must not be used again.
func (rp *Replayer) Finish() Replay {
	r := rp.r
	if rp.t > 0 {
		r.Moves, r.Waits, r.Carrying = rp.moves, rp.c*(rp.t-1)-rp.moves, rp.carrying
	}
	w, np := rp.w, rp.w.NumProducts
	slices.Sort(rp.over)
	for _, at := range rp.over {
		v, k := w.ShelfAccess[at/np], ProductID(at%np)
		r.Violations = append(r.Violations, PlanViolation{Timestep: rp.T - 1, Agent: -1, OtherIdx: -1, Condition: 3,
			Detail: fmt.Sprintf("picked %d units of product %d at vertex %d, stock is %d", rp.picked[at], k, v, w.UnitsAt(v, k))})
	}
	if rp.picked != nil {
		grid.PutInt32(rp.picked)
	}
	grid.PutInt32(rp.occAgent)
	grid.PutInt32(rp.occStamp)
	*rp = Replayer{}
	return r
}
