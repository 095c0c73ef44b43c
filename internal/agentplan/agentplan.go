// Package agentplan realizes an agent cycle set as a discrete T-timestep
// plan, implementing the modular realization algorithm of §IV-C
// (Algorithm 1, COMPONENT_TIMESTEP).
//
// Every timestep, each component moves the agent nearest its exit across to
// the next component of that agent's cycle (at most once per cycle period)
// and shifts its remaining agents one cell toward the exit when the next
// cell was free at the start of the step. Because a follower may not enter a
// cell being vacated in the same step, gaps propagate one cell per timestep,
// which is why a cycle period of tc = 2m timesteps suffices to advance every
// agent one component (Property 4.1).
//
// Pickups and drop-offs follow the product-handling semantics of §III
// condition (3): the carried-product transition at t+1 is decided by the
// agent's position at t, so picking and dropping cost no timesteps.
//
// A timestep costs time in the number of agents, not cells: each component
// keeps a ring of its agents, nearest the exit first, and each agent its
// cell as a slot in one flat component-major cell array. Movement decisions
// read only time-t slots. An agent that crosses to its next component leaves
// its ring's head and joins the next ring's tail once the movement phase is
// over; at most one agent enters a component per step, and only onto an
// entry cell free at t, so the joiner is the member farthest from the exit
// and every ring stays in exit-first order.
//
// Movement reads no carried product. So once every agent stands where the
// agent ahead of it on its cycle stood one period before, every later
// period's movement repeats the last one with the agents moved one position
// along their cycles, and Stream reads the movement out of its record of
// that period instead of computing it.
package agentplan

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/grid"
	"repro/internal/warehouse"
)

// tileSteps is how many timesteps of states Stream buffers in a small tile
// before handing them on: each step writes one contiguous run of states
// into the tile, which stays in cache.
const tileSteps = 64

// Stats summarizes a realization. What the plan delivers, and when, is
// the replay's to establish (warehouse.ReplayPlan), not the realizer's.
type Stats struct {
	// Agents is the team size (one agent per cycle position).
	Agents int
}

// agent is one agent's state apart from its cell slot and cycle position.
type agent struct {
	cyc      *cycles.Cycle
	quota    []int // units left per leg of cyc, shared by the cycle's agents
	carried  warehouse.ProductID
	advanceT int   // timestep of the last component advancement
	first    int32 // cyc's position 0 in the numbering of all cycle positions
	dropAt   int32 // cycle position of the leg's drop, -1 when empty
}

// ring lists the agents in one component, nearest the exit first. The
// component owns the cell slots lo (its entry) through lo+size-1 (its exit)
// of the flat cell array, and the same range of the shared ring buffer,
// which fits every member since a component holds at most one agent per
// cell.
type ring struct {
	lo, size int32
	head, n  int32
}

// tail returns the ring-array index of the member farthest from the exit.
func (r *ring) tail() int32 {
	i := r.head + r.n - 1
	if i >= r.size {
		i -= r.size
	}
	return r.lo + i
}

// handoff is a component crossing decided in the movement phase: the head
// of ring from joins ring to as its tail.
type handoff struct{ from, to int32 }

// Realize executes the cycle set for T timesteps and returns the plan
// (π, φ) together with realization statistics. The returned plan always
// spans exactly T timesteps; agents keep circulating after the workload is
// serviced. It is Stream with a sink that copies every tile into the plan.
func Realize(cs *cycles.Set, wl warehouse.Workload, T int) (*warehouse.Plan, Stats, error) {
	// The rows slice one agents×T slab, allocated at the first tile, once
	// Stream has accepted the inputs.
	n := cs.NumAgents()
	var rows [][]warehouse.AgentState
	base := 0
	stats, err := Stream(cs, wl, T, func(tile []warehouse.AgentState, steps int) error {
		if rows == nil {
			slab := make([]warehouse.AgentState, n*T)
			rows = make([][]warehouse.AgentState, n)
			for i := range rows {
				rows[i] = slab[i*T : (i+1)*T : (i+1)*T]
			}
		}
		for i, row := range rows {
			dst := row[base : base+steps]
			for s := range dst {
				dst[s] = tile[s*n+i]
			}
		}
		base += steps
		return nil
	})
	if err != nil {
		return nil, Stats{}, err
	}
	return warehouse.NewPlan(rows), stats, nil
}

// Stream executes the cycle set for T timesteps as Realize does, but hands
// the plan to emit one tile at a time instead of keeping it, so its memory
// does not depend on T. The tile is step-major: it holds steps*agents
// states, and tile[s*agents+i] is agent i's state at timestep base+s, where
// base is the number of timesteps emitted before. Every tile but the last
// spans the same number of timesteps, and the tiles cover timesteps 0..T-1
// in order. The tile is reused once emit returns. When emit returns an
// error, Stream stops and returns it.
func Stream(cs *cycles.Set, wl warehouse.Workload, T int, emit func(tile []warehouse.AgentState, steps int) error) (Stats, error) {
	stats, _, err := stream(cs, wl, T, emit)
	return stats, err
}

// stream is Stream, and also returns the period boundary from which it
// replayed the movement phase instead of running it, or -1 if it ran it
// throughout.
//
// The movement phase (phase 2) reads the agents' cell slots, their cycle
// positions, whether each advanced since the period began, and ring order,
// which is exit-first, so the slots fix it. It reads no carried product.
// Agents on one cycle differ to it only in their slots and positions: it
// visits rings in component order and members in slot order, never in
// agent order. So if at some period boundary t every agent i stands where
// σ(i), the agent placed on the next position of i's cycle, stood at t-tc
// (same slot, same cycle position, and advanced at step t exactly when σ(i)
// advanced at step t-tc), phase 2 from t on repeats the period before it
// with every agent in σ(i)'s place. Agent i's slot and position at
// t+j·tc+s are then those of σ^{j+1}(i) at t-tc+s, and stream reads them
// out of its record of that period instead of running phase 2. Product
// handling (phase 1) and the tile write run every step on the recorded
// positions either way, so the plan is the same.
func stream(cs *cycles.Set, wl warehouse.Workload, T int, emit func([]warehouse.AgentState, int) error) (Stats, int, error) {
	s := cs.S
	w := s.W
	tc := cs.Tc
	if T < 1 {
		return Stats{}, -1, fmt.Errorf("agentplan: horizon %d too short", T)
	}
	if tc < 2 {
		return Stats{}, -1, fmt.Errorf("agentplan: cycle time %d too short", tc)
	}

	// Property 4.1 preconditions.
	if errs := cs.Check(wl); len(errs) > 0 {
		return Stats{}, -1, fmt.Errorf("agentplan: invalid cycle set: %v", errs[0])
	}

	// The flat cell array, slot -> vertex, and one empty ring per component
	// over the component's slot range.
	rings := make([]ring, s.NumComponents())
	ncells := int32(0)
	for c, comp := range s.Components {
		rings[c] = ring{lo: ncells, size: int32(len(comp.Cells))}
		ncells += int32(len(comp.Cells))
	}
	vertexAt := grid.GetInt32(int(ncells))
	defer grid.PutInt32(vertexAt)
	for c, comp := range s.Components {
		for i, v := range comp.Cells {
			vertexAt[int(rings[c].lo)+i] = int32(v)
		}
	}

	// Instantiate agents: one per cycle position, placed on distinct cells
	// of the position's component, filling from the exit backward, which is
	// also ring order. The cycle positions are numbered like the agents
	// placed on them, so agent i starts at position i, and succ[i], the
	// next position on i's cycle, is also σ(i), the agent placed there.
	n := cs.NumAgents()
	agents := make([]agent, n)
	perAgent := grid.GetInt32(7 * n)
	defer grid.PutInt32(perAgent)
	cur := perAgent[0*n : 1*n : 1*n]      // each agent's slot at t
	nxt := perAgent[1*n : 2*n : 2*n]      // each agent's slot at t+1
	at := perAgent[2*n : 3*n : 3*n]       // each agent's cycle position at t
	succ := perAgent[3*n : 4*n : 4*n]     // each position's successor on its cycle
	compAt := perAgent[4*n : 5*n : 5*n]   // each position's component
	adv := perAgent[5*n : 6*n : 6*n]      // 1 if the agent advanced at the recorded period's first step
	rot := perAgent[6*n : 7*n : 7*n]      // whose record entries each agent takes
	members := grid.GetInt32(int(ncells)) // the rings' shared buffer
	defer grid.PutInt32(members)
	// Mutable pick bookkeeping: every cycle's leg quotas, in one slice.
	nlegs := 0
	for _, cyc := range cs.Cycles {
		nlegs += len(cyc.Legs)
	}
	quota := make([]int, nlegs)
	ai := 0
	for _, cyc := range cs.Cycles {
		q := quota[:len(cyc.Legs):len(cyc.Legs)]
		quota = quota[len(cyc.Legs):]
		for li, leg := range cyc.Legs {
			q[li] = leg.Quota
		}
		first := ai
		for pos, comp := range cyc.Components {
			r := &rings[comp]
			if r.n == r.size {
				return Stats{}, -1, fmt.Errorf("agentplan: component %d overfull at initialization", comp)
			}
			members[r.lo+r.n] = int32(ai)
			cur[ai] = r.lo + r.size - 1 - r.n
			r.n++
			agents[ai] = agent{cyc: cyc, quota: q, first: int32(first), carried: warehouse.NoProduct, dropAt: -1, advanceT: -1}
			at[ai] = int32(ai)
			succ[ai] = int32(first + (pos+1)%len(cyc.Components))
			compAt[ai] = int32(comp)
			ai++
		}
	}

	// What a step visits, in one buffer. Components on some cycle now hold
	// agents, and a component on none never will, since an agent moves only
	// to its own cycle's next component: the movement phase walks just the
	// former, in ascending order. The legs that pick at position k, in leg
	// order, are pickLegs[pickAt[k]:pickAt[k+1]].
	lists := grid.GetInt32(len(rings) + n + 1 + nlegs)
	defer grid.PutInt32(lists)
	onCycle := lists[:0:len(rings)]
	for c := range rings {
		if rings[c].n > 0 {
			onCycle = append(onCycle, int32(c))
		}
	}
	pickAt, pickLegs := lists[len(rings):len(rings)+n+1], lists[len(rings)+n+1:]
	indexPicks(cs.Cycles, pickAt, pickLegs)

	// Dense mutable stock: shelf column x product, indexed col*|ρ|+k.
	p := w.NumProducts
	stock := grid.GetInt32(len(w.ShelfAccess) * p)
	defer grid.PutInt32(stock)
	for k := 0; k < p; k++ {
		row := w.Stock[k]
		if row == nil {
			continue
		}
		for l, units := range row {
			stock[l*p+k] = int32(units)
		}
	}

	// The record of the current period: recSlot[k*n+i] and recAt[k*n+i] are
	// agent i's slot and position at the period's k-th timestep. A horizon
	// of at most tc steps reaches no boundary, and needs only T of them.
	// Agent i's state at t is the record's entry for agent rot[i] at t%tc:
	// its own while phase 2 runs, σ^{j+1}(i)'s in the j-th replayed period.
	recSteps := min(tc, T)
	rec := grid.GetInt32(2 * recSteps * n)
	defer grid.PutInt32(rec)
	recSlot, recAt := rec[:recSteps*n], rec[recSteps*n:]
	copy(recSlot, cur)
	copy(recAt, at)
	for i := range rot {
		rot[i] = int32(i)
	}

	// tile[r*n+i] holds agent i's state at timestep base+r.
	width := min(tileSteps, T)
	tile := warehouse.GetStates(width * n)
	defer warehouse.PutStates(tile)
	base := 0

	// entryStamp[c] == t+1 once an agent has claimed component c's entry
	// for t+1.
	entryStamp := grid.GetInt32(len(rings))
	defer grid.PutInt32(entryStamp)
	handoffs := make([]handoff, 0, len(rings))

	replayFrom := -1
	for t := 0; ; t++ {
		// Each agent's state at t into the tile, then phase 1: the pick/drop
		// decision for t+1 from its position at t. An empty agent tries the
		// legs that pick at its position, in leg order.
		r := t - base
		row := tile[r*n : (r+1)*n]
		now := t % tc
		slots, ats := recSlot[now*n:(now+1)*n], recAt[now*n:(now+1)*n]
		for i := range row {
			a := &agents[i]
			j := rot[i]
			v := grid.VertexID(vertexAt[slots[j]])
			row[i] = warehouse.AgentState{Vertex: v, Carried: a.carried}
			pos := ats[j]
			if a.carried == warehouse.NoProduct {
				legs := pickLegs[pickAt[pos]:pickAt[pos+1]]
				if len(legs) == 0 {
					continue
				}
				col := w.ShelfColumn(v)
				if col < 0 {
					continue
				}
				for _, li := range legs {
					if a.quota[li] <= 0 {
						continue
					}
					leg := &a.cyc.Legs[li]
					si := col*p + int(leg.Product)
					if stock[si] <= 0 {
						continue
					}
					stock[si]--
					a.quota[li]--
					a.carried = leg.Product
					a.dropAt = a.first + int32(leg.DropIdx)
					break
				}
			} else if pos == a.dropAt && w.IsStation(v) {
				a.carried = warehouse.NoProduct
				a.dropAt = -1
			}
		}
		if t+1 == T {
			break
		}
		if r+1 == width {
			if err := emit(tile, width); err != nil {
				return Stats{}, -1, err
			}
			base += width
		}

		// Movement to t+1. Once replaying, each boundary moves every agent
		// on to the entries of the agent one position further along.
		next := (t + 1) % tc
		if replayFrom >= 0 {
			if next == 0 {
				for i, j := range rot {
					rot[i] = succ[j]
				}
			}
			continue
		}

		// Phase 2: movement, component by component, members nearest the
		// exit first. The member just ahead is the only one that can hold
		// the next cell, so its time-t slot decides every internal shift.
		periodStart := (t / tc) * tc
		stamp := int32(t) + 1
		handoffs = handoffs[:0]
		for _, c := range onCycle {
			rg := &rings[c]
			if rg.n == 0 {
				continue
			}
			exit := rg.lo + rg.size - 1
			ahead := int32(-1)
			h := rg.head
			for k := int32(0); k < rg.n; k++ {
				i := members[rg.lo+h]
				if h++; h == rg.size {
					h = 0
				}
				a := &agents[i]
				g := cur[i]
				ng := g
				if g == exit {
					if k == 0 && a.advanceT < periodStart {
						np := succ[at[i]]
						to := compAt[np]
						tr := &rings[to]
						// The entry was free at t unless the member farthest
						// from that component's exit stood on it.
						if entryStamp[to] != stamp && (tr.n == 0 || cur[members[tr.tail()]] != tr.lo) {
							entryStamp[to] = stamp
							at[i] = np
							a.advanceT = t + 1
							ng = tr.lo
							handoffs = append(handoffs, handoff{from: c, to: to})
						}
					}
				} else if ahead != g+1 {
					ng = g + 1
				}
				nxt[i] = ng
				ahead = g
			}
		}
		for _, h := range handoffs {
			from, to := &rings[h.from], &rings[h.to]
			i := members[from.lo+from.head]
			if from.head++; from.head == from.size {
				from.head = 0
			}
			from.n--
			to.n++
			members[to.tail()] = i
		}
		cur, nxt = nxt, cur

		// Record t+1. At a boundary whose state repeats the last one's,
		// replay instead: agent i takes σ(i)'s entries of the period on
		// record.
		if next == 0 {
			if repeats(cur, at, recSlot[:n], recAt[:n], adv, succ, agents, t+1) {
				replayFrom = t + 1
				copy(rot, succ)
				continue
			}
			for i := range agents {
				adv[i] = 0
				if agents[i].advanceT == t+1 {
					adv[i] = 1
				}
			}
		}
		copy(recSlot[next*n:(next+1)*n], cur)
		copy(recAt[next*n:(next+1)*n], at)
	}
	if err := emit(tile[:(T-base)*n], T-base); err != nil {
		return Stats{}, -1, err
	}
	return Stats{Agents: n}, replayFrom, nil
}

// repeats reports whether every agent i stands at period boundary t where
// σ(i) = succ[i] stood at the boundary before, as recorded in slot0, at0
// and adv0: in the same cell slot, at the same cycle position, and having
// advanced at t exactly when σ(i) had advanced at t-tc.
func repeats(cur, at, slot0, at0, adv0, succ []int32, agents []agent, t int) bool {
	for i, j := range succ {
		if cur[i] != slot0[j] || at[i] != at0[j] || (agents[i].advanceT == t) != (adv0[j] == 1) {
			return false
		}
	}
	return true
}

// indexPicks lists, for every cycle position k, numbered like the agents
// Stream places on the positions, the legs that pick there in leg order:
// pickLegs[pickAt[k]:pickAt[k+1]]. pickAt, zeroed, has one entry per
// position and one more; pickLegs has one per leg.
func indexPicks(cycs []*cycles.Cycle, pickAt, pickLegs []int32) {
	first := 0
	for _, cyc := range cycs {
		for _, leg := range cyc.Legs {
			pickAt[first+leg.PickIdx+1]++
		}
		first += len(cyc.Components)
	}
	for k := 1; k < len(pickAt); k++ {
		pickAt[k] += pickAt[k-1]
	}
	// Fill every list from its start, which leaves pickAt[k] at the start
	// of list k+1, then shift the starts back.
	first = 0
	for _, cyc := range cycs {
		for li, leg := range cyc.Legs {
			k := first + leg.PickIdx
			pickLegs[pickAt[k]] = int32(li)
			pickAt[k]++
		}
		first += len(cyc.Components)
	}
	copy(pickAt[1:], pickAt)
	pickAt[0] = 0
}
