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
package agentplan

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/grid"
	"repro/internal/warehouse"
)

// tileSteps is how many timesteps of states Stream buffers per agent in a
// small tile before handing them on: each step writes into the tile, which
// stays in cache, and each hand-off passes one contiguous run of states per
// agent.
const tileSteps = 64

// Stats summarizes a realization.
type Stats struct {
	// Agents is the team size (one agent per cycle position).
	Agents int
	// Delivered counts units dropped at stations, per product.
	Delivered []int
	// Picks counts pickups.
	Picks int
	// ServicedAt is the first timestep by which the workload was fully
	// delivered, or -1 if the plan falls short.
	ServicedAt int
	// Moves counts cell transitions (a proxy for energy/congestion).
	Moves int
}

// agent is one agent's state apart from its cell slot.
type agent struct {
	cyc      *cycles.Cycle
	quota    []int // units left per leg of cyc, shared by the cycle's agents
	carried  warehouse.ProductID
	advanceT int   // timestep of the last component advancement
	first    int32 // cyc's position 0 in the numbering of all cycle positions
	pos      int32 // index into cyc.Components: the agent's current component
	dropPos  int32 // leg DropIdx the agent is heading to, -1 when empty
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
	var rows [][]warehouse.AgentState
	base := 0
	stats, err := Stream(cs, wl, T, func(tile []warehouse.AgentState, width, steps int) error {
		if rows == nil {
			n := cs.NumAgents()
			slab := make([]warehouse.AgentState, n*T)
			rows = make([][]warehouse.AgentState, n)
			for i := range rows {
				rows[i] = slab[i*T : (i+1)*T : (i+1)*T]
			}
		}
		for i, row := range rows {
			copy(row[base:base+steps], tile[i*width:i*width+steps])
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
// does not depend on T. In the tile, tile[i*width+s] for s < steps is agent
// i's state at timestep base+s, where base is the number of timesteps
// emitted before; every tile but the last has steps == width, and the tiles
// cover timesteps 0..T-1 in order. The tile is reused once emit returns.
// When emit returns an error, Stream stops and returns it.
func Stream(cs *cycles.Set, wl warehouse.Workload, T int, emit func(tile []warehouse.AgentState, width, steps int) error) (Stats, error) {
	s := cs.S
	w := s.W
	tc := cs.Tc
	if T < 1 {
		return Stats{}, fmt.Errorf("agentplan: horizon %d too short", T)
	}
	if tc < 2 {
		return Stats{}, fmt.Errorf("agentplan: cycle time %d too short", tc)
	}

	// Property 4.1 preconditions.
	if errs := cs.Check(wl); len(errs) > 0 {
		return Stats{}, fmt.Errorf("agentplan: invalid cycle set: %v", errs[0])
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
	// also ring order.
	n := cs.NumAgents()
	agents := make([]agent, n)
	cur := grid.GetInt32(n)               // each agent's slot at t
	nxt := grid.GetInt32(n)               // each agent's slot at t+1
	members := grid.GetInt32(int(ncells)) // the rings' shared buffer
	defer grid.PutInt32(cur)
	defer grid.PutInt32(nxt)
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
				return Stats{}, fmt.Errorf("agentplan: component %d overfull at initialization", comp)
			}
			members[r.lo+r.n] = int32(ai)
			cur[ai] = r.lo + r.size - 1 - r.n
			r.n++
			agents[ai] = agent{cyc: cyc, quota: q, first: int32(first), pos: int32(pos), carried: warehouse.NoProduct, dropPos: -1, advanceT: -1}
			ai++
		}
	}

	// What a step visits, in one buffer. Components on some cycle now hold
	// agents, and a component on none never will, since an agent moves only
	// to its own cycle's next component: the movement phase walks just the
	// former, in ascending order. The cycle positions are numbered like the
	// agents placed on them, and the legs that pick at position k, in leg
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

	// tile[i*width+r] holds agent i's state at timestep base+r.
	width := min(tileSteps, T)
	tile := warehouse.GetStates(width * n)
	defer warehouse.PutStates(tile)
	base := 0
	for i := range agents {
		tile[i*width] = warehouse.AgentState{Vertex: grid.VertexID(vertexAt[cur[i]]), Carried: warehouse.NoProduct}
	}

	stats := Stats{
		Agents:     n,
		Delivered:  make([]int, p),
		ServicedAt: -1,
	}
	short := 0 // products still below their demand
	for _, want := range wl.Units {
		if want > 0 {
			short++
		}
	}
	if short == 0 {
		stats.ServicedAt = 0
	}

	// entryStamp[c] == t+1 once an agent has claimed component c's entry
	// for t+1.
	entryStamp := grid.GetInt32(len(rings))
	defer grid.PutInt32(entryStamp)
	handoffs := make([]handoff, 0, len(rings))

	for t := 0; t+1 < T; t++ {
		periodStart := (t / tc) * tc
		stamp := int32(t) + 1

		// Phase 1: pick/drop decisions from positions at time t. An empty
		// agent tries the legs that pick at its position, in leg order.
		for i := range agents {
			a := &agents[i]
			if a.carried == warehouse.NoProduct {
				k := a.first + a.pos
				legs := pickLegs[pickAt[k]:pickAt[k+1]]
				if len(legs) == 0 {
					continue
				}
				col := w.ShelfColumn(grid.VertexID(vertexAt[cur[i]]))
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
					a.dropPos = int32(leg.DropIdx)
					stats.Picks++
					break
				}
			} else if a.pos == a.dropPos && w.IsStation(grid.VertexID(vertexAt[cur[i]])) {
				k := a.carried
				stats.Delivered[k]++
				if int(k) < len(wl.Units) && stats.Delivered[k] == wl.Units[k] {
					short--
				}
				a.carried = warehouse.NoProduct
				a.dropPos = -1
			}
		}

		r := t + 1 - base
		if r == width {
			if err := emit(tile, width, width); err != nil {
				return Stats{}, err
			}
			base += width
			r = 0
		}

		// Phase 2: movement, component by component, members nearest the
		// exit first. The member just ahead is the only one that can hold
		// the next cell, so its time-t slot decides every internal shift.
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
						np := a.pos + 1
						if int(np) == len(a.cyc.Components) {
							np = 0
						}
						to := a.cyc.Components[np]
						tr := &rings[to]
						// The entry was free at t unless the member farthest
						// from that component's exit stood on it.
						if entryStamp[to] != stamp && (tr.n == 0 || cur[members[tr.tail()]] != tr.lo) {
							entryStamp[to] = stamp
							a.pos = np
							a.advanceT = t + 1
							ng = tr.lo
							handoffs = append(handoffs, handoff{from: c, to: int32(to)})
							stats.Moves++
						}
					}
				} else if ahead != g+1 {
					ng = g + 1
					stats.Moves++
				}
				nxt[i] = ng
				tile[int(i)*width+r] = warehouse.AgentState{Vertex: grid.VertexID(vertexAt[ng]), Carried: a.carried}
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

		if stats.ServicedAt < 0 && short == 0 {
			stats.ServicedAt = t + 1
		}
	}
	if err := emit(tile, width, T-base); err != nil {
		return Stats{}, err
	}
	return stats, nil
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
