package agentplan

import (
	"fmt"

	"repro/internal/cycles"
	"repro/internal/grid"
	"repro/internal/warehouse"
)

// refAgent is refRealize's per-agent state.
type refAgent struct {
	cycle   int // index into cs.Cycles
	pos     int // index into cycle.Components: the agent's current position
	vertex  grid.VertexID
	carried warehouse.ProductID
	dropPos int // leg DropIdx the agent is heading to, -1 when empty
	legIdx  int // leg being executed, -1 when empty

	advanceT int // timestep of the last component advancement
}

// refRealize is the cell-walk realization Realize replaced, kept as the
// oracle the parity tests hold Realize to (less its delivery, pick and move
// tallies, which the replay owns now): every timestep it walks every cell
// of every component, exit first, over a stamped vertex occupancy, and it
// allocates one plan row per agent.
func refRealize(cs *cycles.Set, wl warehouse.Workload, T int) (*warehouse.Plan, Stats, error) {
	s := cs.S
	w := s.W
	tc := cs.Tc
	if T < 1 {
		return nil, Stats{}, fmt.Errorf("agentplan: horizon %d too short", T)
	}
	if tc < 2 {
		return nil, Stats{}, fmt.Errorf("agentplan: cycle time %d too short", tc)
	}

	// Property 4.1 preconditions.
	if errs := cs.Check(wl); len(errs) > 0 {
		return nil, Stats{}, fmt.Errorf("agentplan: invalid cycle set: %v", errs[0])
	}

	// Instantiate agents: one per cycle position, placed on distinct cells
	// of the position's component, filling from the exit backward.
	var agents []*refAgent
	nextFree := make([]int, s.NumComponents()) // cells used so far, from exit
	for ci, cyc := range cs.Cycles {
		for pos, comp := range cyc.Components {
			cells := s.Components[comp].Cells
			slot := len(cells) - 1 - nextFree[comp]
			if slot < 0 {
				return nil, Stats{}, fmt.Errorf("agentplan: component %d overfull at initialization", comp)
			}
			nextFree[comp]++
			a := &refAgent{
				cycle:    ci,
				pos:      pos,
				vertex:   cells[slot],
				carried:  warehouse.NoProduct,
				dropPos:  -1,
				legIdx:   -1,
				advanceT: -1,
			}
			agents = append(agents, a)
		}
	}

	// Mutable pick bookkeeping.
	legQuota := make([][]int, len(cs.Cycles))
	for ci, cyc := range cs.Cycles {
		legQuota[ci] = make([]int, len(cyc.Legs))
		for li, leg := range cyc.Legs {
			legQuota[ci][li] = leg.Quota
		}
	}
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

	rows := make([][]warehouse.AgentState, len(agents))
	for i := range agents {
		rows[i] = make([]warehouse.AgentState, T)
		rows[i][0] = warehouse.AgentState{Vertex: agents[i].vertex, Carried: warehouse.NoProduct}
	}

	// Stamped occupancy arenas, pooled across runs. An entry is valid at the
	// current step iff its stamp equals the step's stamp, so no per-step
	// clearing or map allocation happens: occ* holds positions at time t,
	// new* the claims for t+1, entry* the per-component entry arbitration.
	nv := w.Graph.NumVertices()
	occVal := grid.GetInt32(nv)
	occStamp := grid.GetInt32(nv)
	newStamp := grid.GetInt32(nv)
	entryStamp := grid.GetInt32(s.NumComponents())
	defer grid.PutInt32(occVal)
	defer grid.PutInt32(occStamp)
	defer grid.PutInt32(newStamp)
	defer grid.PutInt32(entryStamp)

	for t := 0; t+1 < T; t++ {
		periodStart := (t / tc) * tc
		stamp := int32(t) + 1

		// Occupancy at time t, from the agents themselves.
		for ai, a := range agents {
			occVal[a.vertex] = int32(ai)
			occStamp[a.vertex] = stamp
		}

		// Phase 1: pick/drop decisions from positions at time t.
		for _, a := range agents {
			cyc := cs.Cycles[a.cycle]
			if a.carried == warehouse.NoProduct {
				col := w.ShelfColumn(a.vertex)
				if col < 0 {
					continue
				}
				for li := range cyc.Legs {
					leg := &cyc.Legs[li]
					if leg.PickIdx != a.pos || legQuota[a.cycle][li] <= 0 {
						continue
					}
					if stock[col*p+int(leg.Product)] <= 0 {
						continue
					}
					stock[col*p+int(leg.Product)]--
					legQuota[a.cycle][li]--
					a.carried = leg.Product
					a.dropPos = leg.DropIdx
					a.legIdx = li
					break
				}
			} else if a.pos == a.dropPos && w.IsStation(a.vertex) {
				a.carried = warehouse.NoProduct
				a.dropPos = -1
				a.legIdx = -1
			}
		}

		// Phase 2: movement, component by component, members nearest the
		// exit first. Walking each component's cells from the exit backward
		// over the time-t occupancy yields exactly that order without the
		// per-step sort the map-based version needed.
		for compID := range s.Components {
			comp := s.Components[compID]
			cells := comp.Cells
			rank := 0
			for ci := len(cells) - 1; ci >= 0; ci-- {
				v := cells[ci]
				if occStamp[v] != stamp {
					continue
				}
				ai := int(occVal[v])
				a := agents[ai]
				advanced := false
				if rank == 0 && a.vertex == comp.Exit() && a.advanceT < periodStart {
					cyc := cs.Cycles[a.cycle]
					nextPos := (a.pos + 1) % len(cyc.Components)
					nextComp := cyc.Components[nextPos]
					entry := s.Components[nextComp].Entry()
					if entryStamp[nextComp] != stamp {
						if occStamp[entry] != stamp {
							entryStamp[nextComp] = stamp
							a.pos = nextPos
							a.vertex = entry
							a.advanceT = t + 1
							advanced = true
						}
					}
				}
				if !advanced {
					// Internal shift toward the exit.
					next := s.NextCellAt(a.vertex)
					if next != grid.None {
						if occStamp[next] != stamp && newStamp[next] != stamp {
							a.vertex = next
						}
					}
				}
				newStamp[a.vertex] = stamp
				rank++
			}
		}

		for ai, a := range agents {
			rows[ai][t+1] = warehouse.AgentState{Vertex: a.vertex, Carried: a.carried}
		}
	}
	return warehouse.NewPlan(rows), Stats{Agents: len(agents)}, nil
}
