package sim

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/warehouse"
)

// Failure freezes one agent in place: from wall timestep At, agent Agent
// does not move for Duration steps (0 = forever). Frozen agents still
// occupy their cell, so followers queue up behind them.
type Failure struct {
	Agent    int
	At       int
	Duration int
}

// ExecResult reports an ExecuteMCP run.
type ExecResult struct {
	// Delivered counts units dropped at stations per product.
	Delivered []int
	// ServicedAt is the wall timestep the workload completed, or -1.
	ServicedAt int
	// Dilation is wall steps used minus the plan's horizon (≥ 0 when
	// failures delay execution; execution without failures tracks the plan
	// exactly, so dilation 0).
	Dilation int
	// Stalled reports that execution reached a state where no agent could
	// ever move again before the workload completed.
	Stalled bool
	// Waits counts agent-steps spent blocked behind another agent.
	Waits int
}

// ExecuteMCP replays a plan under the minimal-communication execution
// policy: each agent follows its planned cell sequence in order, advancing
// one step per wall timestep whenever its next planned cell is free, and
// waiting otherwise. Product state transitions (pickups and drop-offs)
// happen at the plan indices they were recorded at, so delays never corrupt
// stock accounting. Because the underlying plan is collision-free, the
// policy preserves safety under arbitrary delays — which is what makes the
// failure-injection analysis meaningful.
//
// maxWall bounds the wall clock (0 = 4× the plan horizon).
func ExecuteMCP(w *warehouse.Warehouse, plan *warehouse.Plan, wl warehouse.Workload, failures []Failure, maxWall int) (ExecResult, error) {
	c := plan.NumAgents()
	T := plan.Horizon()
	res := ExecResult{
		Delivered:  make([]int, w.NumProducts),
		ServicedAt: -1,
	}
	if T == 0 || c == 0 {
		if wl.TotalUnits() == 0 {
			res.ServicedAt = 0
		}
		return res, nil
	}
	if maxWall == 0 {
		maxWall = 4 * T
	}
	for _, f := range failures {
		if f.Agent < 0 || f.Agent >= c {
			return res, fmt.Errorf("sim: failure references agent %d of %d", f.Agent, c)
		}
	}

	// Compress each agent's plan into its sequence of distinct cells, with
	// the product transitions attached to the step at which they occur.
	type step struct {
		v       grid.VertexID
		carried warehouse.ProductID
		deliver warehouse.ProductID // product delivered on arrival, or NoProduct
	}
	seqs := make([][]step, c)
	for i, row := range plan.Rows() {
		st := row[0]
		seqs[i] = []step{{v: st.Vertex, carried: st.Carried, deliver: warehouse.NoProduct}}
		for t := 1; t < T; t++ {
			cur := row[t]
			prev := row[t-1]
			deliver := warehouse.NoProduct
			if prev.Carried != warehouse.NoProduct && cur.Carried == warehouse.NoProduct && w.IsStation(prev.Vertex) {
				deliver = prev.Carried
			}
			if cur.Vertex != prev.Vertex {
				seqs[i] = append(seqs[i], step{v: cur.Vertex, carried: cur.Carried, deliver: deliver})
			} else if deliver != warehouse.NoProduct || cur.Carried != prev.Carried {
				// Stationary product transition: attach it to the current
				// sequence tail by recording a zero-move step.
				seqs[i] = append(seqs[i], step{v: cur.Vertex, carried: cur.Carried, deliver: deliver})
			}
		}
	}

	// Dense occupancy: occ[v] holds agent index + 1, 0 means free. The
	// buffer is pooled across runs (and across Solve retries).
	nv := w.Graph.NumVertices()
	for i := 0; i < c; i++ {
		for _, s := range seqs[i] {
			if s.v < 0 || int(s.v) >= nv {
				return res, fmt.Errorf("sim: agent %d plan vertex %d out of range", i, s.v)
			}
		}
	}
	idx := make([]int, c)
	occ := grid.GetInt32(nv)
	defer grid.PutInt32(occ)
	for i := 0; i < c; i++ {
		occ[seqs[i][0].v] = int32(i) + 1
	}
	serviced := func() bool {
		for k, want := range wl.Units {
			if res.Delivered[k] < want {
				return false
			}
		}
		return true
	}
	applyArrival := func(i int) {
		s := seqs[i][idx[i]]
		if s.deliver != warehouse.NoProduct {
			res.Delivered[s.deliver]++
		}
	}
	if serviced() {
		res.ServicedAt = 0
	}

	frozen := func(i, wall int) bool {
		for _, f := range failures {
			if f.Agent != i {
				continue
			}
			if wall >= f.At && (f.Duration == 0 || wall < f.At+f.Duration) {
				return true
			}
		}
		return false
	}

	for wall := 1; wall <= maxWall; wall++ {
		movedAny := false
		for i := 0; i < c; i++ {
			if idx[i]+1 >= len(seqs[i]) || frozen(i, wall) {
				continue
			}
			next := seqs[i][idx[i]+1]
			if next.v != seqs[i][idx[i]].v {
				if holder := occ[next.v]; holder != 0 && int(holder)-1 != i {
					res.Waits++
					continue
				}
				occ[seqs[i][idx[i]].v] = 0
				occ[next.v] = int32(i) + 1
			}
			idx[i]++
			applyArrival(i)
			movedAny = true
		}
		if res.ServicedAt < 0 && serviced() {
			res.ServicedAt = wall
			res.Dilation = wall - T
			if res.Dilation < 0 {
				res.Dilation = 0
			}
			return res, nil
		}
		if !movedAny {
			// No progress. If every mobile agent is permanently blocked the
			// state can never change; with temporary failures it may.
			if stable(failures, wall) {
				res.Stalled = true
				return res, nil
			}
		}
	}
	res.Dilation = maxWall - T
	if res.Dilation < 0 {
		res.Dilation = 0
	}
	return res, nil
}

// stable reports whether no frozen agent will ever unfreeze after wall.
func stable(failures []Failure, wall int) bool {
	for _, f := range failures {
		if f.Duration != 0 && f.At+f.Duration > wall {
			return false
		}
	}
	return true
}
