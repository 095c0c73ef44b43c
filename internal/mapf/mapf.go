// Package mapf implements search-based multi-agent path finding: the
// algorithm family of the paper's comparison baseline, Iterated EECBS [4].
//
// ECBS(w) is conflict-based search with vertex and edge constraints, run
// as a focal search on both levels: it accepts solutions within factor w of
// optimal while preferring low-conflict nodes, and at w = 1 it is optimal
// CBS for single-goal agents. Iterated ECBS (lifelong.go) replans with it
// over a sliding window, which is how such solvers are deployed on
// warehouse instances.
//
// The evaluation uses these planners to reproduce the §V scaling claim: the
// runtime of search-based planners grows super-linearly with team size,
// while the contract-based pipeline stays nearly flat.
package mapf

import (
	"errors"
	"fmt"

	"repro/internal/grid"
)

// Path is one agent's trajectory: position per timestep (index 0 = start).
// Agents that finish early park at their final vertex; Vertex(t) extends the
// path accordingly.
type Path []grid.VertexID

// Vertex returns the agent's position at time t, extending the final
// position for t beyond the path's end.
func (p Path) Vertex(t int) grid.VertexID {
	if len(p) == 0 {
		return grid.None
	}
	if t >= len(p) {
		return p[len(p)-1]
	}
	return p[t]
}

// Cost is the path's travel cost: the index of the last timestep at which
// the agent moves (the standard sum-of-costs component).
func (p Path) Cost() int {
	last := 0
	for t := 1; t < len(p); t++ {
		if p[t] != p[t-1] {
			last = t
		}
	}
	return last
}

// Solution bundles the paths of all agents plus search-effort counters.
type Solution struct {
	Paths []Path
	// Expansions counts low-level A* state expansions (the search-effort
	// metric used by the scaling benches).
	Expansions int
	// HighLevelNodes counts CBS constraint-tree nodes.
	HighLevelNodes int
}

// SumOfCosts is the standard MAPF objective.
func (s *Solution) SumOfCosts() int {
	total := 0
	for _, p := range s.Paths {
		total += p.Cost()
	}
	return total
}

// Validate checks the solution for vertex conflicts, edge swaps, and
// movement discontinuities over the given horizon.
func (s *Solution) Validate(g *grid.Grid, horizon int) error {
	for i, p := range s.Paths {
		for t := 1; t < len(p); t++ {
			if p[t] != p[t-1] && !g.Adjacent(p[t-1], p[t]) {
				return fmt.Errorf("mapf: agent %d teleports at t=%d", i, t)
			}
		}
	}
	for t := 0; t <= horizon; t++ {
		seen := make(map[grid.VertexID]int)
		for i, p := range s.Paths {
			v := p.Vertex(t)
			if j, ok := seen[v]; ok {
				return fmt.Errorf("mapf: agents %d and %d collide at vertex %d t=%d", j, i, v, t)
			}
			seen[v] = i
		}
		if t == 0 {
			continue
		}
		for i := range s.Paths {
			for j := i + 1; j < len(s.Paths); j++ {
				if s.Paths[i].Vertex(t) == s.Paths[j].Vertex(t-1) &&
					s.Paths[j].Vertex(t) == s.Paths[i].Vertex(t-1) &&
					s.Paths[i].Vertex(t) != s.Paths[i].Vertex(t-1) {
					return fmt.Errorf("mapf: agents %d and %d swap at t=%d", i, j, t)
				}
			}
		}
	}
	return nil
}

// Limits bounds planner effort.
type Limits struct {
	// MaxExpansions aborts the search once this many low-level states have
	// been expanded (0 = 5,000,000).
	MaxExpansions int
	// Horizon bounds plan length in timesteps (0 = 4 × grid size).
	Horizon int
}

func (l Limits) expansions() int {
	if l.MaxExpansions == 0 {
		return 5_000_000
	}
	return l.MaxExpansions
}

func (l Limits) horizon(g *grid.Grid) int {
	if l.Horizon == 0 {
		return 4 * g.NumVertices()
	}
	return l.Horizon
}

// ErrExpansionLimit is the sentinel for a planner exhausting its search
// budget — the "failed to terminate" outcome the paper reports for the
// baseline. Planners return it wrapped with %w and stage context; classify
// with errors.Is(err, ErrExpansionLimit), never by equality or message.
var ErrExpansionLimit = errors.New("mapf: expansion limit exhausted")
