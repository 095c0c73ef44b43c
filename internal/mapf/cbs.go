package mapf

import (
	"fmt"

	"repro/internal/grid"
)

// ECBS runs bounded-suboptimal conflict-based search with suboptimality
// factor w ≥ 1: both levels use focal lists preferring fewer conflicts
// among candidates within factor w of the best. This is the EECBS-family
// configuration the paper benchmarks against. At w = 1 it is optimal
// conflict-based search (CBS): a constraint tree whose low level is
// single-agent space-time A*. It supports goal sequences per agent.
func ECBS(g *grid.Grid, starts []grid.VertexID, goals [][]grid.VertexID, w float64, lim Limits) (*Solution, error) {
	if w < 1 {
		return nil, fmt.Errorf("mapf: suboptimality factor %v < 1", w)
	}
	return ecbs(g, starts, goals, lim, w)
}

// cbsNode is one constraint-tree node. Constraints are stored as a parent
// chain to avoid copying sets on every branch.
type cbsNode struct {
	parent   *cbsNode
	agent    int        // agent the new constraint applies to (-1 at root)
	con      constraint // the added constraint
	paths    []Path
	cost     int
	nConflic int
}

// constraintsFor collects the constraint set of one agent along the chain.
func (n *cbsNode) constraintsFor(agent int) constraintSet {
	cs := make(constraintSet)
	for cur := n; cur != nil; cur = cur.parent {
		if cur.agent == agent {
			cs[cur.con] = true
		}
	}
	return cs
}

type conflictInfo struct {
	i, j int // agents
	v    grid.VertexID
	u    grid.VertexID // grid.None for vertex conflicts; else edge u->v for i
	t    int
}

// findConflict returns the earliest conflict between any two paths, or nil.
func findConflict(paths []Path) *conflictInfo {
	maxLen := 0
	for _, p := range paths {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	for t := 0; t < maxLen; t++ {
		occupied := make(map[grid.VertexID]int)
		for i, p := range paths {
			v := p.Vertex(t)
			if j, ok := occupied[v]; ok {
				return &conflictInfo{i: j, j: i, v: v, u: grid.None, t: t}
			}
			occupied[v] = i
		}
		if t == 0 {
			continue
		}
		for i := range paths {
			vi, pi := paths[i].Vertex(t), paths[i].Vertex(t-1)
			if vi == pi {
				continue
			}
			for j := i + 1; j < len(paths); j++ {
				if paths[j].Vertex(t) == pi && paths[j].Vertex(t-1) == vi {
					return &conflictInfo{i: i, j: j, v: vi, u: pi, t: t}
				}
			}
		}
	}
	return nil
}

// countConflicts totals pairwise conflicts (for the high-level focal key).
func countConflicts(paths []Path) int {
	maxLen := 0
	for _, p := range paths {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	n := 0
	for t := 0; t < maxLen; t++ {
		occupied := make(map[grid.VertexID]int)
		for _, p := range paths {
			v := p.Vertex(t)
			occupied[v]++
		}
		for _, c := range occupied {
			if c > 1 {
				n += c - 1
			}
		}
	}
	return n
}

func ecbs(g *grid.Grid, starts []grid.VertexID, goals [][]grid.VertexID, lim Limits, w float64) (*Solution, error) {
	if len(starts) != len(goals) {
		return nil, fmt.Errorf("mapf: %d starts for %d goal sequences", len(starts), len(goals))
	}
	h := newHeuristic(g)
	budget := lim.expansions()
	horizon := lim.horizon(g)
	sol := &Solution{}

	// conflictFn counts collisions of a candidate move against the other
	// agents' current paths; used by the low-level focal search.
	makeConflictFn := func(paths []Path, self int) func(u, v grid.VertexID, t int) int32 {
		if w <= 1 {
			return nil
		}
		return func(u, v grid.VertexID, t int) int32 {
			var c int32
			for j, p := range paths {
				if j == self || len(p) == 0 {
					continue
				}
				if p.Vertex(t) == v {
					c++
				}
				if u != v && p.Vertex(t) == u && p.Vertex(t-1) == v {
					c++
				}
			}
			return c
		}
	}

	replan := func(node *cbsNode, agent int) (Path, error) {
		before := budget
		p, err := planPath(planParams{
			g: g, h: h,
			start: starts[agent], goals: goals[agent],
			cons: node.constraintsFor(agent), horizon: horizon, budget: &budget,
			conflict: makeConflictFn(node.paths, agent), w: w,
		})
		sol.Expansions += before - budget
		return p, err
	}

	root := &cbsNode{agent: -1, paths: make([]Path, len(starts))}
	for i := range starts {
		p, err := replan(root, i)
		if err != nil {
			return sol, err
		}
		if p == nil {
			return sol, fmt.Errorf("mapf: agent %d has no path at the CBS root", i)
		}
		root.paths[i] = p
		root.cost += p.Cost()
	}
	root.nConflic = countConflicts(root.paths)

	open := []*cbsNode{root}
	for len(open) > 0 {
		sol.HighLevelNodes++
		// Select: min cost, or (ECBS) min conflicts within w * minCost.
		minCost := open[0].cost
		for _, n := range open {
			if n.cost < minCost {
				minCost = n.cost
			}
		}
		bestIdx := -1
		for i, n := range open {
			if w > 1 && float64(n.cost) > w*float64(minCost) {
				continue
			}
			if bestIdx < 0 {
				bestIdx = i
				continue
			}
			b := open[bestIdx]
			if w > 1 {
				if n.nConflic < b.nConflic || (n.nConflic == b.nConflic && n.cost < b.cost) {
					bestIdx = i
				}
			} else if n.cost < b.cost {
				bestIdx = i
			}
		}
		node := open[bestIdx]
		open = append(open[:bestIdx], open[bestIdx+1:]...)

		conf := findConflict(node.paths)
		if conf == nil {
			sol.Paths = node.paths
			return sol, nil
		}
		if budget <= 0 {
			return sol, fmt.Errorf("mapf: high-level search budget spent on %d conflicts: %w", sol.HighLevelNodes, ErrExpansionLimit)
		}
		// Branch: forbid the conflict for each involved agent in turn.
		for _, side := range [2]struct {
			agent int
			con   constraint
		}{
			{conf.i, vertexOrEdgeConstraint(conf, true)},
			{conf.j, vertexOrEdgeConstraint(conf, false)},
		} {
			child := &cbsNode{
				parent: node,
				agent:  side.agent,
				con:    side.con,
				paths:  append([]Path(nil), node.paths...),
			}
			p, err := replan(child, side.agent)
			if err != nil {
				return sol, err
			}
			if p == nil {
				continue // this branch is infeasible
			}
			child.paths[side.agent] = p
			for _, q := range child.paths {
				child.cost += q.Cost()
			}
			child.nConflic = countConflicts(child.paths)
			open = append(open, child)
		}
	}
	return sol, fmt.Errorf("mapf: CBS tree exhausted without a solution")
}

// vertexOrEdgeConstraint converts a conflict into the constraint for one of
// its two agents. Vertex conflicts block (v, t) for both; edge conflicts
// block the traversal direction each agent used.
func vertexOrEdgeConstraint(c *conflictInfo, first bool) constraint {
	if c.u == grid.None {
		return constraint{From: grid.None, V: c.v, T: c.t}
	}
	if first {
		// Agent i moved u -> v arriving at t.
		return constraint{From: c.u, V: c.v, T: c.t}
	}
	// Agent j moved v -> u arriving at t.
	return constraint{From: c.v, V: c.u, T: c.t}
}
