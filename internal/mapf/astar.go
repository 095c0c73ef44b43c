package mapf

import (
	"container/heap"
	"fmt"

	"repro/internal/grid"
)

// constraint forbids an agent from occupying vertex V at time T (edge From
// set to None) or from traversing From->V arriving at T.
type constraint struct {
	From grid.VertexID // grid.None for vertex constraints
	V    grid.VertexID
	T    int
}

type constraintSet map[constraint]bool

func (cs constraintSet) blocked(u, v grid.VertexID, t int) bool {
	if cs == nil {
		return false
	}
	if cs[constraint{grid.None, v, t}] {
		return true
	}
	if u != v && cs[constraint{u, v, t}] {
		return true
	}
	return false
}

// heuristic caches true-distance BFS fields toward goals.
type heuristic struct {
	g     *grid.Grid
	cache map[grid.VertexID][]int
}

func newHeuristic(g *grid.Grid) *heuristic {
	return &heuristic{g: g, cache: make(map[grid.VertexID][]int)}
}

// to returns the true shortest-path distance from v to goal (-1 if
// unreachable).
func (h *heuristic) to(goal, v grid.VertexID) int {
	d, ok := h.cache[goal]
	if !ok {
		d = h.g.BFS(goal)
		h.cache[goal] = d
	}
	return d[v]
}

// chain returns the distance of completing goals[idx:] starting at v:
// v -> goals[idx] -> goals[idx+1] -> ...
func (h *heuristic) chain(goals []grid.VertexID, idx int, v grid.VertexID) int {
	if idx >= len(goals) {
		return 0
	}
	total := h.to(goals[idx], v)
	if total < 0 {
		return -1
	}
	for i := idx + 1; i < len(goals); i++ {
		d := h.to(goals[i], goals[i-1])
		if d < 0 {
			return -1
		}
		total += d
	}
	return total
}

// stState is a space-time A* search state.
type stState struct {
	v       grid.VertexID
	t       int32
	goalIdx int16
}

type stNode struct {
	state     stState
	g, f      int32
	conflicts int32 // secondary key for focal search
	parent    *stNode
	heapIdx   int
}

type stHeap []*stNode

func (h stHeap) Len() int { return len(h) }
func (h stHeap) Less(i, j int) bool {
	if h[i].f != h[j].f {
		return h[i].f < h[j].f
	}
	if h[i].conflicts != h[j].conflicts {
		return h[i].conflicts < h[j].conflicts
	}
	return h[i].g > h[j].g // deeper first among ties
}
func (h stHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx = i
	h[j].heapIdx = j
}
func (h *stHeap) Push(x interface{}) {
	n := x.(*stNode)
	n.heapIdx = len(*h)
	*h = append(*h, n)
}
func (h *stHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// planParams bundles the inputs of one low-level search.
type planParams struct {
	g        *grid.Grid
	h        *heuristic
	start    grid.VertexID
	goals    []grid.VertexID
	cons     constraintSet // may be nil
	horizon  int
	budget   *int // decremented per expansion; abort at 0
	conflict func(u, v grid.VertexID, t int) int32
	w        float64 // suboptimality factor for focal; <=1 disables
}

// planPath runs space-time A* through the goal sequence. It returns nil if
// no path exists within the horizon, and ErrExpansionLimit via the budget
// pointer semantics (budget reaching zero).
func planPath(p planParams) (Path, error) {
	if len(p.goals) == 0 {
		return Path{p.start}, nil
	}
	startState := stState{p.start, 0, 0}
	if p.start == p.goals[0] {
		startState.goalIdx = advanceGoals(p.goals, 0, p.start)
	}
	h0 := p.h.chain(p.goals, int(startState.goalIdx), p.start)
	if h0 < 0 {
		return nil, nil
	}
	open := &stHeap{}
	best := make(map[stState]int32)
	root := &stNode{state: startState, g: 0, f: int32(h0)}
	heap.Push(open, root)
	best[startState] = 0

	for open.Len() > 0 {
		node := pickNode(open, p.w)
		if int(node.state.goalIdx) >= len(p.goals) {
			return extractPath(node), nil
		}
		if *p.budget <= 0 {
			return nil, fmt.Errorf("mapf: low-level search budget spent: %w", ErrExpansionLimit)
		}
		*p.budget--
		if int(node.state.t) >= p.horizon {
			continue
		}
		u := node.state.v
		t := int(node.state.t) + 1
		moves := []grid.VertexID{u}
		moves = p.g.Neighbors(u, moves)
		for _, v := range moves {
			if p.cons.blocked(u, v, t) {
				continue
			}
			gi := advanceGoals(p.goals, node.state.goalIdx, v)
			ns := stState{v, int32(t), gi}
			ng := node.g + 1
			if prev, ok := best[ns]; ok && prev <= ng {
				continue
			}
			hv := p.h.chain(p.goals, int(gi), v)
			if hv < 0 {
				continue
			}
			best[ns] = ng
			child := &stNode{state: ns, g: ng, f: ng + int32(hv), parent: node}
			child.conflicts = node.conflicts
			if p.conflict != nil {
				child.conflicts += p.conflict(u, v, t)
			}
			heap.Push(open, child)
		}
	}
	return nil, nil
}

// advanceGoals returns the goal index after arriving at v with current
// index idx (consecutive identical goals all advance).
func advanceGoals(goals []grid.VertexID, idx int16, v grid.VertexID) int16 {
	for int(idx) < len(goals) && goals[idx] == v {
		idx++
	}
	return idx
}

// pickNode pops the best node: plain A* when w <= 1, otherwise a focal
// search preferring the fewest conflicts among nodes with f ≤ w·fmin.
func pickNode(open *stHeap, w float64) *stNode {
	if w <= 1 || open.Len() == 1 {
		return heap.Pop(open).(*stNode)
	}
	bound := int32(float64((*open)[0].f) * w)
	bestIdx := 0
	bestConf := (*open)[0].conflicts
	// The heap slice is not sorted, but every member's f is ≥ the root's;
	// scan for focal members. This is O(n) per pop, acceptable for the
	// baseline's role as a comparator.
	for i := 1; i < open.Len(); i++ {
		n := (*open)[i]
		if n.f <= bound && n.conflicts < bestConf {
			bestIdx, bestConf = i, n.conflicts
		}
	}
	n := (*open)[bestIdx]
	heap.Remove(open, bestIdx)
	return n
}

func extractPath(node *stNode) Path {
	var rev Path
	for n := node; n != nil; n = n.parent {
		rev = append(rev, n.state.v)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}
