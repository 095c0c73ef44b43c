package flownet

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// The MaxFlow tests ask MinCostFlow for more than the network carries on
// zero-cost edges, so it routes the maximum flow.

func TestMaxFlowClassic(t *testing.T) {
	// CLRS-style example with max flow 23.
	g := NewGraph(6)
	g.AddEdge(0, 1, 16, 0)
	g.AddEdge(0, 2, 13, 0)
	g.AddEdge(1, 2, 10, 0)
	g.AddEdge(2, 1, 4, 0)
	g.AddEdge(1, 3, 12, 0)
	g.AddEdge(3, 2, 9, 0)
	g.AddEdge(2, 4, 14, 0)
	g.AddEdge(4, 3, 7, 0)
	g.AddEdge(3, 5, 20, 0)
	g.AddEdge(4, 5, 4, 0)
	if got, _ := g.MinCostFlow(0, 5, 1<<30); got != 23 {
		t.Errorf("MinCostFlow = %d, want the max flow 23", got)
	}
}

func TestMaxFlowDisconnected(t *testing.T) {
	g := NewGraph(4)
	g.AddEdge(0, 1, 5, 0)
	g.AddEdge(2, 3, 5, 0)
	if got, _ := g.MinCostFlow(0, 3, 1<<30); got != 0 {
		t.Errorf("MinCostFlow = %d, want 0", got)
	}
}

func TestMaxFlowSelfTarget(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 5, 0)
	if got, _ := g.MinCostFlow(0, 0, 1<<30); got != 0 {
		t.Errorf("MinCostFlow(s,s) = %d, want 0", got)
	}
}

func TestAddEdgePanics(t *testing.T) {
	g := NewGraph(2)
	for _, fn := range []func(){
		func() { g.AddEdge(-1, 0, 1, 0) },
		func() { g.AddEdge(0, 2, 1, 0) },
		func() { g.AddEdge(0, 1, -1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("AddEdge with bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestMinCostFlowPrefersCheapPath(t *testing.T) {
	// Two parallel 2-hop routes; the cheap one saturates first.
	g := NewGraph(4)
	g.AddEdge(0, 1, 2, 1)
	g.AddEdge(1, 3, 2, 1)
	g.AddEdge(0, 2, 2, 5)
	g.AddEdge(2, 3, 2, 5)
	flow, cost := g.MinCostFlow(0, 3, 3)
	if flow != 3 {
		t.Fatalf("flow = %d, want 3", flow)
	}
	if want := int64(2*2 + 1*10); cost != want {
		t.Errorf("cost = %d, want %d", cost, want)
	}
}

func TestMinCostFlowPartial(t *testing.T) {
	g := NewGraph(3)
	g.AddEdge(0, 1, 1, 2)
	g.AddEdge(1, 2, 1, 2)
	flow, cost := g.MinCostFlow(0, 2, 10)
	if flow != 1 || cost != 4 {
		t.Errorf("(flow,cost) = (%d,%d), want (1,4)", flow, cost)
	}
}

func TestMinCostFlowNegativeEdge(t *testing.T) {
	// Route of cost 1 + (-3) = -2 beats direct cost 0 edge.
	g := NewGraph(3)
	g.AddEdge(0, 2, 1, 0)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(1, 2, 1, -3)
	flow, cost := g.MinCostFlow(0, 2, 1)
	if flow != 1 || cost != -2 {
		t.Errorf("(flow,cost) = (%d,%d), want (1,-2)", flow, cost)
	}
}

func TestMinCostFlowZeroRequest(t *testing.T) {
	g := NewGraph(2)
	g.AddEdge(0, 1, 1, 1)
	if f, c := g.MinCostFlow(0, 1, 0); f != 0 || c != 0 {
		t.Errorf("(flow,cost) = (%d,%d), want (0,0)", f, c)
	}
}

// conservationOK verifies flow conservation at every vertex except s and t.
func conservationOK(g *Graph, s, t int) bool {
	net := make([]int64, g.n)
	for u := 0; u < g.n; u++ {
		for _, eid := range g.head[u] {
			if eid%2 != 0 {
				continue // skip reverse edges
			}
			f := g.Flow(EdgeID(eid))
			net[u] -= f
			net[g.edge[eid].to] += f
		}
	}
	for v, n := range net {
		if v == s || v == t {
			continue
		}
		if n != 0 {
			return false
		}
	}
	return true
}

// bruteMaxFlow computes max flow by repeated DFS augmentation on a tiny
// adjacency-matrix network (reference implementation).
func bruteMaxFlow(capm [][]int64, s, t int) int64 {
	n := len(capm)
	res := make([][]int64, n)
	for i := range res {
		res[i] = append([]int64(nil), capm[i]...)
	}
	var total int64
	for {
		// BFS for any augmenting path.
		prev := make([]int, n)
		for i := range prev {
			prev[i] = -1
		}
		prev[s] = s
		queue := []int{s}
		for len(queue) > 0 && prev[t] < 0 {
			v := queue[0]
			queue = queue[1:]
			for u := 0; u < n; u++ {
				if res[v][u] > 0 && prev[u] < 0 {
					prev[u] = v
					queue = append(queue, u)
				}
			}
		}
		if prev[t] < 0 {
			return total
		}
		push := int64(1 << 62)
		for v := t; v != s; v = prev[v] {
			if res[prev[v]][v] < push {
				push = res[prev[v]][v]
			}
		}
		for v := t; v != s; v = prev[v] {
			res[prev[v]][v] -= push
			res[v][prev[v]] += push
		}
		total += push
	}
}

// Property: min-cost flow asked for more than the network carries routes
// the brute-force maximum flow, conserving it at every inner vertex.
func TestMinCostFlowRoutesMaxFlow(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		capm := make([][]int64, n)
		for i := range capm {
			capm[i] = make([]int64, n)
		}
		gMin := NewGraph(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && rng.Intn(2) == 0 {
					c := int64(rng.Intn(10))
					w := int64(rng.Intn(5))
					capm[i][j] += c
					gMin.AddEdge(i, j, c, w)
				}
			}
		}
		s, tt := 0, n-1
		want := bruteMaxFlow(capm, s, tt)
		got, _ := gMin.MinCostFlow(s, tt, 1<<30)
		return got == want && conservationOK(gMin, s, tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
