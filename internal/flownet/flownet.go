// Package flownet provides successive-shortest-path min-cost flow.
//
// The flow-synthesis pipeline uses it for the scalable strategy
// (per-product routing and empty-agent return balancing). It returns
// integral flows on integral capacities, which the pipeline relies on.
package flownet

import (
	"container/heap"
	"fmt"
	"math"
)

// Graph is a directed flow network built incrementally with AddEdge.
// Vertices are dense ints 0..n-1 chosen by the caller.
type Graph struct {
	n    int
	head [][]int32 // adjacency: vertex -> edge indices (incl. reverse edges)
	edge []edge
}

type edge struct {
	to   int32
	cap  int64 // residual capacity
	cost int64
	orig int64 // original capacity (to report flow = orig - cap)
}

// NewGraph creates a flow network with n vertices.
func NewGraph(n int) *Graph {
	return &Graph{n: n, head: make([][]int32, n)}
}

// EdgeID identifies an edge added by AddEdge.
type EdgeID int32

// AddEdge adds a directed edge u->v with the given capacity and cost and
// returns its ID. A reverse edge with zero capacity and negated cost is
// created automatically.
func (g *Graph) AddEdge(u, v int, capacity, cost int64) EdgeID {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		panic(fmt.Sprintf("flownet: edge %d->%d out of range (n=%d)", u, v, g.n))
	}
	if capacity < 0 {
		panic(fmt.Sprintf("flownet: negative capacity %d on edge %d->%d", capacity, u, v))
	}
	id := EdgeID(len(g.edge))
	g.edge = append(g.edge, edge{to: int32(v), cap: capacity, cost: cost, orig: capacity})
	g.head[u] = append(g.head[u], int32(id))
	g.edge = append(g.edge, edge{to: int32(u), cap: 0, cost: -cost, orig: 0})
	g.head[v] = append(g.head[v], int32(id)+1)
	return id
}

// Flow returns the flow currently routed through edge id.
func (g *Graph) Flow(id EdgeID) int64 { return g.edge[id].orig - g.edge[id].cap }

// MinCostFlow routes up to maxFlow units from s to t along successively
// cheapest augmenting paths (Bellman-Ford potentials, then Dijkstra). It
// returns the flow actually routed and its total cost. Negative edge costs
// are supported as long as the network has no negative cycle.
func (g *Graph) MinCostFlow(s, t int, maxFlow int64) (flow, cost int64) {
	if s == t || maxFlow <= 0 {
		return 0, 0
	}
	const inf = math.MaxInt64 / 4
	pot := make([]int64, g.n)
	// Bellman-Ford to initialize potentials (handles negative costs).
	for i := 0; i < g.n; i++ {
		updated := false
		for v := 0; v < g.n; v++ {
			if pot[v] == inf {
				continue
			}
			for _, eid := range g.head[v] {
				e := &g.edge[eid]
				if e.cap > 0 && pot[v]+e.cost < pot[e.to] {
					pot[e.to] = pot[v] + e.cost
					updated = true
				}
			}
		}
		if !updated {
			break
		}
	}
	dist := make([]int64, g.n)
	prevEdge := make([]int32, g.n)
	for flow < maxFlow {
		// Dijkstra with potentials.
		for i := range dist {
			dist[i] = inf
			prevEdge[i] = -1
		}
		dist[s] = 0
		pq := &vertexHeap{{0, int32(s)}}
		for pq.Len() > 0 {
			item := heap.Pop(pq).(vertexDist)
			v := int(item.v)
			if item.d > dist[v] {
				continue
			}
			for _, eid := range g.head[v] {
				e := &g.edge[eid]
				if e.cap <= 0 {
					continue
				}
				nd := dist[v] + e.cost + pot[v] - pot[e.to]
				if nd < dist[e.to] {
					dist[e.to] = nd
					prevEdge[e.to] = eid
					heap.Push(pq, vertexDist{nd, e.to})
				}
			}
		}
		if dist[t] >= inf {
			break // t unreachable in residual graph
		}
		for v := 0; v < g.n; v++ {
			if dist[v] < inf {
				pot[v] += dist[v]
			}
		}
		// Bottleneck along the path.
		push := maxFlow - flow
		for v := int32(t); v != int32(s); {
			e := &g.edge[prevEdge[v]]
			push = min(push, e.cap)
			v = g.edge[prevEdge[v]^1].to
		}
		for v := int32(t); v != int32(s); {
			eid := prevEdge[v]
			g.edge[eid].cap -= push
			g.edge[eid^1].cap += push
			cost += push * g.edge[eid].cost
			v = g.edge[eid^1].to
		}
		flow += push
	}
	return flow, cost
}

type vertexDist struct {
	d int64
	v int32
}

type vertexHeap []vertexDist

func (h vertexHeap) Len() int            { return len(h) }
func (h vertexHeap) Less(i, j int) bool  { return h[i].d < h[j].d }
func (h vertexHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *vertexHeap) Push(x interface{}) { *h = append(*h, x.(vertexDist)) }
func (h *vertexHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
