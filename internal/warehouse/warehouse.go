// Package warehouse implements the automated-warehouse model of §III of
// Leet et al. (DATE 2023): the 5-tuple W = (G, S, R, ρ, Λ), workloads, and
// T-timestep plans with the paper's three feasibility conditions.
package warehouse

import (
	"fmt"
	"sync"

	"repro/internal/grid"
)

// ProductID indexes the product vector ρ. The sentinel NoProduct (ρ0 in the
// paper) means "agent carries nothing".
type ProductID int

// NoProduct is ρ0: the empty-handed marker.
const NoProduct ProductID = -1

// Warehouse is the 5-tuple W := (G, S, R, ρ, Λ).
type Warehouse struct {
	// Graph is the floorplan graph G = (V, E).
	Graph *grid.Grid
	// ShelfAccess lists S ⊂ V, vertices from which an agent can access a
	// shelf. Order is significant: it is the column index of Λ.
	ShelfAccess []grid.VertexID
	// Stations lists R ⊂ V, vertices where workers unload agents.
	Stations []grid.VertexID
	// NumProducts is |ρ|. Products are identified by 0..NumProducts-1.
	NumProducts int
	// Stock is the location matrix Λ: Stock[k][l] is the number of units of
	// product k available at shelf-access vertex ShelfAccess[l]. A row may be
	// nil, meaning the product is stocked nowhere.
	Stock [][]int

	shelfCol  []int32 // vertex -> column of Λ, -1 if v ∉ S
	isStation []bool  // vertex -> v ∈ R
}

// New validates and indexes a warehouse description.
func New(g *grid.Grid, shelfAccess, stations []grid.VertexID, numProducts int, stock [][]int) (*Warehouse, error) {
	if g == nil {
		return nil, fmt.Errorf("warehouse: nil grid")
	}
	if numProducts < 0 {
		return nil, fmt.Errorf("warehouse: negative product count %d", numProducts)
	}
	if len(stock) != numProducts {
		return nil, fmt.Errorf("warehouse: stock has %d rows, want %d", len(stock), numProducts)
	}
	w := &Warehouse{
		Graph:       g,
		ShelfAccess: shelfAccess,
		Stations:    stations,
		NumProducts: numProducts,
		Stock:       stock,
		shelfCol:    make([]int32, g.NumVertices()),
		isStation:   make([]bool, g.NumVertices()),
	}
	for i := range w.shelfCol {
		w.shelfCol[i] = -1
	}
	for i, v := range shelfAccess {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, fmt.Errorf("warehouse: shelf access vertex %d out of range", v)
		}
		if w.shelfCol[v] >= 0 {
			return nil, fmt.Errorf("warehouse: duplicate shelf access vertex %d", v)
		}
		w.shelfCol[v] = int32(i)
	}
	for _, v := range stations {
		if v < 0 || int(v) >= g.NumVertices() {
			return nil, fmt.Errorf("warehouse: station vertex %d out of range", v)
		}
		if w.isStation[v] {
			return nil, fmt.Errorf("warehouse: duplicate station vertex %d", v)
		}
		if w.shelfCol[v] >= 0 {
			return nil, fmt.Errorf("warehouse: vertex %d is both shelf access and station", v)
		}
		w.isStation[v] = true
	}
	for k, row := range stock {
		if row == nil {
			continue
		}
		if len(row) != len(shelfAccess) {
			return nil, fmt.Errorf("warehouse: stock row %d has %d columns, want %d", k, len(row), len(shelfAccess))
		}
		for l, units := range row {
			if units < 0 {
				return nil, fmt.Errorf("warehouse: negative stock Λ[%d][%d] = %d", k, l, units)
			}
		}
	}
	return w, nil
}

// IsStation reports whether v ∈ R.
func (w *Warehouse) IsStation(v grid.VertexID) bool {
	return v >= 0 && int(v) < len(w.isStation) && w.isStation[v]
}

// ShelfColumn returns the Λ column of shelf-access vertex v, or -1 if v ∉ S.
func (w *Warehouse) ShelfColumn(v grid.VertexID) int {
	if v < 0 || int(v) >= len(w.shelfCol) {
		return -1
	}
	return int(w.shelfCol[v])
}

// UnitsAt returns Λ[k][column of v]: the stock of product k at shelf-access
// vertex v, or 0 if v ∉ S or the product is unstocked.
func (w *Warehouse) UnitsAt(v grid.VertexID, k ProductID) int {
	col := w.ShelfColumn(v)
	if col < 0 || k < 0 || int(k) >= w.NumProducts {
		return 0
	}
	row := w.Stock[k]
	if row == nil {
		return 0
	}
	return row[col]
}

// TotalStock returns the total units of product k across all shelves.
func (w *Warehouse) TotalStock(k ProductID) int {
	if k < 0 || int(k) >= w.NumProducts {
		return 0
	}
	row := w.Stock[k]
	total := 0
	for _, u := range row {
		total += u
	}
	return total
}

// Workload is the demand vector w: Units[k] units of product k must reach a
// station.
type Workload struct {
	Units []int
}

// NewWorkload validates a demand vector against the warehouse: demands must
// be non-negative, one per product, and not exceed total stock.
func NewWorkload(w *Warehouse, units []int) (Workload, error) {
	if len(units) != w.NumProducts {
		return Workload{}, fmt.Errorf("workload: %d demands for %d products", len(units), w.NumProducts)
	}
	for k, u := range units {
		if u < 0 {
			return Workload{}, fmt.Errorf("workload: negative demand %d for product %d", u, k)
		}
		if stock := w.TotalStock(ProductID(k)); u > stock {
			return Workload{}, fmt.Errorf("workload: demand %d for product %d exceeds stock %d", u, k, stock)
		}
	}
	return Workload{Units: append([]int(nil), units...)}, nil
}

// TotalUnits returns Σk w_k, the units-moved figure reported in Table I.
func (wl Workload) TotalUnits() int {
	total := 0
	for _, u := range wl.Units {
		total += u
	}
	return total
}

// AgentState is (π, φ): an agent's vertex and carried product at one step.
type AgentState struct {
	Vertex  grid.VertexID
	Carried ProductID
}

// Plan is a T-timestep plan (π, φ) for c agents: Rows()[i][t] is agent i's
// state at timestep t (0-based; the paper's t ∈ [1, T] maps to t-1 here).
// The zero Plan has no agents and no timesteps.
//
// A deferred plan (NewDeferredPlan) knows its size up front and builds its
// rows on the first Rows call, so a caller that never reads them never pays
// for the agents × T states.
type Plan struct {
	agents, horizon int
	rows            [][]AgentState
	build           func() [][]AgentState // nil for a plan built eagerly
	once            sync.Once
}

// NewPlan returns the plan whose agent i has states rows[i]. Its horizon is
// the length of the first row; ReplayPlan reports rows of other lengths.
func NewPlan(rows [][]AgentState) *Plan {
	p := &Plan{agents: len(rows), rows: rows}
	if len(rows) > 0 {
		p.horizon = len(rows[0])
	}
	return p
}

// NewDeferredPlan returns a plan of agents agents over horizon timesteps
// whose rows build returns, called once, on the first Rows call. build must
// return agents rows of horizon states each.
func NewDeferredPlan(agents, horizon int, build func() [][]AgentState) *Plan {
	return &Plan{agents: agents, horizon: horizon, build: build}
}

// Rows returns every agent's states, building a deferred plan's rows on the
// first call; concurrent calls are safe. The rows are the plan's own
// storage, not a copy.
func (p *Plan) Rows() [][]AgentState {
	if p.build != nil {
		p.once.Do(func() { p.rows = p.build() })
	}
	return p.rows
}

// NumAgents returns c, the team size.
func (p *Plan) NumAgents() int { return p.agents }

// Horizon returns T, the number of timesteps.
func (p *Plan) Horizon() int { return p.horizon }

// statesPool recycles the agent-state tiles that plan realization and
// replay stage their work in.
var statesPool grid.Pool[AgentState]

// GetStates returns a []AgentState of length n, reusing a pooled buffer
// when one is large enough. Its contents are arbitrary: callers write every
// state before reading it. Return it with PutStates when done.
func GetStates(n int) []AgentState { return statesPool.Get(n) }

// PutStates returns a buffer obtained from GetStates to the pool. The
// buffer must not be used after Put.
func PutStates(b []AgentState) { statesPool.Put(b) }
