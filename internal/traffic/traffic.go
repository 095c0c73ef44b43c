// Package traffic implements the traffic-system design framework of §IV-A:
// grouping floorplan vertices into disjoint simple-path components (shelving
// rows, station queues, transports), wiring components through inlet/outlet
// relations, and validating the composition rules the paper imposes.
//
// Direction convention. The paper's prose and its Algorithm 1 use "head" and
// "tail" with opposite orientations; we follow Algorithm 1, which is the
// precise artifact: an agent enters a component at its Entry cell (the
// algorithm's TAIL), advances cell by cell toward the Exit cell (the
// algorithm's HEAD), and leaves from the Exit cell to the Entry cell of the
// next component. Consequently, for Cj ∈ Inlets(Ci) the floorplan must have
// an edge Exit(Cj) – Entry(Ci). DESIGN.md records this erratum.
package traffic

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/warehouse"
)

// Kind classifies a component per §IV-A.
type Kind int

// Component kinds.
const (
	Transport Kind = iota
	ShelvingRow
	StationQueue
)

func (k Kind) String() string {
	switch k {
	case Transport:
		return "transport"
	case ShelvingRow:
		return "shelving-row"
	case StationQueue:
		return "station-queue"
	}
	return "unknown"
}

// ComponentID indexes a component within its System.
type ComponentID int

// Component is a directed simple path of floorplan cells. Cells[0] is the
// entry; Cells[len-1] is the exit.
type Component struct {
	ID    ComponentID
	Kind  Kind
	Cells []grid.VertexID
}

// Entry returns the cell agents arrive on (Algorithm 1's TAIL).
func (c *Component) Entry() grid.VertexID { return c.Cells[0] }

// Exit returns the cell agents leave from (Algorithm 1's HEAD).
func (c *Component) Exit() grid.VertexID { return c.Cells[len(c.Cells)-1] }

// Len returns |Ci|, the number of cells.
func (c *Component) Len() int { return len(c.Cells) }

// Capacity returns ⌊|Ci|/2⌋, the per-cycle-period agent intake bound of
// §IV-C/IV-D.
func (c *Component) Capacity() int { return len(c.Cells) / 2 }

// System is a validated traffic system: components plus the traffic system
// graph Gs of inlet/outlet arcs.
//
// Arcs carry a contiguous numbering e = 0..len(Edges())-1 (the order of
// Edges()), so downstream packages can keep per-arc state in flat slices
// instead of maps keyed by component pairs.
type System struct {
	W          *warehouse.Warehouse
	Components []*Component
	// Outlets[i] lists the components reachable from component i (1 or 2).
	Outlets [][]ComponentID
	// Inlets[i] lists the components feeding component i (1 or 2).
	Inlets [][]ComponentID

	cellOf    []ComponentID // vertex -> component, -1 if unused
	cellIndex []int32       // vertex -> position within its component, -1

	edges      [][2]ComponentID // Es under the contiguous arc numbering
	outEdgeIDs [][]int32        // arc IDs leaving component i, parallel to Outlets[i]
	inEdgeIDs  [][]int32        // arc IDs entering component i, parallel to Inlets[i]
	compStock  []int32          // dense UNITS_AT: component ci x product k at ci*|ρ|+k
}

// NumComponents returns |Vs|.
func (s *System) NumComponents() int { return len(s.Components) }

// ComponentAt returns the component containing vertex v, or -1 if v is
// unused.
func (s *System) ComponentAt(v grid.VertexID) ComponentID { return s.cellOf[v] }

// MaxComponentLen returns m := max |Ci|, which fixes the cycle time tc = 2m.
func (s *System) MaxComponentLen() int {
	m := 0
	for _, c := range s.Components {
		if c.Len() > m {
			m = c.Len()
		}
	}
	return m
}

// CycleTime returns tc = 2m (Property 4.1).
func (s *System) CycleTime() int { return 2 * s.MaxComponentLen() }

// Edges returns every arc (Ci, Cj) ∈ Es in the contiguous arc numbering:
// Edges()[e] is arc e. The returned slice is shared; callers must not
// mutate it.
func (s *System) Edges() [][2]ComponentID { return s.edges }

// EdgeID returns the contiguous arc number of (i, j) ∈ Es, or -1 if the arc
// does not exist. Out-degrees are at most 2, so the scan is constant time.
func (s *System) EdgeID(i, j ComponentID) int {
	for oi, out := range s.Outlets[i] {
		if out == j {
			return int(s.outEdgeIDs[i][oi])
		}
	}
	return -1
}

// OutEdgeIDs returns the arc numbers leaving component i, parallel to
// Outlets[i]. The returned slice is shared; callers must not mutate it.
func (s *System) OutEdgeIDs(i ComponentID) []int32 { return s.outEdgeIDs[i] }

// InEdgeIDs returns the arc numbers entering component i, parallel to
// Inlets[i]. The returned slice is shared; callers must not mutate it.
func (s *System) InEdgeIDs(i ComponentID) []int32 { return s.inEdgeIDs[i] }

// NextCellAt returns the cell following v on the way to its component's
// exit, or grid.None if v is the exit or unused (the algorithm's
// NEXT(Ci, u) = ⊥).
func (s *System) NextCellAt(v grid.VertexID) grid.VertexID {
	if v < 0 || int(v) >= len(s.cellIndex) {
		return grid.None
	}
	i := s.cellIndex[v]
	if i < 0 {
		return grid.None
	}
	cells := s.Components[s.cellOf[v]].Cells
	if int(i)+1 >= len(cells) {
		return grid.None
	}
	return cells[i+1]
}

// Build assembles and validates a System from directed cell paths. Kind is
// inferred from the warehouse: a path containing shelf-access vertices is a
// shelving row, one containing stations is a station queue, otherwise a
// transport (mixing shelf-access and station cells is an error). Inlet and
// outlet arcs are wired automatically wherever the floorplan has an edge
// Exit(Cj) – Entry(Ci).
func Build(w *warehouse.Warehouse, paths [][]grid.VertexID) (*System, error) {
	s := &System{W: w}
	s.cellOf = make([]ComponentID, w.Graph.NumVertices())
	s.cellIndex = make([]int32, w.Graph.NumVertices())
	for i := range s.cellOf {
		s.cellOf[i] = -1
		s.cellIndex[i] = -1
	}
	for _, cells := range paths {
		if err := s.addComponent(cells); err != nil {
			return nil, err
		}
	}
	if err := s.wire(); err != nil {
		return nil, err
	}
	s.indexEdges()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	s.indexStock()
	return s, nil
}

// indexEdges assigns the contiguous arc numbering (the iteration order of
// Outlets) and the per-component in/out arc ID lists.
func (s *System) indexEdges() {
	n := len(s.Components)
	s.edges = s.edges[:0]
	s.outEdgeIDs = make([][]int32, n)
	s.inEdgeIDs = make([][]int32, n)
	for i, outs := range s.Outlets {
		for _, j := range outs {
			e := int32(len(s.edges))
			s.edges = append(s.edges, [2]ComponentID{ComponentID(i), j})
			s.outEdgeIDs[i] = append(s.outEdgeIDs[i], e)
			s.inEdgeIDs[j] = append(s.inEdgeIDs[j], e)
		}
	}
}

// indexStock precomputes the dense UNITS_AT table: stock is fixed for the
// lifetime of a System, and synthesis queries it millions of times.
func (s *System) indexStock() {
	p := s.W.NumProducts
	s.compStock = make([]int32, len(s.Components)*p)
	for _, c := range s.Components {
		base := int(c.ID) * p
		for _, v := range c.Cells {
			col := s.W.ShelfColumn(v)
			if col < 0 {
				continue
			}
			for k := 0; k < p; k++ {
				if row := s.W.Stock[k]; row != nil {
					s.compStock[base+k] += int32(row[col])
				}
			}
		}
	}
}

func (s *System) addComponent(cells []grid.VertexID) error {
	id := ComponentID(len(s.Components))
	if len(cells) == 0 {
		return fmt.Errorf("traffic: component %d has no cells", id)
	}
	hasShelf, hasStation := false, false
	for i, v := range cells {
		if v < 0 || int(v) >= s.W.Graph.NumVertices() {
			return fmt.Errorf("traffic: component %d cell %d out of range", id, v)
		}
		if s.cellOf[v] >= 0 {
			return fmt.Errorf("traffic: cell %d in both component %d and %d", v, s.cellOf[v], id)
		}
		if i > 0 && !s.W.Graph.Adjacent(cells[i-1], v) {
			return fmt.Errorf("traffic: component %d cells %d and %d not adjacent", id, cells[i-1], v)
		}
		s.cellOf[v] = id
		s.cellIndex[v] = int32(i)
		if s.W.ShelfColumn(v) >= 0 {
			hasShelf = true
		}
		if s.W.IsStation(v) {
			hasStation = true
		}
	}
	kind := Transport
	switch {
	case hasShelf && hasStation:
		return fmt.Errorf("traffic: component %d mixes shelf-access and station cells", id)
	case hasShelf:
		kind = ShelvingRow
	case hasStation:
		kind = StationQueue
	}
	s.Components = append(s.Components, &Component{ID: id, Kind: kind, Cells: append([]grid.VertexID(nil), cells...)})
	return nil
}

// wire connects components: Cj -> Ci wherever Exit(Cj) is floorplan-adjacent
// to Entry(Ci).
func (s *System) wire() error {
	n := len(s.Components)
	s.Outlets = make([][]ComponentID, n)
	s.Inlets = make([][]ComponentID, n)
	entryAt := make(map[grid.VertexID]ComponentID, n)
	for _, c := range s.Components {
		entryAt[c.Entry()] = c.ID
	}
	for _, c := range s.Components {
		exit := c.Exit()
		var nbrs []grid.VertexID
		nbrs = s.W.Graph.Neighbors(exit, nbrs)
		for _, v := range nbrs {
			j, ok := entryAt[v]
			if !ok || j == c.ID {
				continue
			}
			s.Outlets[c.ID] = append(s.Outlets[c.ID], j)
			s.Inlets[j] = append(s.Inlets[j], c.ID)
		}
	}
	return nil
}

// Validate enforces the composition rules of §IV-A:
//   - components are disjoint simple paths (checked during construction);
//   - each component has 1 or 2 inlets and 1 or 2 outlets;
//   - every shelf-access and station vertex is covered by a component;
//   - the traffic system graph is strongly connected.
func (s *System) Validate() error {
	if len(s.Components) == 0 {
		return fmt.Errorf("traffic: empty system")
	}
	for _, c := range s.Components {
		if n := len(s.Outlets[c.ID]); n < 1 || n > 2 {
			return fmt.Errorf("traffic: component %d (%s, exit cell %v) has %d outlets, want 1 or 2",
				c.ID, c.Kind, s.W.Graph.Coord(c.Exit()), n)
		}
		if n := len(s.Inlets[c.ID]); n < 1 || n > 2 {
			return fmt.Errorf("traffic: component %d (%s, entry cell %v) has %d inlets, want 1 or 2",
				c.ID, c.Kind, s.W.Graph.Coord(c.Entry()), n)
		}
	}
	for _, v := range s.W.ShelfAccess {
		if s.cellOf[v] < 0 {
			return fmt.Errorf("traffic: shelf-access vertex %v not covered by any component", s.W.Graph.Coord(v))
		}
	}
	for _, v := range s.W.Stations {
		if s.cellOf[v] < 0 {
			return fmt.Errorf("traffic: station vertex %v not covered by any component", s.W.Graph.Coord(v))
		}
	}
	if !s.stronglyConnected() {
		return fmt.Errorf("traffic: traffic system graph is not strongly connected")
	}
	return nil
}

// stronglyConnected checks Gs with a forward and a reverse reachability pass.
func (s *System) stronglyConnected() bool {
	n := len(s.Components)
	if n == 0 {
		return false
	}
	reach := func(adj [][]ComponentID) int {
		seen := make([]bool, n)
		seen[0] = true
		stack := []ComponentID{0}
		count := 1
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, u := range adj[v] {
				if !seen[u] {
					seen[u] = true
					count++
					stack = append(stack, u)
				}
			}
		}
		return count
	}
	return reach(s.Outlets) == n && reach(s.Inlets) == n
}

// ShelvingRows returns the IDs of all shelving-row components.
func (s *System) ShelvingRows() []ComponentID { return s.byKind(ShelvingRow) }

// StationQueues returns the IDs of all station-queue components.
func (s *System) StationQueues() []ComponentID { return s.byKind(StationQueue) }

// Transports returns the IDs of all transport components.
func (s *System) Transports() []ComponentID { return s.byKind(Transport) }

func (s *System) byKind(k Kind) []ComponentID {
	var out []ComponentID
	for _, c := range s.Components {
		if c.Kind == k {
			out = append(out, c.ID)
		}
	}
	return out
}

// UnitsAt returns UNITS_AT(Ci, ρk): the stock of product k across the
// shelf-access cells of component ci.
func (s *System) UnitsAt(ci ComponentID, k warehouse.ProductID) int {
	if k < 0 || int(k) >= s.W.NumProducts {
		return 0
	}
	if s.compStock != nil {
		return int(s.compStock[int(ci)*s.W.NumProducts+int(k)])
	}
	total := 0
	for _, v := range s.Components[ci].Cells {
		total += s.W.UnitsAt(v, k)
	}
	return total
}
