// Package wspio serializes WSP instances — warehouse, traffic system, and
// workload — as JSON files, so instances can be exported, edited, shared,
// and re-solved outside the built-in generators.
package wspio

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/traffic"
	"repro/internal/warehouse"
)

// StockEntry places Units of Product at the shelf-access cell (X, Y).
type StockEntry struct {
	Product int `json:"product"`
	X       int `json:"x"`
	Y       int `json:"y"`
	Units   int `json:"units"`
}

// Instance is the on-disk form of a WSP instance. The Map field uses the
// grid package's ASCII language ('.' floor, '#' obstacle, '@' shelf body,
// 'T' station); shelf-access cells and their stock are listed explicitly;
// traffic-system components are cell-coordinate paths in entry→exit order.
type Instance struct {
	Name        string       `json:"name,omitempty"`
	Map         string       `json:"map"`
	NumProducts int          `json:"num_products"`
	Stock       []StockEntry `json:"stock"`
	Components  [][][2]int   `json:"components"`
	Workload    []int        `json:"workload,omitempty"`
	T           int          `json:"t,omitempty"`
}

// maxStockCells bounds the dense stock matrix Decode allocates, products ×
// access cells. Each factor is backed by the body alone — a product per
// stock entry, an access cell per distinct entry position — so without a
// cap a body of n entries asks for n² cells, and a daemon-sized body for
// enough to exhaust memory. The largest real instance, Fulfillment1,
// needs 55 × 420 = 23,100 cells; the cap leaves two orders of magnitude
// of headroom above it while holding the matrix to 32 MiB.
const maxStockCells = 1 << 22

// errStockMatrix rejects an instance whose stock matrix exceeds
// maxStockCells.
var errStockMatrix = errors.New("wspio: stock matrix too large")

// Encode captures a live warehouse + traffic system (+ optional workload)
// into an Instance.
func Encode(s *traffic.System, wl *warehouse.Workload, T int, name string) (*Instance, error) {
	w := s.W
	g := w.Graph
	// Rebuild shelf/station coordinate sets for the ASCII map. Shelf bodies
	// are the obstacle cells; we cannot distinguish them from plain
	// obstacles in the model, so obstacles render as '#' and stock entries
	// carry the access cells — the round trip preserves semantics exactly.
	var stations []grid.Coord
	for _, v := range w.Stations {
		stations = append(stations, g.Coord(v))
	}
	inst := &Instance{
		Name:        name,
		Map:         grid.Render(g, nil, stations),
		NumProducts: w.NumProducts,
		T:           T,
	}
	for k := 0; k < w.NumProducts; k++ {
		row := w.Stock[k]
		for l, units := range row {
			if units == 0 {
				continue
			}
			c := g.Coord(w.ShelfAccess[l])
			inst.Stock = append(inst.Stock, StockEntry{Product: k, X: c.X, Y: c.Y, Units: units})
		}
	}
	for _, comp := range s.Components {
		var cells [][2]int
		for _, v := range comp.Cells {
			c := g.Coord(v)
			cells = append(cells, [2]int{c.X, c.Y})
		}
		inst.Components = append(inst.Components, cells)
	}
	if wl != nil {
		inst.Workload = append([]int(nil), wl.Units...)
	}
	return inst, nil
}

// Decode materializes an Instance into a validated warehouse and traffic
// system (and workload, when present).
func Decode(inst *Instance) (*traffic.System, *warehouse.Workload, error) {
	g, _, stationCoords, err := grid.Parse(inst.Map)
	if err != nil {
		return nil, nil, fmt.Errorf("wspio: map: %w", err)
	}
	var stations []grid.VertexID
	for _, c := range stationCoords {
		stations = append(stations, g.At(c))
	}
	// The stock matrix has a row per product, so the count must be backed
	// by the body: one workload demand per product, or at most one product
	// per stock entry when there is no workload. An unbacked count would
	// size the allocation below on its own.
	backed := len(inst.Workload)
	if inst.Workload == nil {
		backed = len(inst.Stock)
	}
	if inst.NumProducts < 0 || inst.NumProducts > backed {
		return nil, nil, fmt.Errorf("wspio: product count %d not backed by %d workload demands and %d stock entries",
			inst.NumProducts, len(inst.Workload), len(inst.Stock))
	}
	// Collect access cells in first-appearance order.
	accessIdx := make(map[grid.VertexID]int)
	var access []grid.VertexID
	for _, e := range inst.Stock {
		v := g.At(grid.Coord{X: e.X, Y: e.Y})
		if v == grid.None {
			return nil, nil, fmt.Errorf("wspio: stock entry at (%d,%d) is not a passable cell", e.X, e.Y)
		}
		if _, ok := accessIdx[v]; !ok {
			accessIdx[v] = len(access)
			access = append(access, v)
		}
	}
	if len(access) > 0 && inst.NumProducts > maxStockCells/len(access) {
		return nil, nil, fmt.Errorf("%w: %d products × %d access cells exceeds %d cells",
			errStockMatrix, inst.NumProducts, len(access), maxStockCells)
	}
	stock := make([][]int, inst.NumProducts)
	for k := range stock {
		stock[k] = make([]int, len(access))
	}
	for _, e := range inst.Stock {
		if e.Product < 0 || e.Product >= inst.NumProducts {
			return nil, nil, fmt.Errorf("wspio: stock entry references product %d of %d", e.Product, inst.NumProducts)
		}
		v := g.At(grid.Coord{X: e.X, Y: e.Y})
		stock[e.Product][accessIdx[v]] += e.Units
	}
	w, err := warehouse.New(g, access, stations, inst.NumProducts, stock)
	if err != nil {
		return nil, nil, fmt.Errorf("wspio: warehouse: %w", err)
	}
	paths := make([][]grid.VertexID, len(inst.Components))
	for i, cells := range inst.Components {
		for _, xy := range cells {
			v := g.At(grid.Coord{X: xy[0], Y: xy[1]})
			if v == grid.None {
				return nil, nil, fmt.Errorf("wspio: component %d cell (%d,%d) is not passable", i, xy[0], xy[1])
			}
			paths[i] = append(paths[i], v)
		}
	}
	s, err := traffic.Build(w, paths)
	if err != nil {
		return nil, nil, fmt.Errorf("wspio: traffic system: %w", err)
	}
	var wl *warehouse.Workload
	if inst.Workload != nil {
		w2, err := warehouse.NewWorkload(w, inst.Workload)
		if err != nil {
			return nil, nil, fmt.Errorf("wspio: workload: %w", err)
		}
		wl = &w2
	}
	return s, wl, nil
}

// Marshal renders an Instance as indented JSON.
func Marshal(inst *Instance) ([]byte, error) {
	return json.MarshalIndent(inst, "", "  ")
}

// Unmarshal parses JSON produced by Marshal.
func Unmarshal(data []byte) (*Instance, error) {
	var inst Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, fmt.Errorf("wspio: %w", err)
	}
	return &inst, nil
}
