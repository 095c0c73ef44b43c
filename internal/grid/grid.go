// Package grid models a warehouse floorplan as an undirected graph of
// one-agent-wide cells, following §III of Leet et al., "Co-Design of
// Topology, Scheduling, and Path Planning in Automated Warehouses"
// (DATE 2023).
//
// A Grid is a rectangular raster of cells, each either passable or an
// obstacle. The floorplan graph G = (V, E) has a vertex for every passable
// cell and an edge between every pair of 4-adjacent passable cells. Vertices
// are identified by dense integer IDs so downstream packages can use slices
// instead of maps.
package grid

import (
	"fmt"
	"strings"
)

// Coord is a cell position. X grows to the east (right), Y to the north (up),
// matching the coordinate convention of Fig. 1 in the paper.
type Coord struct {
	X, Y int
}

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// Add returns the coordinate offset by d.
func (c Coord) Add(d Coord) Coord { return Coord{c.X + d.X, c.Y + d.Y} }

// Dir is one of the four cardinal movement directions.
type Dir int

// Cardinal directions in the order used throughout the package.
const (
	East Dir = iota
	North
	West
	South
)

// Offset returns the unit coordinate delta of the direction.
func (d Dir) Offset() Coord {
	switch d {
	case East:
		return Coord{1, 0}
	case North:
		return Coord{0, 1}
	case West:
		return Coord{-1, 0}
	case South:
		return Coord{0, -1}
	}
	panic(fmt.Sprintf("grid: invalid direction %d", int(d)))
}

func (d Dir) String() string {
	switch d {
	case East:
		return "E"
	case North:
		return "N"
	case West:
		return "W"
	case South:
		return "S"
	}
	return "?"
}

// Dirs lists the four cardinal directions.
var Dirs = [4]Dir{East, North, West, South}

// VertexID identifies a passable cell in the floorplan graph. IDs are dense:
// a Grid with n passable cells uses IDs 0..n-1.
type VertexID int

// None is the sentinel for "no vertex".
const None VertexID = -1

// Grid is an immutable rectangular floorplan.
type Grid struct {
	width, height int
	// id maps raster index y*width+x to a VertexID, or None for obstacles.
	id []VertexID
	// coord maps VertexID back to its cell coordinate.
	coord []Coord
	// adj holds, for each vertex, its neighbor in each cardinal direction
	// (None if blocked or out of bounds).
	adj [][4]VertexID
}

// New builds a grid from a passability raster. passable[y][x] reports whether
// the cell at (x, y) can be traversed. All rows must have equal length.
func New(passable [][]bool) (*Grid, error) {
	h := len(passable)
	if h == 0 {
		return nil, fmt.Errorf("grid: empty raster")
	}
	w := len(passable[0])
	if w == 0 {
		return nil, fmt.Errorf("grid: empty raster row")
	}
	for y, row := range passable {
		if len(row) != w {
			return nil, fmt.Errorf("grid: row %d has %d cells, want %d", y, len(row), w)
		}
	}
	g := &Grid{
		width:  w,
		height: h,
		id:     make([]VertexID, w*h),
	}
	for i := range g.id {
		g.id[i] = None
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if passable[y][x] {
				g.id[y*w+x] = VertexID(len(g.coord))
				g.coord = append(g.coord, Coord{x, y})
			}
		}
	}
	g.adj = make([][4]VertexID, len(g.coord))
	for v, c := range g.coord {
		for _, d := range Dirs {
			g.adj[v][d] = g.At(c.Add(d.Offset()))
		}
	}
	return g, nil
}

// Width returns the raster width in cells.
func (g *Grid) Width() int { return g.width }

// Height returns the raster height in cells.
func (g *Grid) Height() int { return g.height }

// NumVertices returns |V|, the number of passable cells.
func (g *Grid) NumVertices() int { return len(g.coord) }

// At returns the vertex at coordinate c, or None if c is out of bounds or an
// obstacle.
func (g *Grid) At(c Coord) VertexID {
	if c.X < 0 || c.X >= g.width || c.Y < 0 || c.Y >= g.height {
		return None
	}
	return g.id[c.Y*g.width+c.X]
}

// Coord returns the coordinate of vertex v.
func (g *Grid) Coord(v VertexID) Coord { return g.coord[v] }

// Neighbors appends the vertices adjacent to v to dst and returns it.
func (g *Grid) Neighbors(v VertexID, dst []VertexID) []VertexID {
	for _, d := range Dirs {
		if u := g.adj[v][d]; u != None {
			dst = append(dst, u)
		}
	}
	return dst
}

// Adjacent reports whether u and v are distinct adjacent vertices. A vertex
// outside the grid is adjacent to nothing.
func (g *Grid) Adjacent(u, v VertexID) bool {
	if u == v || u < 0 || int(u) >= len(g.adj) || v < 0 {
		return false
	}
	n := &g.adj[u]
	return n[0] == v || n[1] == v || n[2] == v || n[3] == v
}

// DirTo returns the direction from u to adjacent vertex v. ok is false if the
// vertices are not adjacent.
func (g *Grid) DirTo(u, v VertexID) (d Dir, ok bool) {
	for _, dd := range Dirs {
		if g.adj[u][dd] == v {
			return dd, true
		}
	}
	return 0, false
}

// BFS computes unit-cost shortest-path distances from src to every vertex.
// Unreachable vertices get distance -1.
func (g *Grid) BFS(src VertexID) []int {
	dist := make([]int, g.NumVertices())
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []VertexID{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, d := range Dirs {
			if u := g.adj[v][d]; u != None && dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Map characters understood by Parse and produced by Render.
const (
	CellEmpty    = '.'
	CellObstacle = '#'
	CellShelf    = '@' // shelf body: an obstacle that stores product
	CellStation  = 'T' // station vertex (passable)
)

// Parse reads an ASCII floorplan. Rows are newline separated; the first text
// row is the highest Y (north edge), matching how maps are drawn. Recognized
// cells: '.' passable, '#' obstacle, '@' shelf body (obstacle), 'T' station
// (passable). Any other rune is an error.
//
// Parse returns the grid plus the coordinates of shelves and stations so
// callers can derive shelf-access vertices.
func Parse(text string) (g *Grid, shelves, stations []Coord, err error) {
	lines := strings.Split(strings.Trim(text, "\n"), "\n")
	h := len(lines)
	if h == 0 {
		return nil, nil, nil, fmt.Errorf("grid: empty map")
	}
	w := len(lines[0])
	passable := make([][]bool, h)
	for i := range passable {
		passable[i] = make([]bool, w)
	}
	for row, line := range lines {
		if len(line) != w {
			return nil, nil, nil, fmt.Errorf("grid: line %d has width %d, want %d", row, len(line), w)
		}
		y := h - 1 - row // first text row is the north edge
		for x, r := range line {
			switch r {
			case CellEmpty:
				passable[y][x] = true
			case CellObstacle:
				// impassable
			case CellShelf:
				shelves = append(shelves, Coord{x, y})
			case CellStation:
				passable[y][x] = true
				stations = append(stations, Coord{x, y})
			default:
				return nil, nil, nil, fmt.Errorf("grid: unknown cell %q at (%d,%d)", r, x, y)
			}
		}
	}
	g, err = New(passable)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, shelves, stations, nil
}

// Render draws the grid as ASCII, marking the supplied shelf and station
// coordinates. It is the inverse of Parse for maps that round-trip.
func Render(g *Grid, shelves, stations []Coord) string {
	shelfSet := make(map[Coord]bool, len(shelves))
	for _, c := range shelves {
		shelfSet[c] = true
	}
	stationSet := make(map[Coord]bool, len(stations))
	for _, c := range stations {
		stationSet[c] = true
	}
	var b strings.Builder
	for row := 0; row < g.height; row++ {
		y := g.height - 1 - row
		for x := 0; x < g.width; x++ {
			c := Coord{x, y}
			switch {
			case shelfSet[c]:
				b.WriteByte(CellShelf)
			case stationSet[c]:
				b.WriteByte(CellStation)
			case g.At(c) != None:
				b.WriteByte(CellEmpty)
			default:
				b.WriteByte(CellObstacle)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
