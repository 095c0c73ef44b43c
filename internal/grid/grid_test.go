package grid

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustParse(t *testing.T, text string) (*Grid, []Coord, []Coord) {
	t.Helper()
	g, shelves, stations, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return g, shelves, stations
}

const tinyMap = `
.....
.@.@.
.....
.T.T.
`

func TestParseCounts(t *testing.T) {
	g, shelves, stations := mustParse(t, tinyMap)
	if g.Width() != 5 || g.Height() != 4 {
		t.Fatalf("dims = %dx%d, want 5x4", g.Width(), g.Height())
	}
	if got, want := g.NumVertices(), 18; got != want {
		t.Errorf("NumVertices = %d, want %d", got, want)
	}
	if len(shelves) != 2 {
		t.Errorf("shelves = %d, want 2", len(shelves))
	}
	if len(stations) != 2 {
		t.Errorf("stations = %d, want 2", len(stations))
	}
	// Stations sit on the south edge (first text row is north).
	for _, s := range stations {
		if s.Y != 0 {
			t.Errorf("station %v not on south edge", s)
		}
	}
	// Shelves are obstacles.
	for _, s := range shelves {
		if g.At(s) != None {
			t.Errorf("shelf %v is passable", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, text string
	}{
		{"empty", ""},
		{"ragged", ".....\n..."},
		{"badRune", "..x.."},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, _, err := Parse(tc.text); err == nil {
				t.Errorf("Parse(%q) succeeded, want error", tc.text)
			}
		})
	}
}

func TestNewErrors(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) succeeded, want error")
	}
	if _, err := New([][]bool{{}}); err == nil {
		t.Error("New(empty row) succeeded, want error")
	}
	if _, err := New([][]bool{{true, true}, {true}}); err == nil {
		t.Error("New(ragged) succeeded, want error")
	}
}

func TestRenderRoundTrip(t *testing.T) {
	g, shelves, stations := mustParse(t, tinyMap)
	out := Render(g, shelves, stations)
	if got, want := out, strings.Trim(tinyMap, "\n")+"\n"; got != want {
		t.Errorf("Render round-trip mismatch:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestAdjacency(t *testing.T) {
	g, _, _ := mustParse(t, tinyMap)
	v := g.At(Coord{0, 0})
	u := g.At(Coord{1, 0})
	if v == None || u == None {
		t.Fatal("expected passable corner cells")
	}
	if !g.Adjacent(v, u) {
		t.Error("horizontally adjacent cells not Adjacent")
	}
	if g.Adjacent(v, v) {
		t.Error("vertex adjacent to itself")
	}
	// (1,2) is a shelf -> not a vertex; (1,1)'s north neighbor is blocked.
	mid := g.At(Coord{1, 1})
	if got := g.Neighbors(mid, nil); len(got) != 3 {
		t.Errorf("Neighbors(1,1) = %v, want 3: none through the shelf obstacle", got)
	}
	if d, ok := g.DirTo(v, u); !ok || d != East {
		t.Errorf("DirTo = %v,%v, want East,true", d, ok)
	}
	if _, ok := g.DirTo(v, g.At(Coord{4, 3})); ok {
		t.Error("DirTo for non-adjacent pair reported ok")
	}
}

// TestDirOps: every direction's offset is a unit step, and Dirs lists each
// direction two places from its reverse.
func TestDirOps(t *testing.T) {
	for i, d := range Dirs {
		o := d.Offset()
		if max(o.X, -o.X)+max(o.Y, -o.Y) != 1 {
			t.Errorf("%v: offset %v is not a unit step", d, o)
		}
		r := Dirs[(i+2)%len(Dirs)].Offset()
		if o.X+r.X != 0 || o.Y+r.Y != 0 {
			t.Errorf("%v: offset of the reverse direction does not negate", d)
		}
	}
}

func TestBFSAndShortestPath(t *testing.T) {
	g, _, _ := mustParse(t, tinyMap)
	src := g.At(Coord{0, 0})
	dst := g.At(Coord{4, 3})
	dist := g.BFS(src)
	if got, want := dist[dst], 7; got != want {
		t.Errorf("dist = %d, want %d", got, want)
	}
	if dist[src] != 0 {
		t.Errorf("dist to the source = %d, want 0", dist[src])
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g, _, _ := mustParse(t, ".#.\n###\n.#.")
	src := g.At(Coord{0, 0})
	dst := g.At(Coord{2, 2})
	if d := g.BFS(src)[dst]; d != -1 {
		t.Errorf("BFS distance across obstacles = %d, want -1", d)
	}
}

// Property: BFS distances match the Manhattan metric on an obstacle-free
// grid.
func TestBFSMatchesManhattanOnOpenGrid(t *testing.T) {
	passable := make([][]bool, 6)
	for y := range passable {
		passable[y] = make([]bool, 7)
		for x := range passable[y] {
			passable[y][x] = true
		}
	}
	g, err := New(passable)
	if err != nil {
		t.Fatal(err)
	}
	f := func(sx, sy, dx, dy uint8) bool {
		s := Coord{int(sx) % 7, int(sy) % 6}
		d := Coord{int(dx) % 7, int(dy) % 6}
		dist := g.BFS(g.At(s))
		return dist[g.At(d)] == max(s.X-d.X, d.X-s.X)+max(s.Y-d.Y, d.Y-s.Y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: on a random obstacle grid, BFS distances are shortest-path
// lengths: the source reads 0, every other reachable vertex has a neighbor
// one step closer and none closer than that, and an unreachable vertex
// (-1) has no reachable neighbor.
func TestShortestPathOptimalProperty(t *testing.T) {
	f := func(seed uint32) bool {
		// Deterministic pseudo-random 8x8 obstacle layout from the seed.
		passable := make([][]bool, 8)
		s := uint64(seed)*2654435761 + 1
		for y := range passable {
			passable[y] = make([]bool, 8)
			for x := range passable[y] {
				s = s*6364136223846793005 + 1442695040888963407
				passable[y][x] = s>>60 != 0 // ~94% passable
			}
		}
		passable[0][0] = true
		g, err := New(passable)
		if err != nil {
			return false
		}
		src := g.At(Coord{0, 0})
		dist := g.BFS(src)
		for v := range g.NumVertices() {
			d := dist[v]
			if VertexID(v) == src {
				if d != 0 {
					return false
				}
				continue
			}
			closer := false
			for _, u := range g.Neighbors(VertexID(v), nil) {
				if (d < 0) != (dist[u] < 0) || (d >= 0 && dist[u] < d-1) {
					return false
				}
				closer = closer || dist[u] == d-1
			}
			if d >= 0 && !closer {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
