package datasets

import (
	"strconv"
	"strings"
	"testing"
)

// FuzzImportMovingAI feeds arbitrary map text and small co-design
// parameters (zero included, which the importer rejects) to ImportMovingAI,
// which parses the text with grid.ParseMovingAI. Most inputs are rejected
// with an error; the target fails on a panic, and on an accepted map whose
// warehouse floor does not have the width and height its header declares.
func FuzzImportMovingAI(f *testing.F) {
	// The embedded maps, with the parameters movingaiFamily imports them at.
	for _, m := range []struct {
		name     string
		stations uint8
	}{{"pods-12x7", 1}, {"blocks-16x9", 2}} {
		text, err := movingaiMaps.ReadFile("testdata/" + m.name + ".map")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(text), uint8(4), uint8(25), m.stations, uint8(6))
	}
	for _, text := range []string{
		// TestImportMovingAIRejects.
		"height 7\nwidth 8\nmap\n.@......\n........\n..@@@...\n........\n..@@@...\n........\n........\n",
		"height 6\nwidth 8\nmap\n........\n........\n..@@@...\n........\n........\n........\n",
		"height 7\nwidth 8\nmap\n........\n.@@@@@@.\n........\n........\n..@@@...\n........\n........\n",
		"height 7\nwidth 8\nmap\n........\n........\n........\n........\n........\n........\n........\n",
		// The grid package's parser tests.
		"type octile\nheight 3\nwidth 5\nmap\n.....\n..@..\nG...W\n",
		"type octile\r\nheight 2\r\nwidth 3\r\nmap\r\n..@\r\n...\r\n",
		"height 2\nwidth 3\nmap\n...\n....\n",
		"type octile\nheight 3\nwidth 5\nma",
	} {
		f.Add(text, uint8(1), uint8(1), uint8(1), uint8(4))
	}
	f.Fuzz(func(t *testing.T, text string, products, units, stations, maxLen uint8) {
		p := MovingAIParams{
			NumProducts:     int(products % 9),
			UnitsPerShelf:   int(units % 32),
			Stations:        int(stations % 5),
			MaxComponentLen: int(maxLen % 12),
		}
		w, _, err := ImportMovingAI(text, p)
		if err != nil {
			return
		}
		width, height := declaredDims(text)
		if g := w.Graph; g.Width() != width || g.Height() != height {
			t.Fatalf("accepted map is %dx%d, header declares %dx%d", g.Width(), g.Height(), width, height)
		}
	})
}

// declaredDims reads the width and height a MovingAI header declares: the
// last well-formed line of each before the map keyword.
func declaredDims(text string) (width, height int) {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		switch {
		case f[0] == "map":
			return width, height
		case f[0] == "width" && len(f) == 2:
			width, _ = strconv.Atoi(f[1])
		case f[0] == "height" && len(f) == 2:
			height, _ = strconv.Atoi(f[1])
		}
	}
	return width, height
}
