package wspio

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/grid"
	"repro/internal/maps"
	"repro/internal/traffic"
	"repro/internal/warehouse"
	"repro/internal/workload"
)

// FuzzDecode feeds arbitrary bytes through Unmarshal and Decode, the path a
// wspd request body's instance takes: both must return an instance or an
// error, never panic. An instance Decode accepts must survive the export
// round trip: Encode, Marshal, Unmarshal and Decode again give the same
// grid, shelf-access vertices, stations, stock matrix, component cells,
// workload and T, and encoding that again marshals to the same bytes.
func FuzzDecode(f *testing.F) {
	m, err := maps.SortingCenter()
	if err != nil {
		f.Fatal(err)
	}
	wl, err := workload.Uniform(m.W, 160)
	if err != nil {
		f.Fatal(err)
	}
	inst, err := Encode(m.S, &wl, 3600, "sorting")
	if err != nil {
		f.Fatal(err)
	}
	table1, err := Marshal(inst)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(table1)
	f.Add([]byte(`{"map":"T.\n..","num_products":-1,"stock":[],"components":[]}`))
	f.Add([]byte(`{"map":"T.\n..","num_products":20000000000000,"stock":[],"components":[]}`))
	f.Add([]byte(`{"map":"T.\n..","num_products":20000000000000,` +
		`"stock":[{"product":19999999999999,"x":1,"y":0,"units":1}],"components":[]}`))
	f.Add(wideStockBody())
	f.Fuzz(func(t *testing.T, data []byte) {
		inst, err := Unmarshal(data)
		if err != nil {
			return
		}
		// Rejections are expected.
		s, wl, err := Decode(inst)
		if err != nil {
			return
		}
		out := roundTrip(t, s, wl, inst.T, inst.Name)
		s2, wl2, err := Decode(out)
		if err != nil {
			t.Fatalf("the export of an accepted instance is rejected: %v", err)
		}
		w, w2 := s.W, s2.W
		for _, c := range []struct {
			what      string
			got, want any
		}{
			{"grid", w2.Graph, w.Graph},
			{"shelf-access vertices", w2.ShelfAccess, w.ShelfAccess},
			{"stations", w2.Stations, w.Stations},
			{"stock matrix", w2.Stock, w.Stock},
			{"component cells", componentCells(s2), componentCells(s)},
			{"workload", wl2, wl},
			{"T", out.T, inst.T},
		} {
			if !reflect.DeepEqual(c.got, c.want) {
				t.Fatalf("round trip changed the %s: %v, was %v", c.what, c.got, c.want)
			}
		}
		first, err := Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		again, err := Marshal(roundTrip(t, s2, wl2, out.T, out.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, first) {
			t.Fatalf("a second export differs:\n%s\nfirst:\n%s", again, first)
		}
	})
}

// roundTrip exports a decoded instance the way a file takes it: Encode,
// Marshal, Unmarshal.
func roundTrip(t *testing.T, s *traffic.System, wl *warehouse.Workload, T int, name string) *Instance {
	t.Helper()
	inst, err := Encode(s, wl, T, name)
	if err != nil {
		t.Fatalf("Encode of an accepted instance: %v", err)
	}
	data, err := Marshal(inst)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal of Marshal's output: %v", err)
	}
	return out
}

// componentCells lists every component's cells, entry first.
func componentCells(s *traffic.System) [][]grid.VertexID {
	out := make([][]grid.VertexID, len(s.Components))
	for i, c := range s.Components {
		out[i] = c.Cells
	}
	return out
}
