package wspio

import (
	"testing"

	"repro/internal/maps"
	"repro/internal/workload"
)

// FuzzDecode feeds arbitrary bytes through Unmarshal and Decode, the path a
// wspd request body's instance takes: both must return an instance or an
// error, never panic.
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
		// Rejections are expected; only a panic fails.
		Decode(inst)
	})
}
