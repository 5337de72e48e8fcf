package tile_test

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/tile"
)

// tableFiveQueries returns one kernel per distinct kernels.Key among the
// non-network kernels of every Table 5 model, inference and training, at
// the given batch sizes. Equal keys carry every field a lookup could read,
// so deduplicating by key drops only repeated queries.
func tableFiveQueries(batches []int) []kernels.Kernel {
	seen := map[kernels.Key]bool{}
	var out []kernels.Kernel
	for _, m := range models.Table5() {
		for _, build := range []func(int) *graph.Graph{m.InferenceGraph, m.TrainingGraph} {
			for _, b := range batches {
				for _, k := range build(b).Kernels() {
					if key := k.Key(); k.Category() != kernels.CatNetwork && !seen[key] {
						seen[key] = true
						out = append(out, k)
					}
				}
			}
		}
	}
	return out
}

// TestIndexedLookupMatchesScan checks the indexed Lookup against the linear
// scan it replaced on every Table 5 kernel shape, inference and training,
// batch sizes 1 to 64 (powers of two under -short or the race detector),
// on every registered GPU: the same tile and the same ok, so every
// forecast is unchanged.
func TestIndexedLookupMatchesScan(t *testing.T) {
	batches := []int{1, 2, 4, 8, 16, 32, 64}
	if !testing.Short() && !raceEnabled {
		batches = batches[:0]
		for b := 1; b <= 64; b++ {
			batches = append(batches, b)
		}
	}
	db := servedDB()
	queries := tableFiveQueries(batches)
	gpus := gpu.All()
	t.Logf("%d distinct kernels x %d GPUs against %d records", len(queries), len(gpus), db.Len())
	var wg sync.WaitGroup
	for _, g := range gpus {
		wg.Add(1)
		go func(g gpu.Spec) {
			defer wg.Done()
			for _, k := range queries {
				got, ok := db.Lookup(k, g)
				want, wantOK := db.ReferenceLookup(k, g)
				if ok != wantOK || !slices.Equal(got.Dims, want.Dims) {
					t.Errorf("%s on %s: Lookup = %v, %v; scan = %v, %v", k.Label(), g.Name, got.Dims, ok, want.Dims, wantOK)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLookupTieGoesToEarlierRecord checks that of two records at exactly
// equal distance the one added first wins, whichever that is.
func TestLookupTieGoesToEarlierRecord(t *testing.T) {
	g := gpu.MustLookup("V100")
	wide := kernels.NewBMM(1, 64, 64, 128)
	tall := kernels.NewBMM(1, 128, 64, 64)
	// The query is one log-step from each record along a different axis,
	// so both distances are 0 + 0 + s + (GPU terms) exactly.
	query := kernels.NewBMM(1, 64, 64, 64)
	for _, order := range [][]kernels.Kernel{{wide, tall}, {tall, wide}} {
		db := tile.NewDB()
		db.Add(order[0], g, tile.Tile{Dims: []int{1, 32, 32}})
		db.Add(order[1], g, tile.Tile{Dims: []int{1, 64, 64}})
		got, ok := db.Lookup(query, g)
		if !ok || got.Dims[1] != 32 {
			t.Errorf("first added %v: Lookup = %v, %v; want the first record's tile", order[0].OutputDims(), got.Dims, ok)
		}
		if want, _ := db.ReferenceLookup(query, g); !slices.Equal(got.Dims, want.Dims) {
			t.Errorf("first added %v: Lookup = %v, scan = %v", order[0].OutputDims(), got.Dims, want.Dims)
		}
	}
}

// TestAddAfterLoadIsIndexed checks that records added to a loaded database
// are reachable: a nearer record in an existing group, and the first record
// of a group the file did not have.
func TestAddAfterLoadIsIndexed(t *testing.T) {
	g := gpu.MustLookup("A100-40GB")
	src := tile.NewDB()
	src.Add(kernels.NewBMM(4, 2048, 2048, 2048), g, tile.Tile{Dims: []int{1, 128, 128}})
	path := filepath.Join(t.TempDir(), "tiles.json")
	if err := src.Save(path); err != nil {
		t.Fatal(err)
	}
	db, err := tile.LoadDB(path)
	if err != nil {
		t.Fatal(err)
	}

	small := kernels.NewBMM(4, 64, 64, 64)
	if got, ok := db.Lookup(small, g); !ok || got.Dims[1] != 128 {
		t.Fatalf("before Add: Lookup = %v, %v; want the loaded record's tile", got.Dims, ok)
	}
	gen := db.Generation()
	db.Add(small, g, tile.Tile{Dims: []int{1, 32, 32}})
	if db.Generation() == gen {
		t.Error("Add did not bump the generation")
	}
	if got, ok := db.Lookup(small, g); !ok || got.Dims[1] != 32 {
		t.Errorf("after Add: Lookup = %v, %v; want the added record's tile", got.Dims, ok)
	}

	sm := kernels.NewSoftmax(4096, 1024)
	if _, ok := db.Lookup(sm, g); ok {
		t.Fatal("softmax query matched before any softmax record was added")
	}
	db.Add(sm, g, tile.Tile{Dims: []int{1, 1024}})
	if got, ok := db.Lookup(sm, g); !ok || got.Dims[1] != 1024 {
		t.Errorf("new group: Lookup = %v, %v; want the added softmax tile", got.Dims, ok)
	}
}

// TestLoadDBRejectsCorruptRecords checks that LoadDB refuses a tiles file
// holding a record the index cannot use, naming the record, instead of
// loading it and yielding NaN distances or a tile that panics NumTiles at
// the first forecast. (JSON has no literal for a non-finite number, so the
// GPU features can only arrive out of range as zero or negative.)
func TestLoadDBRejectsCorruptRecords(t *testing.T) {
	const good = `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,64,64]}`
	for _, tc := range []struct{ name, rec, want string }{
		{"no dims", `{"op":0,"dims":[],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[]}`, "no output dims"},
		{"zero dim", `{"op":0,"dims":[4,0,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,64,64]}`, "dim 1"},
		{"zero tile", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,0,64]}`, "dim 1"},
		{"negative tile", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,64,-8]}`, "dim 2"},
		{"tile rank", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[64,64]}`, "tile rank 2"},
		{"zero sms", `{"op":0,"dims":[4,256,256],"sms":0,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,64,64]}`, "sms"},
		{"negative l2", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":-1,"peak_tflops":8.1,"mem_bw_gbs":900,"tile":[1,64,64]}`, "l2_mb"},
		{"zero peak", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":0,"mem_bw_gbs":900,"tile":[1,64,64]}`, "peak_tflops"},
		{"negative bandwidth", `{"op":0,"dims":[4,256,256],"sms":80,"l2_mb":6,"peak_tflops":8.1,"mem_bw_gbs":-900,"tile":[1,64,64]}`, "mem_bw_gbs"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "tiles.json")
			if err := os.WriteFile(path, []byte("["+good+","+tc.rec+"]"), 0o644); err != nil {
				t.Fatal(err)
			}
			db, err := tile.LoadDB(path)
			if err == nil {
				t.Fatalf("LoadDB accepted the corrupt record (%d records loaded)", db.Len())
			}
			if msg := err.Error(); !strings.Contains(msg, "record 1") || !strings.Contains(msg, tc.want) {
				t.Errorf("LoadDB error = %q, want it to name record 1 and %q", msg, tc.want)
			}
		})
	}
}
