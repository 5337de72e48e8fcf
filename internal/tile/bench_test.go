package tile_test

import (
	"sync"
	"testing"

	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/tile"
)

// servedDB returns a database seeded the way the benchmark's served model
// is: 690 kernel configurations profiled on the five training GPUs, 3,450
// records.
var servedDB = sync.OnceValue(func() *tile.DB {
	tdb := tile.NewDB()
	dataset.Generate(dataset.GenConfig{
		Seed: 42, BMM: 300, FC: 150, EW: 120, Softmax: 60, LN: 60,
		GPUs: gpu.TrainSet(), MaxBMMDim: 1024,
	}, gpusim.New(), tdb)
	return tdb
})

// BenchmarkDBLookup measures cold nearest-match lookups — distinct
// queries, nothing memoized — against the served-size database: the BMM
// and elementwise kernels of the Table 5 models' inference graphs at batch
// sizes 1 to 16, on the three held-out GPUs.
func BenchmarkDBLookup(b *testing.B) {
	db := servedDB()
	for _, cat := range []kernels.Category{kernels.CatBMM, kernels.CatElementwise} {
		type query struct {
			k kernels.Kernel
			g gpu.Spec
		}
		var qs []query
		seen := map[tile.Query]bool{}
		for _, m := range models.Table5() {
			for batch := 1; batch <= 16; batch++ {
				for _, k := range m.InferenceGraph(batch).Kernels() {
					for _, g := range gpu.TestSet() {
						if q := tile.QueryOf(k, g); k.Category() == cat && !seen[q] {
							seen[q] = true
							qs = append(qs, query{k, g})
						}
					}
				}
			}
		}
		b.Run(cat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, ok := db.Lookup(q.k, q.g); !ok {
					b.Fatalf("no record for %s", q.k.Label())
				}
			}
		})
	}
}
