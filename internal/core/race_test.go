package core

import (
	"math"
	"sync"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/tile"
)

// racePredictor trains one small predictor shared by the concurrency tests
// in this file: they only read it, and sharing keeps `go test -race` fast.
var (
	raceOnce sync.Once
	racePred *Predictor
)

func sharedRacePredictor(t *testing.T) *Predictor {
	t.Helper()
	raceOnce.Do(func() { racePred = trainSmall(t, 7) })
	if racePred == nil {
		t.Fatal("shared race predictor failed to train")
	}
	return racePred
}

// TestPredictKernelConcurrent drives a trained predictor from 32 goroutines
// over a mix of kernels and GPUs. It guards the serving path's thread
// safety: the tile singleflight cache, the model-map RWMutex, and the
// read-only MLP forward pass must all be race-clean, and results must be
// deterministic regardless of interleaving.
func TestPredictKernelConcurrent(t *testing.T) {
	p := sharedRacePredictor(t)
	gpus := []gpu.Spec{gpu.MustLookup("V100"), gpu.MustLookup("H100")}
	ks := []kernels.Kernel{
		kernels.NewBMM(4, 256, 256, 256),
		kernels.NewLinear(128, 512, 512),
		kernels.NewElementwise(kernels.OpEWAdd, 1024, 1024),
		kernels.NewSoftmax(256, 512),
		kernels.NewLayerNorm(256, 512),
	}

	// Reference forecasts computed serially first.
	want := map[string]float64{}
	for _, g := range gpus {
		for _, k := range ks {
			l, err := p.PredictKernel(k, g)
			if err != nil {
				t.Fatalf("serial PredictKernel(%s, %s): %v", k.Label(), g.Name, err)
			}
			want[k.Label()+"@"+g.Name] = l
		}
	}

	const goroutines = 32
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				g := gpus[(w+i)%len(gpus)]
				k := ks[(w+i)%len(ks)]
				l, err := p.PredictKernel(k, g)
				if err != nil {
					t.Errorf("PredictKernel(%s, %s): %v", k.Label(), g.Name, err)
					return
				}
				if ref := want[k.Label()+"@"+g.Name]; math.Abs(l-ref) > 1e-12 {
					t.Errorf("PredictKernel(%s, %s) = %v under concurrency, want %v", k.Label(), g.Name, l, ref)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestPredictGraphConcurrent runs concurrent whole-graph forecasts — the
// shape of traffic the serve layer generates — alongside introspection
// calls that read the model maps.
func TestPredictGraphConcurrent(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("V100")

	gr := graph.New("race")
	a := gr.Add(kernels.NewLinear(64, 256, 256))
	b := gr.Add(kernels.NewElementwise(kernels.OpEWGELU, 64, 256), a)
	gr.Add(kernels.NewLayerNorm(64, 256), b)

	want, _, werr := p.PredictGraph(gr, g)
	if werr != nil {
		t.Fatal(werr)
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got, _, _ := p.PredictGraph(gr, g); math.Abs(got-want) > 1e-12 {
					t.Errorf("PredictGraph = %v under concurrency, want %v", got, want)
					return
				}
				if cats := p.TrainedCategories(); len(cats) != 5 {
					t.Errorf("TrainedCategories = %d, want 5", len(cats))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestTileForRefreshesOnDBGeneration checks tile resolution notices
// database Adds: a tile memoized before the Add is re-resolved, so
// profiling that continues after the first prediction is not pinned out by
// the memo.
func TestTileForRefreshesOnDBGeneration(t *testing.T) {
	tdb := tile.NewDB()
	g := gpu.MustLookup("V100")
	far := kernels.NewBMM(64, 2048, 2048, 2048)
	tdb.Add(far, g, tile.Tile{Dims: []int{256, 256}})

	p := NewPredictor(testConfig(), tdb)
	query := kernels.NewBMM(1, 32, 32, 32)
	if got := p.tileFor(query, g); got.Dims[0] != 256 {
		t.Fatalf("initial tile = %v, want the far record's 256x256", got.Dims)
	}
	// An exact record lands after the cache is warm; the predictor must
	// pick it up rather than serving the stale nearest match.
	tdb.Add(query, g, tile.Tile{Dims: []int{16, 16}})
	if got := p.tileFor(query, g); got.Dims[0] != 16 {
		t.Errorf("post-Add tile = %v, want the exact record's 16x16", got.Dims)
	}
}

// TestTileForCoalesces checks tile resolution returns identical tiles to
// every goroutine racing on a cold key.
func TestTileForCoalesces(t *testing.T) {
	p := sharedRacePredictor(t)
	g := gpu.MustLookup("H100")
	k := kernels.NewBMM(8, 768, 768, 768)

	tiles := make([][]int, 32)
	var wg sync.WaitGroup
	for w := 0; w < 32; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tiles[w] = p.tileFor(k, g).Dims
		}(w)
	}
	wg.Wait()
	for w := 1; w < 32; w++ {
		if len(tiles[w]) != len(tiles[0]) {
			t.Fatalf("goroutine %d saw tile %v, goroutine 0 saw %v", w, tiles[w], tiles[0])
		}
		for j := range tiles[w] {
			if tiles[w][j] != tiles[0][j] {
				t.Fatalf("goroutine %d saw tile %v, goroutine 0 saw %v", w, tiles[w], tiles[0])
			}
		}
	}
}
