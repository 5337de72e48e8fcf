package predict

import (
	"context"
	"testing"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
)

// BenchmarkEngineDispatch quantifies what the engine abstraction costs on
// the hot path: the same trained predictor queried directly
// (core.Predictor.PredictKernel, the pre-registry serving path) versus
// through a registry lookup plus the Engine contract (Request/Result
// structs, context check, interface dispatch). The indirection must stay
// within noise — well under the 5% budget the serving layer allows — or
// the registry would tax every forecast it routes.
func BenchmarkEngineDispatch(b *testing.B) {
	reg := conformanceRegistry(b)
	eng, err := reg.Get(EngineNeuSight)
	if err != nil {
		b.Fatal(err)
	}
	p := eng.(*CoreEngine).P
	k := kernels.NewBMM(4, 256, 256, 256)
	g := gpu.MustLookup("V100")
	// Warm the tile DB memo so both variants measure the compiled forward
	// path, not the one-time database scan.
	if _, err := p.PredictKernel(k, g); err != nil {
		b.Fatal(err)
	}

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.PredictKernel(k, g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		req := Request{Kernel: k, GPU: g}
		for i := 0; i < b.N; i++ {
			e, err := reg.Get(EngineNeuSight)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := e.PredictKernel(ctx, req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineBatchDispatch is the batch-path equivalent: one compiled
// forward pass per category, direct versus through the engine contract.
func BenchmarkEngineBatchDispatch(b *testing.B) {
	reg := conformanceRegistry(b)
	eng, err := reg.Get(EngineNeuSight)
	if err != nil {
		b.Fatal(err)
	}
	p := eng.(*CoreEngine).P
	reqs := conformanceRequests()
	ks := make([]kernels.Kernel, len(reqs))
	for i, r := range reqs {
		ks[i] = r.Kernel
	}
	g := reqs[0].GPU
	p.PredictKernels(ks, g) // warm the tile DB memo

	b.Run("direct", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.PredictKernels(ks, g)
		}
	})
	b.Run("engine", func(b *testing.B) {
		b.ReportAllocs()
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			eng.PredictKernels(ctx, reqs)
		}
	})
}
