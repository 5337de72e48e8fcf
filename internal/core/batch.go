package core

import (
	"fmt"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/mat"
)

// PredictKernels forecasts the latency of every kernel in ks on device g in
// milliseconds, amortizing the model evaluation across the batch: kernels
// are grouped by operator category, each group is featurized into a single
// batch matrix, normalized in one pass, and pushed through one compiled
// forward pass. A transformer graph's worth of kernels therefore costs a
// handful of matmuls instead of thousands of independent model walks.
//
// Results are positional: lats[i] and errs[i] correspond to ks[i].
// Per-item failures (network kernels, untrained categories) populate
// errs[i] without disturbing the rest of the batch; memory-bound kernels
// get their closed-form fallback. Each prediction is bit-identical to what
// PredictKernel returns for the same kernel.
func (p *Predictor) PredictKernels(ks []kernels.Kernel, g gpu.Spec) (lats []float64, errs []error) {
	lats, _, errs = p.PredictKernelsDetail(ks, g)
	return lats, errs
}

// PredictKernelsDetail is PredictKernels plus the bounded utilization
// behind each forecast (0 for memory-bound fallbacks), mirroring
// PredictKernelDetail batch-wide. It is the batch entry point of the
// predict.Engine adapter.
func (p *Predictor) PredictKernelsDetail(ks []kernels.Kernel, g gpu.Spec) (lats, utils []float64, errs []error) {
	lats = make([]float64, len(ks))
	utils = make([]float64, len(ks))
	errs = make([]error, len(ks))

	// Group batch positions by category. The map is tiny (≤7 categories);
	// the slices hold positions into ks so results land positionally.
	byCat := map[kernels.Category][]int{}
	for i, k := range ks {
		cat := k.Category()
		if cat == kernels.CatNetwork {
			errs[i] = fmt.Errorf("core: network kernel %s must be predicted by the network model", k.Label())
			continue
		}
		byCat[cat] = append(byCat[cat], i)
	}

	for cat, idxs := range byCat {
		cm, st, ok := p.compiledModel(cat)
		if !ok {
			for _, i := range idxs {
				if cat == kernels.CatMemoryBound {
					lats[i] = MemBoundLatency(ks[i], g)
				} else {
					errs[i] = fmt.Errorf("%w %v", ErrUntrained, cat)
				}
			}
			continue
		}

		// Featurize the whole group into one batch matrix; each kernel's
		// tile comes from the tile database's indexed nearest-match
		// lookup. The rows are split across CPUs: featurizing inline
		// instead measured a higher peak RSS for the serving process under
		// concurrent /v2/plan jobs (VmHWM 22-32 MB against 20-22 MB).
		n := len(idxs)
		X := mat.New(n, NumFeatures)
		cs := make([]float64, n)
		ws := make([]float64, n)
		featurize := func(lo, hi int) {
			for row := lo; row < hi; row++ {
				i := idxs[row]
				t := p.tileFor(ks[i], g)
				c, waves := latencyConstant(ks[i], g, t)
				cs[row], ws[row] = c, float64(waves)
				copy(X.Row(row), Features(ks[i], g, t, waves))
			}
		}
		mat.ParallelFor(n, featurize)
		// One normalization pass over the batch.
		for row := 0; row < n; row++ {
			st.applyInPlace(X.Row(row))
		}
		// One compiled forward pass for the whole group.
		heads := cm.Forward(X)
		for row, i := range idxs {
			util := utilScalar(heads.At(row, 0), heads.At(row, 1), ws[row])
			lats[i] = cs[row] / util
			utils[i] = util
		}
	}
	return lats, utils, errs
}
