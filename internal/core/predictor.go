package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	ad "neusight/internal/autodiff"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/loss"
	"neusight/internal/mat"
	"neusight/internal/nn"
	"neusight/internal/opt"
	"neusight/internal/tile"
)

// Config sizes the per-category utilization MLPs and their training run.
// The paper trains 8x512 MLPs with AdamW for 100 epochs; the defaults here
// are scaled to pure-Go training speed while keeping the architecture
// family (stacked ReLU layers, two sigmoid-bounded heads).
type Config struct {
	Hidden      int
	Layers      int
	Epochs      int
	BatchSize   int
	LR          float64
	WeightDecay float64
	Seed        int64
}

// DefaultConfig returns the standard training configuration.
func DefaultConfig() Config {
	return Config{Hidden: 64, Layers: 3, Epochs: 60, BatchSize: 256, LR: 3e-3, WeightDecay: 1e-4, Seed: 42}
}

// Predictor is a trained NeuSight instance: one utilization MLP per
// operator category plus the tile database recorded during profiling.
//
// A trained Predictor is safe for concurrent PredictKernel / PredictKernels
// / PredictGraph / Utilization calls: the MLP and normalization maps are
// guarded against a concurrent Train, and tile resolution goes through the
// tile database, which is safe for concurrent use.
//
// Training and prediction use different representations of the same
// weights. Train fits autodiff MLPs (gradients flow through the latency
// equations); every prediction then runs through a nn.CompiledMLP — an
// immutable weight snapshot with an allocation-free forward pass — compiled
// lazily on the first prediction after Train or Load and invalidated
// whenever a category is retrained.
type Predictor struct {
	Cfg    Config
	TileDB *tile.DB

	stateMu  sync.RWMutex
	mlps     map[kernels.Category]*nn.MLP
	stats    map[kernels.Category]*featureStats
	compiled map[kernels.Category]*nn.CompiledMLP

	// modelGen counts learned-state changes: TrainCategory and Load bump it
	// so Generation moves whenever weights are replaced.
	modelGen atomic.Uint64
}

// NewPredictor returns an untrained predictor that resolves tiles via tdb.
func NewPredictor(cfg Config, tdb *tile.DB) *Predictor {
	if tdb == nil {
		tdb = tile.NewDB()
	}
	return &Predictor{
		Cfg: cfg, TileDB: tdb,
		mlps:     map[kernels.Category]*nn.MLP{},
		stats:    map[kernels.Category]*featureStats{},
		compiled: map[kernels.Category]*nn.CompiledMLP{},
	}
}

// tileFor resolves the tile for k on g: the nearest profiled record, or the
// library heuristic when none matches. The tile database indexes records as
// they land, so profiling that continues after the first prediction still
// reaches the serving path.
func (p *Predictor) tileFor(k kernels.Kernel, g gpu.Spec) tile.Tile {
	return p.TileDB.LookupOrSelect(k, g)
}

// model returns the trained MLP and feature stats for cat, or ok=false.
func (p *Predictor) model(cat kernels.Category) (*nn.MLP, *featureStats, bool) {
	p.stateMu.RLock()
	defer p.stateMu.RUnlock()
	mlp, ok := p.mlps[cat]
	return mlp, p.stats[cat], ok
}

// compiledModel returns the compiled forward pass and feature stats for
// cat, compiling lazily on the first prediction after Train or Load. The
// common case is a read-locked map hit; the slow path double-checks under
// the write lock so concurrent first predictions compile once.
func (p *Predictor) compiledModel(cat kernels.Category) (*nn.CompiledMLP, *featureStats, bool) {
	p.stateMu.RLock()
	if cm := p.compiled[cat]; cm != nil {
		st := p.stats[cat]
		p.stateMu.RUnlock()
		return cm, st, true
	}
	_, trained := p.mlps[cat]
	p.stateMu.RUnlock()
	if !trained {
		return nil, nil, false
	}
	p.stateMu.Lock()
	defer p.stateMu.Unlock()
	mlp, ok := p.mlps[cat]
	if !ok { // retrain/reload raced us away
		return nil, nil, false
	}
	cm := p.compiled[cat]
	if cm == nil {
		cm = nn.Compile(mlp)
		p.compiled[cat] = cm
	}
	return cm, p.stats[cat], true
}

// Name implements the predictor naming convention used by the harness.
func (p *Predictor) Name() string { return "NeuSight" }

// TrainReport records the final training loss per category.
type TrainReport struct {
	FinalLoss map[kernels.Category]float64
	Samples   map[kernels.Category]int
}

// Train fits one MLP per category present in ds and returns a report.
func (p *Predictor) Train(ds *dataset.Dataset) TrainReport {
	rep := TrainReport{
		FinalLoss: map[kernels.Category]float64{},
		Samples:   map[kernels.Category]int{},
	}
	for _, cat := range trainedCats {
		sub := ds.FilterCategory(cat)
		if sub.Len() == 0 {
			continue
		}
		l := p.TrainCategory(cat, sub)
		rep.FinalLoss[cat] = l
		rep.Samples[cat] = sub.Len()
	}
	return rep
}

// TrainCategory fits the MLP for one operator category and returns the
// final epoch's mean SMAPE loss.
func (p *Predictor) TrainCategory(cat kernels.Category, ds *dataset.Dataset) float64 {
	rng := rand.New(rand.NewSource(p.Cfg.Seed + int64(cat)))
	mlp := nn.NewMLP(rng, nn.MLPConfig{
		In: NumFeatures, Hidden: p.Cfg.Hidden, Out: 2,
		Layers: p.Cfg.Layers, Activation: nn.ActReLU,
	})

	rawX, _, _, _ := sampleTensors(ds.Samples, p.TileDB, nil)
	st := fitStats(rawX)
	X, c, w, y := sampleTensors(ds.Samples, p.TileDB, &st)

	optim := opt.NewAdamW(mlp.Params(), opt.AdamWConfig{LR: p.Cfg.LR, WeightDecay: p.Cfg.WeightDecay})
	n := len(X)
	bs := p.Cfg.BatchSize
	if bs > n {
		bs = n
	}
	var final float64
	for epoch := 0; epoch < p.Cfg.Epochs; epoch++ {
		optim.SetLR(opt.CosineDecay(p.Cfg.LR, p.Cfg.LR/20, epoch, p.Cfg.Epochs))
		perm := rng.Perm(n)
		total, batches := 0.0, 0
		for lo := 0; lo < n; lo += bs {
			hi := lo + bs
			if hi > n {
				hi = n
			}
			xb := mat.New(hi-lo, NumFeatures)
			cb := mat.New(hi-lo, 1)
			wb := mat.New(hi-lo, 1)
			yb := mat.New(hi-lo, 1)
			for i := lo; i < hi; i++ {
				j := perm[i]
				copy(xb.Row(i-lo), X[j])
				cb.Data[i-lo] = c[j][0]
				wb.Data[i-lo] = w[j][0]
				yb.Data[i-lo] = y[j][0]
			}
			pred := predictExpr(mlp, ad.NewConstant(xb), ad.NewConstant(cb), ad.NewConstant(wb))
			l := loss.SMAPE(pred, ad.NewConstant(yb))
			ad.Backward(l)
			optim.Step()
			total += l.Data.Data[0]
			batches++
		}
		final = total / float64(batches)
	}
	p.stateMu.Lock()
	p.mlps[cat] = mlp
	p.stats[cat] = &st
	// Invalidate the compiled snapshot; the next prediction recompiles from
	// the fresh weights. In-flight predictions keep their old snapshot.
	delete(p.compiled, cat)
	p.stateMu.Unlock()
	p.modelGen.Add(1)
	return final
}

// Generation identifies the predictor's current learned state: it changes
// whenever TrainCategory replaces a category's weights or the tile database
// records new profiles — exactly the events that make previously returned
// forecasts stale. Serving caches fold it into their keys so retraining
// invalidates cached predictions automatically instead of relying on a
// manual flush.
func (p *Predictor) Generation() uint64 {
	return p.modelGen.Load()<<32 | p.TileDB.Generation()&0xffffffff
}

// predictExpr builds the differentiable latency expression: c / util with
// util from the MLP heads (Eq. 5-8 composed).
func predictExpr(mlp *nn.MLP, X, c, w *ad.Value) *ad.Value {
	heads := mlp.Forward(X)
	util := utilFromHeads(heads, w)
	return ad.Div(c, util)
}

// PredictKernel forecasts the latency of kernel k on device g in
// milliseconds. Kernels in the five trained categories go through the
// tile/utilization pipeline on the compiled inference path — no autodiff
// graph is built; anything else uses the memory-bound fallback (paper
// Section 4.3). Network kernels are rejected — the network model owns them.
func (p *Predictor) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	lat, _, err := p.PredictKernelDetail(k, g)
	return lat, err
}

// PredictKernelDetail is PredictKernel plus the bounded utilization behind
// the forecast — the quantity the predict.Engine contract surfaces.
// Memory-bound fallbacks report utilization 0: the closed-form estimate has
// no learned utilization.
func (p *Predictor) PredictKernelDetail(k kernels.Kernel, g gpu.Spec) (lat, util float64, err error) {
	cat := k.Category()
	if cat == kernels.CatNetwork {
		return 0, 0, fmt.Errorf("core: network kernel %s must be predicted by the network model", k.Label())
	}
	cm, st, ok := p.compiledModel(cat)
	if !ok {
		if cat == kernels.CatMemoryBound {
			return MemBoundLatency(k, g), 0, nil
		}
		return 0, 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	c, util := p.compiledEval(cm, st, k, g)
	return c / util, util, nil
}

// compiledEval runs the compiled single-kernel pipeline — tile resolution,
// latency constant, featurization, normalization, one forward pass, and the
// utilization law — and returns the latency constant and bounded
// utilization. It is the one copy of the pipeline whose bit-identity with
// the autodiff expression the parity tests enforce; PredictKernel and
// Utilization must not diverge from each other.
func (p *Predictor) compiledEval(cm *nn.CompiledMLP, st *featureStats, k kernels.Kernel, g gpu.Spec) (c, util float64) {
	t := p.tileFor(k, g)
	c, waves := latencyConstant(k, g, t)
	f := Features(k, g, t, waves)
	st.applyInPlace(f)
	var heads [2]float64
	cm.ForwardRow(f, heads[:])
	return c, utilScalar(heads[0], heads[1], float64(waves))
}

// predictKernelAutodiff is the pre-compilation prediction path: it builds
// the full autodiff expression (graph nodes, gradient buffers, backward
// closures) exactly as training does. It is retained for parity tests and
// the compiled-vs-autodiff benchmarks; serving traffic never takes it.
func (p *Predictor) predictKernelAutodiff(k kernels.Kernel, g gpu.Spec) (float64, error) {
	cat := k.Category()
	if cat == kernels.CatNetwork {
		return 0, fmt.Errorf("core: network kernel %s must be predicted by the network model", k.Label())
	}
	mlp, st, ok := p.model(cat)
	if !ok {
		if cat == kernels.CatMemoryBound {
			return MemBoundLatency(k, g), nil
		}
		return 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	t := p.tileFor(k, g)
	c, waves := latencyConstant(k, g, t)
	f := st.apply(Features(k, g, t, waves))

	x := ad.NewConstant(mat.FromSlice(1, NumFeatures, f))
	cv := ad.NewConstant(mat.FromSlice(1, 1, []float64{c}))
	wv := ad.NewConstant(mat.FromSlice(1, 1, []float64{float64(waves)}))
	return predictExpr(mlp, x, cv, wv).Data.Data[0], nil
}

// Utilization returns the bounded utilization the predictor assigns to k on
// g — useful for introspection and the Table 2 style analyses.
func (p *Predictor) Utilization(k kernels.Kernel, g gpu.Spec) (float64, error) {
	cat := k.Category()
	cm, st, ok := p.compiledModel(cat)
	if !ok {
		return 0, fmt.Errorf("%w %v", ErrUntrained, cat)
	}
	_, util := p.compiledEval(cm, st, k, g)
	return util, nil
}

// GraphReport summarizes how a graph forecast was produced: how many
// kernels went through the trained pipeline, how many failed and were
// priced by the memory-bound fallback instead, and how many network
// kernels were skipped for the distributed layer. Serving surfaces it on
// /v2/predict/graph so a forecast quietly held together by fallbacks is
// visible to the caller.
type GraphReport struct {
	// Kernels counts the predictable (non-network) kernels submitted.
	Kernels int `json:"kernels"`
	// Predicted counts kernels the predictor answered itself (including
	// closed-form memory-bound categories — that is their model).
	Predicted int `json:"predicted"`
	// Fallbacks counts kernels whose prediction failed and contributed the
	// memory-bound estimate instead.
	Fallbacks int `json:"fallbacks"`
	// Network counts kernels skipped because the distributed layer prices
	// them.
	Network int `json:"network"`
}

// FoldPredictions folds per-kernel forecasts into an end-to-end total:
// position i of the graph is kernel ks[index[i]], answered by
// lats[index[i]]/errs[index[i]] (a nil index means one position per
// kernel, i itself), so a graph in compact form — each distinct kernel
// once — folds without being expanded. Positions are summed in order, so
// the total is bit-identical to folding the expanded graph. Kernels that
// failed to predict contribute the memory-bound estimate and are counted
// in rep, and the returned error aggregates them (nil when every kernel
// predicted). A context cancellation among the errors aborts the fold
// instead — a half-evaluated graph must surface as a failure, not a
// quietly degraded total assembled from fallback guesses. This is the one
// copy of the fallback-aggregation rule; PredictGraph, the engine layer,
// and the serving layer all share it.
func FoldPredictions(lats []float64, errs []error, ks []kernels.Kernel, index []int32, g gpu.Spec, rep *GraphReport) (float64, error) {
	n := len(lats)
	if index != nil {
		n = len(index)
	}
	total := 0.0
	var firstErr error
	for i := 0; i < n; i++ {
		j := i
		if index != nil {
			j = int(index[i])
		}
		l := lats[j]
		if errs[j] != nil {
			if errors.Is(errs[j], context.Canceled) || errors.Is(errs[j], context.DeadlineExceeded) {
				// Leave a consistent report behind the abort: the partial
				// Predicted/Fallbacks counts covered nothing that is being
				// returned, so only the submission size survives.
				*rep = GraphReport{Kernels: n, Network: rep.Network}
				return 0, errs[j]
			}
			if firstErr == nil {
				firstErr = errs[j]
			}
			rep.Fallbacks++
			l = MemBoundLatency(ks[j], g)
		} else {
			rep.Predicted++
		}
		total += l
	}
	rep.Kernels = n
	var err error
	if rep.Fallbacks > 0 {
		err = fmt.Errorf("core: %d of %d kernels could not be predicted and used the memory-bound fallback (first: %w)",
			rep.Fallbacks, rep.Kernels, firstErr)
	}
	return total, err
}

// PredictGraph forecasts the end-to-end latency of a kernel graph on g by
// sequential aggregation (Section 5), batching every predictable kernel
// through one PredictKernels call per category so the whole graph pays for
// a handful of compiled forward passes. Kernels that fail to predict
// contribute their memory-bound fallback rather than aborting the forecast,
// but the failure is no longer silent: the report counts them and the error
// aggregates them (nil when every kernel predicted). Network kernels
// contribute zero (the distributed layer prices them).
func (p *Predictor) PredictGraph(gr *graph.Graph, g gpu.Spec) (float64, GraphReport, error) {
	var rep GraphReport
	ks := make([]kernels.Kernel, 0, len(gr.Nodes))
	for _, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			rep.Network++
			continue
		}
		ks = append(ks, n.Kernel)
	}
	lats, errs := p.PredictKernels(ks, g)
	total, err := FoldPredictions(lats, errs, ks, nil, g, &rep)
	return total, rep, err
}

// TrainedCategories lists the categories with fitted MLPs, sorted.
func (p *Predictor) TrainedCategories() []kernels.Category {
	p.stateMu.RLock()
	var cats []kernels.Category
	for c := range p.mlps {
		cats = append(cats, c)
	}
	p.stateMu.RUnlock()
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	return cats
}

// predictorState is the serialized form of a trained predictor.
type predictorState struct {
	Cfg   Config                  `json:"cfg"`
	MLPs  map[string]*nn.MLP      `json:"mlps"`
	Stats map[string]featureStats `json:"stats"`
}

// Save writes the trained predictor (MLPs + normalization) as JSON. The
// tile database is saved separately via its own Save.
func (p *Predictor) Save(path string) error {
	st := predictorState{Cfg: p.Cfg, MLPs: map[string]*nn.MLP{}, Stats: map[string]featureStats{}}
	p.stateMu.RLock()
	for cat, m := range p.mlps {
		st.MLPs[cat.String()] = m
		st.Stats[cat.String()] = *p.stats[cat]
	}
	p.stateMu.RUnlock()
	data, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load restores a predictor saved by Save, attaching tdb for tile lookups.
func Load(path string, tdb *tile.DB) (*Predictor, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var st predictorState
	if err := json.Unmarshal(data, &st); err != nil {
		return nil, err
	}
	p := NewPredictor(st.Cfg, tdb)
	for _, cat := range trainedCats {
		if m, ok := st.MLPs[cat.String()]; ok {
			p.mlps[cat] = m
			s := st.Stats[cat.String()]
			p.stats[cat] = &s
		}
	}
	p.modelGen.Add(1)
	return p, nil
}
