package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
)

// kind is the request kind of one served operation.
type kind int

const (
	kindKernel kind = iota
	kindBatch
	kindGraph
	numKinds
)

var kindNames = [numKinds]string{"kernel", "batch", "graph"}

func (k kind) String() string { return kindNames[k] }

// op is one generated operation: the HTTP request the server receives,
// plus the decoded request the in-process replay and the checks use.
type op struct {
	kind   kind
	path   string
	body   []byte
	kernel serve.KernelRequestV2 // kindKernel
	batch  serve.BatchRequestV2  // kindBatch
	graph  serve.GraphRequestV2  // kindGraph
	// units is what the operation adds to the server's request counter:
	// one per predicted kernel (network kernels of a graph excluded).
	units uint64
}

// Workload names.
const (
	hotMix     = "hot-mix"
	coldMix    = "cold-mix"
	planMatrix = "plan-matrix"
)

// apiOps is the operator set the kernel and batch endpoints accept.
var apiOps = map[kernels.Op]bool{
	kernels.OpBMM: true, kernels.OpLinear: true,
	kernels.OpEWAdd: true, kernels.OpEWMul: true, kernels.OpEWDiv: true,
	kernels.OpEWReLU: true, kernels.OpEWGELU: true, kernels.OpEWTanh: true,
	kernels.OpSoftmax: true, kernels.OpLayerNorm: true, kernels.OpEmbedding: true,
}

// apiMaxDim is the largest kernel dimension the serving edge accepts; it
// rejects larger ones with 400.
const apiMaxDim = 1 << 20

// apiShapes returns the distinct API-expressible kernel shapes (fp32) of
// the named models' inference graphs at the given batch sizes, in a
// seed-independent order: API operators, unfused, every dimension within
// apiMaxDim.
func apiShapes(names []string, batches []int) []serve.KernelRequest {
	seen := map[serve.KernelRequest]bool{}
	var out []serve.KernelRequest
	for _, name := range names {
		m := models.MustLookup(name)
		for _, b := range batches {
			for _, k := range m.InferenceGraph(b).Kernels() {
				if !apiOps[k.Op] || k.Fused || max(k.B, k.M, k.K, k.N) > apiMaxDim {
					continue
				}
				req := serve.KernelRequest{Op: k.Op.String(), B: k.B, M: k.M, K: k.K, N: k.N}
				if !seen[req] {
					seen[req] = true
					out = append(out, req)
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		if a.B != b.B {
			return a.B < b.B
		}
		if a.M != b.M {
			return a.M < b.M
		}
		if a.K != b.K {
			return a.K < b.K
		}
		return a.N < b.N
	})
	return out
}

// Mix shape shared by the two serving workloads.
const (
	batchLen   = 32
	graphBatch = 2
)

// hotPool is the hot-mix pool: 512 requests, kernel 0.5 / batch-of-32 0.3 /
// graph 0.2, over the fp32 shapes of BERT-Large and GPT2-Large at batch 2 on
// H100 and V100. The pool repeats, so after one pass about fifty keys stay
// cached. The kind shares and the graphs' (model, GPU) pairs are exact and
// only the order and the kernel shapes are drawn from the seed: a graph
// costs several times a kernel, so a seed-dependent mix would move the
// numbers by itself.
func hotPool(seed int64) []*op {
	names := []string{"BERT-Large", "GPT2-Large"}
	shapes := apiShapes(names, []int{graphBatch})
	gpus := []string{"H100", "V100"}
	rng := rand.New(rand.NewSource(seed))
	var pool []*op
	for i := 0; i < 256; i++ {
		k := shapes[rng.Intn(len(shapes))]
		k.GPU = gpus[i%2]
		pool = append(pool, kernelOp(k))
	}
	for i := 0; i < 154; i++ {
		ks := make([]serve.KernelRequest, batchLen)
		for j := range ks {
			ks[j] = shapes[rng.Intn(len(shapes))]
		}
		pool = append(pool, batchOp(gpus[i%2], ks))
	}
	for i := 0; i < 102; i++ {
		pool = append(pool, graphOp(names[i%2], gpus[i/2%2]))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// coldPool is the cold-mix pool: 4096 requests, kernel 0.5 / batch-of-32
// 0.5, each kernel drawn uniformly from the 507 API shapes of the six
// Table 5 models' inference graphs at batch 1, 2, 4, ..., 64 in fp32 or
// fp16, on the 12 GPUs in turn — 12,168 keys, three times the default
// cache. (The graphs hold 512 API-operator shapes; five batch-64 softmaxes
// exceed apiMaxDim.) As in hotPool, the kind shares are exact.
func coldPool(seed int64) []*op {
	var names []string
	for _, m := range models.Table5() {
		names = append(names, m.Name)
	}
	shapes := apiShapes(names, []int{1, 2, 4, 8, 16, 32, 64})
	var gpus []string
	for _, g := range gpu.All() {
		gpus = append(gpus, g.Name)
	}
	rng := rand.New(rand.NewSource(seed))
	draw := func() serve.KernelRequest {
		k := shapes[rng.Intn(len(shapes))]
		if rng.Intn(2) == 1 {
			k.DType = "fp16"
		}
		return k
	}
	var pool []*op
	for i := 0; i < 2048; i++ {
		k := draw()
		k.GPU = gpus[i%len(gpus)]
		pool = append(pool, kernelOp(k))
	}
	for i := 0; i < 2048; i++ {
		ks := make([]serve.KernelRequest, batchLen)
		for j := range ks {
			ks[j] = draw()
		}
		pool = append(pool, batchOp(gpus[i%len(gpus)], ks))
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool
}

// planFleets sizes each plan-matrix job: 12 GPUs x 3 strategies x 2 fleet
// sizes = 72 cells, about a quarter second with the learned engine. Short
// jobs give a run about a hundred job latencies, enough that one job
// stalled by the host does not set the run's p90 by itself.
const planFleets = 2

// planSpec is the plan-matrix job: GPT2-Large training over every GPU, all
// three strategies and fleet sizes 1..planFleets. The seed sets the
// evaluation order; the results do not depend on it.
func planSpec(seed int64) plan.Spec {
	spec := plan.Spec{Model: "GPT2-Large", Training: true, Strategies: []string{plan.StrategyDP, plan.StrategyTP, plan.StrategyPP}, Seed: seed}
	for _, g := range gpu.All() {
		spec.GPUs = append(spec.GPUs, g.Name)
	}
	for f := 1; f <= planFleets; f++ {
		spec.FleetSizes = append(spec.FleetSizes, f)
	}
	return spec
}

func kernelOp(k serve.KernelRequest) *op {
	o := &op{kind: kindKernel, path: "/v2/predict/kernel", kernel: serve.KernelRequestV2{KernelRequest: k}, units: 1}
	o.body = mustJSON(o.kernel)
	return o
}

func batchOp(g string, ks []serve.KernelRequest) *op {
	o := &op{kind: kindBatch, path: "/v2/predict/batch",
		batch: serve.BatchRequestV2{BatchRequest: serve.BatchRequest{GPU: g, Kernels: ks}}, units: uint64(len(ks))}
	o.body = mustJSON(o.batch)
	return o
}

func graphOp(workload, g string) *op {
	o := &op{kind: kindGraph, path: "/v2/predict/graph",
		graph: serve.GraphRequestV2{GraphRequest: serve.GraphRequest{Workload: workload, GPU: g, Batch: graphBatch}}}
	gr, _ := buildGraph(o.graph.GraphRequest)
	for _, k := range gr.Kernels() {
		if k.Category() != kernels.CatNetwork {
			o.units++
		}
	}
	o.body = mustJSON(o.graph)
	return o
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // request structs always marshal
	}
	return b
}

// buildKernel constructs the kernel a kernel request describes through the
// public constructors, mirroring the serving edge's request validation.
func buildKernel(req serve.KernelRequest) (kernels.Kernel, error) {
	op, ok := kernels.OpByName(req.Op)
	if !ok || !apiOps[op] {
		return kernels.Kernel{}, fmt.Errorf("unknown op %q", req.Op)
	}
	for _, d := range []int{req.B, req.M} {
		if d <= 0 {
			return kernels.Kernel{}, fmt.Errorf("%s requires positive dimensions", req.Op)
		}
	}
	var k kernels.Kernel
	switch op {
	case kernels.OpBMM:
		k = kernels.NewBMM(req.B, req.M, req.K, req.N)
	case kernels.OpLinear:
		k = kernels.NewLinear(req.M, req.K, req.N)
	case kernels.OpSoftmax:
		k = kernels.NewSoftmax(req.B, req.M)
	case kernels.OpLayerNorm:
		k = kernels.NewLayerNorm(req.B, req.M)
	case kernels.OpEmbedding:
		k = kernels.NewEmbedding(req.B, req.M, req.K)
	default:
		k = kernels.NewElementwise(op, req.B, req.M)
	}
	switch req.DType {
	case "", "fp32":
	case "fp16":
		k = k.WithDType(kernels.FP16)
	default:
		return kernels.Kernel{}, fmt.Errorf("unknown dtype %q", req.DType)
	}
	return k, nil
}

// buildGraph constructs the graph a graph request names, as the graph
// endpoint does: registry lookup, inference or training graph, optional
// fusion.
func buildGraph(req serve.GraphRequest) (*graph.Graph, models.Config) {
	m := models.MustLookup(req.Workload)
	var gr *graph.Graph
	if req.Training {
		gr = m.TrainingGraph(req.Batch)
	} else {
		gr = m.InferenceGraph(req.Batch)
	}
	if req.Fused {
		gr = graph.Fuse(gr)
	}
	return gr, m
}

// graphAnswer is the direct engine's answer to one graph request.
type graphAnswer struct {
	latency float64
	report  core.GraphReport
	warning string
	kernels int
}

// oracle holds the direct predict.Engine answer to every distinct kernel
// and graph the pool can ask for. It is built from the same model files the
// server loads, so a served forecast that differs from it is a defect.
type oracle struct {
	kernels map[serve.KernelRequest]predict.Result // keyed with GPU set
	graphs  map[serve.GraphRequest]graphAnswer
}

// newOracle asks eng for every distinct (kernel, GPU) and graph in pool.
func newOracle(ctx context.Context, eng predict.Engine, pool []*op) (*oracle, error) {
	o := &oracle{kernels: map[serve.KernelRequest]predict.Result{}, graphs: map[serve.GraphRequest]graphAnswer{}}
	var keys []serve.KernelRequest
	add := func(k serve.KernelRequest, g string) {
		k.GPU = g
		if _, ok := o.kernels[k]; !ok {
			o.kernels[k] = predict.Result{}
			keys = append(keys, k)
		}
	}
	for _, p := range pool {
		switch p.kind {
		case kindKernel:
			add(p.kernel.KernelRequest, p.kernel.GPU)
		case kindBatch:
			for _, k := range p.batch.Kernels {
				add(k, p.batch.GPU)
			}
		case kindGraph:
			req := p.graph.GraphRequest
			if _, ok := o.graphs[req]; ok {
				continue
			}
			gr, _ := buildGraph(req)
			lat, rep, err := predict.PredictGraphKernels(ctx, eng, gr.Kernels(), gpu.MustLookup(req.GPU))
			ans := graphAnswer{latency: lat, report: rep, kernels: len(gr.Nodes)}
			if err != nil {
				ans.warning = err.Error()
			}
			o.graphs[req] = ans
		}
	}
	reqs := make([]predict.Request, len(keys))
	for i, k := range keys {
		kern, err := buildKernel(k)
		if err != nil {
			return nil, err
		}
		reqs[i] = predict.Request{Kernel: kern, GPU: gpu.MustLookup(k.GPU)}
	}
	for i, out := range eng.PredictKernels(ctx, reqs) {
		if out.Err != nil {
			return nil, fmt.Errorf("direct forecast of %s on %s: %w", reqs[i].Kernel.Label(), keys[i].GPU, out.Err)
		}
		o.kernels[keys[i]] = out.Result
	}
	return o, nil
}

// check verifies one served response body against the direct answers.
func (o *oracle) check(p *op, body []byte) error {
	switch p.kind {
	case kindKernel:
		var resp serve.KernelResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode kernel response: %w", err)
		}
		want := o.kernels[p.kernel.KernelRequest]
		k, _ := buildKernel(p.kernel.KernelRequest)
		if resp.LatencyMs != want.Latency || resp.Utilization != want.Utilization ||
			resp.Engine != want.Engine || resp.Source != want.Source ||
			resp.Kernel != k.Label() || resp.GPU != p.kernel.GPU {
			return fmt.Errorf("kernel %s on %s: served %v ms (%s), direct engine %v ms", k.Label(), p.kernel.GPU, resp.LatencyMs, resp.Engine, want.Latency)
		}
	case kindBatch:
		var resp serve.BatchResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode batch response: %w", err)
		}
		if resp.Count != len(p.batch.Kernels) || len(resp.Items) != resp.Count || resp.GPU != p.batch.GPU {
			return fmt.Errorf("batch: %d items served for %d kernels", len(resp.Items), len(p.batch.Kernels))
		}
		for i, kr := range p.batch.Kernels {
			kr.GPU = p.batch.GPU
			want := o.kernels[kr]
			k, _ := buildKernel(kr)
			if it := resp.Items[i]; it.Error != "" || it.LatencyMs != want.Latency || it.Kernel != k.Label() {
				return fmt.Errorf("batch item %s on %s: served %v ms %q, direct engine %v ms", k.Label(), kr.GPU, it.LatencyMs, it.Error, want.Latency)
			}
		}
	case kindGraph:
		var resp serve.GraphResponseV2
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("decode graph response: %w", err)
		}
		want := o.graphs[p.graph.GraphRequest]
		if resp.LatencyMs != want.latency || resp.Report != want.report || resp.Warning != want.warning || resp.Kernels != want.kernels {
			return fmt.Errorf("graph %s on %s: served %v ms, direct engine %v ms", p.graph.Workload, p.graph.GPU, resp.LatencyMs, want.latency)
		}
	}
	return nil
}
