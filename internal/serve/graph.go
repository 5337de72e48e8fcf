package serve

import (
	"context"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/predict"
)

// compactGraph is a graph's predictable kernels as a multiset: each
// distinct kernel once, how many positions it fills, and the node-order
// index that folds the per-kernel forecasts back into the graph total.
// Transformer graphs repeat a few shapes in every layer, so the distinct
// set is a few percent of the positions. A compactGraph is immutable once
// built; the workload memo shares one across concurrent requests.
type compactGraph struct {
	kernels []kernels.Kernel // distinct non-network kernels, first-seen order
	counts  []int            // counts[j]: positions holding kernels[j]
	index   []int32          // per non-network position, in node order: its kernels index
	network int              // network kernels, priced by the distributed layer
	nodes   int              // every node, network kernels included
	flops   float64          // the graph's TotalFLOPs
}

// compact dedups gr's non-network kernels by their typed key.
func compact(gr *graph.Graph) *compactGraph {
	cg := &compactGraph{index: make([]int32, 0, len(gr.Nodes)), nodes: len(gr.Nodes), flops: gr.TotalFLOPs()}
	seen := make(map[kernels.Key]int32)
	for _, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			cg.network++
			continue
		}
		key := n.Kernel.Key()
		j, ok := seen[key]
		if !ok {
			j = int32(len(cg.kernels))
			seen[key] = j
			cg.kernels = append(cg.kernels, n.Kernel)
			cg.counts = append(cg.counts, 0)
		}
		cg.counts[j]++
		cg.index = append(cg.index, j)
	}
	return cg
}

// predictGraph forecasts a compacted graph with the named engine: only
// the distinct kernels go through the batched prediction machinery (cache
// hits served directly, misses collapsed into one backend round), and the
// fold walks the node-order index, so the total is bit-identical to
// folding every position. The request and error counters still count
// every position; cache hits and misses count the distinct kernels.
func (s *Service) predictGraph(ctx context.Context, engine string, cg *compactGraph, g gpu.Spec) (float64, core.GraphReport, error) {
	es, err := s.engine(engine)
	if err != nil {
		return 0, core.GraphReport{}, err
	}
	s.graphs.Add(1)
	rep := core.GraphReport{Network: cg.network}
	outs, err := s.predictMany(ctx, es, cg.kernels, cg.counts, g)
	if err != nil {
		// Whole-batch rejection (saturated shard): the forecast never ran,
		// so there is no total to fold — callers surface backpressure
		// instead of serving a fallback-assembled number.
		return 0, rep, err
	}
	total, err := predict.FoldOutcomes(outs, cg.kernels, cg.index, g, &rep)
	return total, rep, err
}

// workloadKey names one registered workload graph.
type workloadKey struct {
	name            string // canonical models.Config name
	batch           int
	training, fused bool
}

// workloadMemoCap bounds the workload-graph memo. Past it the memo is
// dropped wholesale, like the tile DB memo: traffic repeats a handful of
// (workload, batch) pairs, so it refills with the live set at once.
const workloadMemoCap = 64

// workloadGraph returns the compacted graph of workload m, memoized:
// model configs are static, so a repeated (workload, batch, training,
// fused) request skips the graph build, the fusion pass and the dedup.
func (s *Service) workloadGraph(m models.Config, batch int, training, fused bool) *compactGraph {
	key := workloadKey{name: m.Name, batch: batch, training: training, fused: fused}
	s.wmu.Lock()
	cg, ok := s.workloads[key]
	s.wmu.Unlock()
	if ok {
		return cg
	}
	var gr *graph.Graph
	if training {
		gr = m.TrainingGraph(batch)
	} else {
		gr = m.InferenceGraph(batch)
	}
	if fused {
		gr = graph.Fuse(gr)
	}
	cg = compact(gr)
	s.wmu.Lock()
	if len(s.workloads) >= workloadMemoCap {
		clear(s.workloads)
	}
	s.workloads[key] = cg
	s.wmu.Unlock()
	return cg
}
