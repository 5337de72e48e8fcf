package experiments

import (
	"context"
	"fmt"
	"sort"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/metrics"
	"neusight/internal/models"
	"neusight/internal/predict"
)

// workload is one (model, batch) evaluation point of Figure 7.
type workload struct {
	Model models.Config
	Batch int
}

// fig7Workloads returns the paper's per-model batch sizes (Section 6.2 /
// Table 6 use small generation batches for the large models and larger
// batches for BERT).
func fig7Workloads() []workload {
	batches := map[string][]int{
		"BERT-Large":  {8, 16},
		"GPT2-Large":  {4, 8},
		"GPT3-XL":     {2, 4},
		"OPT-1.3B":    {2, 4},
		"GPT3-2.7B":   {2, 4},
		"SwitchTrans": {4, 8},
	}
	var out []workload
	for _, c := range models.Table5() {
		for _, b := range batches[c.Name] {
			out = append(out, workload{Model: c, Batch: b})
		}
	}
	return out
}

// fig7GPUs is the 8-device NVIDIA evaluation set.
func fig7GPUs() []gpu.Spec {
	names := []string{"P4", "P100", "V100", "T4", "A100-40GB", "A100-80GB", "L4", "H100"}
	out := make([]gpu.Spec, len(names))
	for i, n := range names {
		out[i] = gpu.MustLookup(n)
	}
	return out
}

// Fig7 reproduces Figure 7: end-to-end inference (a) and training (b)
// latency prediction error of NeuSight and the baselines across models,
// batch sizes, and GPUs. OOM combinations are omitted as in the paper.
// Summary rows report the mean error per predictor overall and restricted
// to out-of-distribution GPUs.
func Fig7(lab *Lab) []*Table {
	var tables []*Table
	for _, training := range []bool{false, true} {
		id, title := "fig7a", "Inference latency prediction percentage error"
		if training {
			id, title = "fig7b", "Training latency prediction percentage error"
		}
		t := &Table{ID: id, Title: title}
		t.Columns = []string{"Model", "Batch", "GPU", "Measured (ms)"}
		for _, p := range lab.Engines() {
			t.Columns = append(t.Columns, p.Name())
		}

		all := map[string][]float64{}  // predictor -> errors
		oodG := map[string][]float64{} // predictor -> errors on unseen GPUs
		for _, w := range fig7Workloads() {
			gr := w.Model.InferenceGraph(w.Batch)
			if training {
				gr = w.Model.TrainingGraph(w.Batch)
			}
			ks := gr.Kernels()
			for _, g := range fig7GPUs() {
				if !w.Model.FitsInMemory(w.Batch, g, training) {
					continue // paper: "models resulting in OOM are omitted"
				}
				measured := lab.MeasureGraph(ks, g)
				row := []string{w.Model.Name, fmt.Sprintf("%d", w.Batch), labelGPU(g), ms(measured)}
				for _, p := range lab.Engines() {
					pred := PredictGraphWith(p, ks, g)
					e := metrics.APE(pred, measured)
					row = append(row, pct(e))
					all[p.Name()] = append(all[p.Name()], e)
					if isOODGPU(g) {
						oodG[p.Name()] = append(oodG[p.Name()], e)
					}
				}
				t.Rows = append(t.Rows, row)
			}
		}
		avgRow := []string{"AVERAGE", "", "", ""}
		oodRow := []string{"AVERAGE (OOD GPUs)", "", "", ""}
		maxRow := []string{"MAX (OOD GPUs)", "", "", ""}
		for _, p := range lab.Engines() {
			avgRow = append(avgRow, pct(metrics.Mean(all[p.Name()])))
			oodRow = append(oodRow, pct(metrics.Mean(oodG[p.Name()])))
			maxRow = append(maxRow, pct(metrics.Max(oodG[p.Name()])))
		}
		t.Rows = append(t.Rows, avgRow, oodRow, maxRow)
		tables = append(tables, t)
	}
	return tables
}

func isOODGPU(g gpu.Spec) bool {
	for _, t := range gpu.TestSet() {
		if t.Name == g.Name {
			return true
		}
	}
	return false
}

// fig8Categories is the presentation order of Figure 8.
var fig8Categories = []kernels.Category{
	kernels.CatBMM, kernels.CatLinear, kernels.CatElementwise,
	kernels.CatSoftmax, kernels.CatLayerNorm,
}

// Fig8 reproduces Figure 8: per-operator-type prediction error averaged
// over the Figure 7 workloads, split in-distribution vs out-of-distribution
// GPUs.
func Fig8(lab *Lab) *Table {
	t := &Table{
		ID:    "fig8",
		Title: "Per-operator prediction percentage error (in-dist / OOD GPUs)",
	}
	t.Columns = []string{"Operator"}
	for _, p := range lab.Engines() {
		t.Columns = append(t.Columns, p.Name()+" (in)", p.Name()+" (OOD)")
	}

	type key struct {
		pred string
		cat  kernels.Category
		ood  bool
	}
	errs := map[key][]float64{}
	ctx := context.Background()
	// One representative batch per model keeps the sweep affordable while
	// covering every operator shape.
	for _, w := range fig7Workloads()[:len(fig7Workloads())] {
		ks := uniqueKernels(w.Model.InferenceGraph(w.Batch).Kernels())
		for _, g := range fig7GPUs() {
			if !w.Model.FitsInMemory(w.Batch, g, false) {
				continue
			}
			for _, k := range ks {
				cat := k.Category()
				if !isFig8Cat(cat) {
					continue
				}
				measured := lab.Sim.KernelLatency(k, g)
				for _, p := range lab.Engines() {
					res, err := p.PredictKernel(ctx, predict.Request{Kernel: k, GPU: g})
					if err != nil {
						continue
					}
					errs[key{p.Name(), cat, isOODGPU(g)}] = append(errs[key{p.Name(), cat, isOODGPU(g)}], metrics.APE(res.Latency, measured))
				}
			}
		}
	}
	for _, cat := range fig8Categories {
		row := []string{cat.String()}
		for _, p := range lab.Engines() {
			row = append(row,
				pct(metrics.Mean(errs[key{p.Name(), cat, false}])),
				pct(metrics.Mean(errs[key{p.Name(), cat, true}])))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func isFig8Cat(c kernels.Category) bool {
	for _, f := range fig8Categories {
		if c == f {
			return true
		}
	}
	return false
}

// uniqueKernels deduplicates repeated per-layer kernels by key.
func uniqueKernels(ks []kernels.Kernel) []kernels.Kernel {
	seen := map[kernels.Key]bool{}
	var out []kernels.Kernel
	for _, k := range ks {
		if key := k.Key(); !seen[key] {
			seen[key] = true
			out = append(out, k)
		}
	}
	return out
}

// Table6 reproduces Table 6: the contribution of each operator type to
// end-to-end inference latency on H100.
func Table6(lab *Lab) *Table {
	t := &Table{
		ID:      "table6",
		Title:   "Per-operator contribution to H100 inference latency",
		Columns: []string{"Model", "Batch Size", "BMM", "LINEAR", "EW", "SOFTMAX", "LN", "OTHERS"},
	}
	h100 := gpu.MustLookup("H100")
	rows := []workload{
		{models.MustLookup("BERT-Large"), 16},
		{models.MustLookup("GPT2-Large"), 4},
		{models.MustLookup("OPT-1.3B"), 2},
		{models.MustLookup("GPT3-XL"), 2},
	}
	for _, w := range rows {
		gr := w.Model.InferenceGraph(w.Batch)
		byCat := gr.LatencyByCategory(func(k kernels.Kernel) float64 {
			return lab.Sim.KernelLatency(k, h100)
		})
		total := 0.0
		cats := make([]kernels.Category, 0, len(byCat))
		for c, v := range byCat {
			total += v
			cats = append(cats, c)
		}
		sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
		share := func(c kernels.Category) string { return pct(byCat[c] / total * 100) }
		others := byCat[kernels.CatMemoryBound] / total * 100
		t.AddRow(w.Model.Name, fmt.Sprintf("%d", w.Batch),
			share(kernels.CatBMM), share(kernels.CatLinear), share(kernels.CatElementwise),
			share(kernels.CatSoftmax), share(kernels.CatLayerNorm), pct(others))
	}
	return t
}
