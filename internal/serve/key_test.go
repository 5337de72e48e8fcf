package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"neusight/internal/baselines"
	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/models"
	"neusight/internal/predict"
)

// labelTwins are two 1x1 convolutions, Cin 64 -> Cout 8: a 56x56 input at
// stride 1 and a 112x112 input at stride 2. Both lower to the same
// implicit GEMM and label as conv2d[3136x64->8], but the second reads four
// times the input, so their forecasts differ.
func labelTwins(t *testing.T) (kernels.Kernel, kernels.Kernel) {
	t.Helper()
	a := kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 64, H: 56, W: 56, Cout: 8, Kh: 1, Kw: 1, Stride: 1})
	b := kernels.NewConv2D(kernels.Conv2DShape{Batch: 1, Cin: 64, H: 112, W: 112, Cout: 8, Kh: 1, Kw: 1, Stride: 2})
	if a.Label() != b.Label() || a.Label() != "conv2d[3136x64->8]" {
		t.Fatalf("labels %q and %q: the pair no longer collides", a.Label(), b.Label())
	}
	if a.Key() == b.Key() {
		t.Fatal("the pair shares a key")
	}
	return a, b
}

func TestLabelTwinsServeTheirOwnForecasts(t *testing.T) {
	a, b := labelTwins(t)
	g := gpu.MustLookup("H100")
	eng := predict.NewRooflineEngine()
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 64})
	for _, k := range []kernels.Kernel{a, b, a, b} {
		want, err := eng.PredictKernel(context.Background(), predict.Request{Kernel: k, GPU: g})
		if err != nil {
			t.Fatal(err)
		}
		got, err := svc.PredictKernelEngine(context.Background(), "", k, g)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s with %v input elements: served %+v, engine says %+v", k.Label(), k.ConvInputElems, got, want)
		}
	}
	if n := svc.Stats().CacheLen; n != 2 {
		t.Errorf("cache holds %d entries, want one per twin", n)
	}
}

// rooflineCounter is the roofline engine under another name, counting its
// evaluations.
func rooflineCounter(name string, calls *atomic.Int64) predict.Engine {
	return predict.NewFuncEngine(name, predict.SourceAnalytical, func(k kernels.Kernel, g gpu.Spec) (float64, error) {
		calls.Add(1)
		return baselines.Roofline{}.PredictKernel(k, g)
	})
}

func TestTraceRecordsAndWarmsLabelTwins(t *testing.T) {
	a, b := labelTwins(t)
	g := gpu.MustLookup("V100")
	path := filepath.Join(t.TempDir(), "twins.jsonl")

	var callsA atomic.Int64
	regA := predict.NewRegistry()
	regA.MustRegister(rooflineCounter("roof", &callsA))
	svcA := NewMulti(regA, "roof", Config{CacheSize: 64})
	rec, err := NewTraceRecorder(path)
	if err != nil {
		t.Fatal(err)
	}
	svcA.SetTraceRecorder(rec)
	for _, k := range []kernels.Kernel{a, b} {
		if _, err := svcA.PredictKernel(k, g); err != nil {
			t.Fatal(err)
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	entries, _, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("trace holds %d entries, want both twins", len(entries))
	}

	// A restart warms both twins: their first live requests are cache hits
	// and answer each twin's own forecast.
	var callsB atomic.Int64
	regB := predict.NewRegistry()
	regB.MustRegister(rooflineCounter("roof", &callsB))
	svcB := NewMulti(regB, "roof", Config{CacheSize: 64})
	ws, err := svcB.WarmFromTrace(context.Background(), path)
	if err != nil || ws.Warmed != 2 {
		t.Fatalf("warmup = %+v, %v; want both twins warmed", ws, err)
	}
	hits := svcB.Stats().CacheHits
	for _, k := range []kernels.Kernel{a, b} {
		got, err := svcB.PredictKernel(k, g)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := (baselines.Roofline{}).PredictKernel(k, g); got != want {
			t.Errorf("%s with %v input elements: warmed forecast %v, want %v", k.Label(), k.ConvInputElems, got, want)
		}
	}
	if n := svcB.Stats().CacheHits - hits; n != 2 || callsB.Load() != 2 {
		t.Errorf("after warmup: %d cache hits and %d engine calls, want 2 and 2", n, callsB.Load())
	}
}

// serveGraph posts one /v2/predict/graph request straight to the handler.
func serveGraph(t *testing.T, h http.Handler, req GraphRequestV2) GraphResponseV2 {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v2/predict/graph", bytes.NewReader(body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%+v: status %d: %s", req, w.Code, w.Body.Bytes())
	}
	var resp GraphResponseV2
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestGraphEndpointMatchesDirectFold serves every Table 5 workload, both
// modes, fused and unfused, at two batch sizes on two GPUs, and requires
// the first reply and the memoized repeat to equal the direct engine fold
// bit for bit. The flaky engine fails every softmax, so the fallback
// accounting and the warning are compared too.
func TestGraphEndpointMatchesDirectFold(t *testing.T) {
	flaky := predict.NewFuncEngine("flaky", predict.SourceRegression, func(k kernels.Kernel, g gpu.Spec) (float64, error) {
		if k.Category() == kernels.CatSoftmax {
			return 0, &kernelError{k.Label()}
		}
		return baselines.Roofline{}.PredictKernel(k, g)
	})
	engines := []predict.Engine{predict.NewRooflineEngine(), flaky}
	reg := predict.NewRegistry()
	for _, e := range engines {
		reg.MustRegister(e)
	}
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 256})
	h := NewHandler(svc)
	ctx := context.Background()

	for _, m := range models.Table5() {
		for _, training := range []bool{false, true} {
			for _, fused := range []bool{false, true} {
				for _, batch := range []int{1, 8} {
					gr := m.InferenceGraph(batch)
					if training {
						gr = m.TrainingGraph(batch)
					}
					if fused {
						gr = graph.Fuse(gr)
					}
					predictable := 0
					for _, n := range gr.Nodes {
						if n.Kernel.Category() != kernels.CatNetwork {
							predictable++
						}
					}
					for _, gname := range []string{"H100", "V100"} {
						g := gpu.MustLookup(gname)
						for _, e := range engines {
							lat, rep, err := predict.PredictGraphKernels(ctx, e, gr.Kernels(), g)
							warning := ""
							if err != nil {
								warning = err.Error()
							}
							want := GraphResponse{
								Workload: m.Name, GPU: g.Name, Batch: batch, Training: training, Fused: fused,
								Kernels: len(gr.Nodes), TotalFLOPs: gr.TotalFLOPs(), LatencyMs: lat,
								FitsMemory: m.FitsInMemory(batch, g, training),
							}
							req := GraphRequestV2{GraphRequest: GraphRequest{Workload: m.Name, GPU: gname, Batch: batch, Training: training, Fused: fused}, Engine: e.Name()}
							for _, pass := range []string{"first", "memoized"} {
								before := svc.Stats().Requests
								got := serveGraph(t, h, req)
								name := fmt.Sprintf("%s %s batch %d training=%v fused=%v on %s (%s request)", e.Name(), m.Name, batch, training, fused, gname, pass)
								if got.GraphResponse != want || math.Float64bits(got.LatencyMs) != math.Float64bits(lat) {
									t.Errorf("%s: served %+v, direct %+v", name, got.GraphResponse, want)
								}
								if got.Report != rep || got.Warning != warning {
									t.Errorf("%s: report %+v %q, direct %+v %q", name, got.Report, got.Warning, rep, warning)
								}
								if moved := svc.Stats().Requests - before; moved != uint64(predictable) {
									t.Errorf("%s: requests moved by %d, want %d", name, moved, predictable)
								}
							}
						}
					}
				}
			}
		}
	}
}

func TestPredictGraphEngineMatchesDirectFold(t *testing.T) {
	eng := predict.NewRooflineEngine()
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 64})
	g := gpu.MustLookup("A100-40GB")
	gr := models.ResNet50TrainingGraph(4)
	want, wantRep, wantErr := predict.PredictGraphKernels(context.Background(), eng, gr.Kernels(), g)
	for pass := 0; pass < 2; pass++ {
		got, rep, err := svc.PredictGraphEngine(context.Background(), "", gr, g)
		if math.Float64bits(got) != math.Float64bits(want) || rep != wantRep || (err == nil) != (wantErr == nil) {
			t.Errorf("pass %d: served %v %+v %v, direct %v %+v %v", pass, got, rep, err, want, wantRep, wantErr)
		}
	}
	if st := svc.Stats(); st.Requests != uint64(2*wantRep.Kernels) || st.GraphRequests != 2 {
		t.Errorf("stats = %d requests, %d graphs; want %d and 2", st.Requests, st.GraphRequests, 2*wantRep.Kernels)
	}
}

func TestWorkloadMemoStaysBounded(t *testing.T) {
	reg := predict.NewRegistry()
	reg.MustRegister(predict.NewRooflineEngine())
	svc := NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 64})
	h := NewHandler(svc)
	for batch := 1; batch <= workloadMemoCap+10; batch++ {
		serveGraph(t, h, GraphRequestV2{GraphRequest: GraphRequest{Workload: "BERT-Large", GPU: "T4", Batch: batch}})
		svc.wmu.Lock()
		n := len(svc.workloads)
		svc.wmu.Unlock()
		if n > workloadMemoCap {
			t.Fatalf("after %d distinct graphs the memo holds %d, cap %d", batch, n, workloadMemoCap)
		}
	}
}

func TestCompactGraphFoldsLikeTheExpandedGraph(t *testing.T) {
	gr := models.MustLookup("GPT2-Large").InferenceGraph(2)
	cg := compact(gr)
	if cg.nodes != len(gr.Nodes) || cg.flops != gr.TotalFLOPs() {
		t.Fatalf("compact form: %d nodes, %v FLOPs; graph %d, %v", cg.nodes, cg.flops, len(gr.Nodes), gr.TotalFLOPs())
	}
	positions := 0
	for j, c := range cg.counts {
		positions += c
		for i, k := range cg.kernels {
			if i != j && k.Key() == cg.kernels[j].Key() {
				t.Fatalf("kernels %d and %d share a key", i, j)
			}
		}
	}
	if positions != len(cg.index) || positions+cg.network != len(gr.Nodes) {
		t.Fatalf("%d positions in counts, %d in the index, %d network, %d nodes", positions, len(cg.index), cg.network, len(gr.Nodes))
	}
	// Expanding the index reproduces the node sequence.
	i := 0
	for _, n := range gr.Nodes {
		if n.Kernel.Category() == kernels.CatNetwork {
			continue
		}
		if cg.kernels[cg.index[i]].Key() != n.Kernel.Key() {
			t.Fatalf("position %d expands to %s, node is %s", i, cg.kernels[cg.index[i]].Label(), n.Kernel.Label())
		}
		i++
	}
	if len(cg.kernels)*10 > len(cg.index) {
		t.Errorf("%d distinct kernels of %d positions: a transformer graph should repeat its layer shapes", len(cg.kernels), len(cg.index))
	}
	var rep core.GraphReport
	lats := make([]float64, len(cg.kernels))
	errs := make([]error, len(cg.kernels))
	for j := range lats {
		lats[j] = float64(j) + 0.1
	}
	total, _ := core.FoldPredictions(lats, errs, cg.kernels, cg.index, gpu.MustLookup("H100"), &rep)
	want := 0.0
	for _, j := range cg.index {
		want += lats[j]
	}
	if total != want || rep.Kernels != len(cg.index) || rep.Predicted != len(cg.index) {
		t.Errorf("fold = %v %+v, want %v over %d positions", total, rep, want, len(cg.index))
	}
}

func TestWorkloadMemoConcurrentRequests(t *testing.T) {
	eng := predict.NewRooflineEngine()
	reg := predict.NewRegistry()
	reg.MustRegister(eng)
	h := NewHandler(NewMulti(reg, predict.EngineRoofline, Config{CacheSize: 256}))
	g := gpu.MustLookup("L4")
	m := models.MustLookup("GPT2-Large")
	want := map[int]float64{}
	for _, batch := range []int{1, 2, 3} {
		want[batch], _, _ = predict.PredictGraphKernels(context.Background(), eng, graph.Fuse(m.InferenceGraph(batch)).Kernels(), g)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				batch := 1 + (w+i)%3
				body, _ := json.Marshal(GraphRequest{Workload: m.Name, GPU: g.Name, Batch: batch, Fused: true})
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/predict/graph", bytes.NewReader(body)))
				var resp GraphResponseV2
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK {
					t.Errorf("batch %d: status %d: %s", batch, rec.Code, rec.Body.Bytes())
					return
				}
				if resp.LatencyMs != want[batch] {
					t.Errorf("batch %d: served %v, direct %v", batch, resp.LatencyMs, want[batch])
				}
			}
		}(w)
	}
	wg.Wait()
}
