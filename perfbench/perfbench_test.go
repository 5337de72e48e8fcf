package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"

	"neusight/internal/core"
	"neusight/internal/dataset"
	"neusight/internal/gpu"
	"neusight/internal/gpusim"
	"neusight/internal/predict"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// tinyEngine trains a small NeuSight predictor in well under a second.
func tinyEngine(t *testing.T) *predict.CoreEngine {
	t.Helper()
	tdb := tile.NewDB()
	ds := dataset.Generate(dataset.GenConfig{Seed: 3, BMM: 40, FC: 20, EW: 16, Softmax: 8, LN: 8, GPUs: gpu.TrainSet()}, gpusim.New(), tdb)
	p := core.NewPredictor(core.Config{Hidden: 8, Layers: 1, Epochs: 2, BatchSize: 64, LR: 3e-3, Seed: 3}, tdb)
	p.Train(ds)
	return predict.NewCoreEngine(p)
}

func TestTracedEngineForwardsCapabilities(t *testing.T) {
	rec := newRecorder()
	for _, e := range []predict.Engine{tinyEngine(t), predict.NewRooflineEngine(), predict.NewSimEngine(gpusim.New())} {
		w := traceEngine(e, rec)
		if w.Name() != e.Name() {
			t.Errorf("%s: wrapped name %q", e.Name(), w.Name())
		}
		if predict.NativeBatch(w) != predict.NativeBatch(e) {
			t.Errorf("%s: native batch %v, unwrapped %v", e.Name(), predict.NativeBatch(w), predict.NativeBatch(e))
		}
		if predict.ShardAffinity(w) != predict.ShardAffinity(e) {
			t.Errorf("%s: shard affinity %q, unwrapped %q", e.Name(), predict.ShardAffinity(w), predict.ShardAffinity(e))
		}
		_, wGen := w.(predict.Generational)
		_, eGen := e.(predict.Generational)
		if wGen != eGen || predict.Generation(w) != predict.Generation(e) {
			t.Errorf("%s: generational %v (gen %d), unwrapped %v (gen %d)", e.Name(), wGen, predict.Generation(w), eGen, predict.Generation(e))
		}
	}
}

// TestTracedServiceMatchesPlain drives identical traffic through a service
// over the bare engines and one over traced engines: every reply, and the
// engine metadata, must be byte-identical, and the traced one must have
// recorded the engine calls.
func TestTracedServiceMatchesPlain(t *testing.T) {
	eng := tinyEngine(t)
	rec := newRecorder()
	plain := serve.NewHandler(serve.NewMulti(servedRegistry(eng, nil), predict.EngineNeuSight, serve.Config{}))
	traced := serve.NewHandler(serve.NewMulti(servedRegistry(eng, func(e predict.Engine) predict.Engine { return traceEngine(e, rec) }),
		predict.EngineNeuSight, serve.Config{}))

	type call struct {
		method, path string
		body         []byte
	}
	var calls []call
	for _, pool := range [][]*op{hotPool(1)[:48], coldPool(1)[:48]} {
		for _, o := range pool {
			calls = append(calls, call{http.MethodPost, o.path, o.body})
		}
	}
	for _, engine := range []string{predict.EngineRoofline, predict.EngineGPUSim} {
		o := kernelOp(serve.KernelRequest{Op: "linear", M: 512, K: 1024, N: 1024, GPU: "A100-40GB"})
		o.kernel.Engine = engine
		calls = append(calls, call{http.MethodPost, o.path, mustJSON(o.kernel)})
		g := graphOp("BERT-Large", "T4")
		g.graph.Engine = engine
		calls = append(calls, call{http.MethodPost, g.path, mustJSON(g.graph)})
	}
	calls = append(calls, calls...) // the second pass is served from the caches
	calls = append(calls, call{http.MethodGet, "/v2/engines", nil})
	for _, c := range calls {
		var replies [2][]byte
		for i, h := range []http.Handler{plain, traced} {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(c.method, c.path, bytes.NewReader(c.body)))
			if w.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", c.method, c.path, w.Code, w.Body.Bytes())
			}
			replies[i] = w.Body.Bytes()
		}
		if !bytes.Equal(replies[0], replies[1]) {
			t.Fatalf("%s %s %s:\nplain  %s\ntraced %s", c.method, c.path, c.body, replies[0], replies[1])
		}
	}
	engines := map[string]int{}
	for _, s := range rec.spans {
		engines[s.Name]++
	}
	if engines["engine.PredictKernels"] == 0 || engines["engine.PredictKernel"] == 0 {
		t.Errorf("traced engines recorded %v, want both batch and single-kernel calls", engines)
	}
}

func TestOracleAgreesWithServedAnswers(t *testing.T) {
	eng := tinyEngine(t)
	h := serve.NewHandler(serve.NewMulti(servedRegistry(eng, nil), predict.EngineNeuSight, serve.Config{}))
	pool := append(hotPool(2)[:40], coldPool(2)[:40]...)
	or, err := newOracle(context.Background(), eng, pool)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range pool {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
		if err := or.check(o, w.Body.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	// A tampered reply must fail the check.
	o := pool[0]
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
	tampered := bytes.Replace(w.Body.Bytes(), []byte(`"latency_ms":`), []byte(`"latency_ms":1`), 1)
	if err := or.check(o, tampered); err == nil {
		t.Error("check accepted a reply whose latency was altered")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		b      []float64
		better string
		want   string
	}{
		{shift(1.05), "lower", "within bound"},
		{shift(1.2), "lower", "worse"},
		{shift(0.8), "higher", "worse"},
		{shift(1.2), "higher", "within bound"},
		{[]float64{50, 150, 60, 140, 100, 90, 110, 70, 130, 100}, "lower", "unresolved"},
		{[]float64{50, 60, 55, 65, 52, 58, 61, 63, 54, 90}, "lower", "better"},
	} {
		if got := judge(base, tc.b, tc.better, 0.1); got != tc.want {
			t.Errorf("judge(%v, %s) = %q, want %q", tc.b, tc.better, got, tc.want)
		}
	}
}

// TestReportScalesTimingsByHostSpeed: each process's figures are scaled by
// the reference slots around it — on a host at half the nominal speed,
// timings read half their measured value and rates twice theirs — and
// memory is not scaled.
func TestReportScalesTimingsByHostSpeed(t *testing.T) {
	b := &bench{out: &run{}}
	// Process 0 ran between slots at half speed, process 1 between a
	// half-speed and a nominal slot (2/3 speed); CPU time says quarter
	// speed throughout.
	b.host.wall = []float64{2 * nominalRefNs, 2 * nominalRefNs, nominalRefNs}
	b.host.cpu = []float64{4 * nominalRefNs, 4 * nominalRefNs, 4 * nominalRefNs}
	b.report(&endToEnd{setup: []float64{0.04, 0.06}, p50: []float64{2, 3}, p90: []float64{8, 12},
		capacity: []float64{300, 200}, cpu: []float64{1000, 1000}, rss: []float64{20, 22}})
	for name, want := range map[string]float64{
		"unloaded_p50_ms": 1.5, "unloaded_p90_ms": 6, "capacity_per_s": 450,
		"cpu_us_per_op": 250, "rss_mb": 21, "setup_s": 0.03,
	} {
		if got := b.out.metrics[name].Value; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	if err := b.out.complete(); err != nil {
		t.Error(err)
	}
}

func TestCoveredMergesOverlaps(t *testing.T) {
	parent := span{Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 60, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 50 {
		t.Errorf("covered = %d, want 50 (10-40, 60-70, 90-100)", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json's metric lists in
// step with what the benchmark reports.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark reports %d", len(b.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEndMetrics[i] {
			t.Errorf("end_to_end[%d] = %s, the benchmark reports %s", i, m.Name, endToEndMetrics[i])
		}
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, layerMetrics %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range b.PerLayer {
		want := layerMetrics[i]
		if m.Name != want.Name || m.Unit != want.Unit || m.Better != want.Better {
			t.Errorf("per_layer[%d] = %+v, layerMetrics has %+v", i, m, want)
		}
	}
}

// TestSpecJSONMatchesBenchmark keeps spec.json's workload and metric names
// in step with BENCHMARK.json and the benchmark.
func TestSpecJSONMatchesBenchmark(t *testing.T) {
	var spec, bench struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	for path, v := range map[string]any{"spec.json": &spec, "../BENCHMARK.json": &bench} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return out
	}
	for _, pair := range [][2][]string{
		{names(spec.Workloads), names(bench.Workloads)},
		{names(spec.Workloads), workloads},
		{names(spec.EndToEnd), names(bench.EndToEnd)},
		{names(spec.PerLayer), names(bench.PerLayer)},
	} {
		if fmt.Sprint(pair[0]) != fmt.Sprint(pair[1]) {
			t.Errorf("spec.json lists %v, want %v", pair[0], pair[1])
		}
	}
}
