package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"neusight/internal/gpu"
	"neusight/internal/kernels"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/serve"
	"neusight/internal/tile"
)

// span is one timed interval of the traced replay. Spans of one operation
// share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
	Name   string `json:"name"`
	Kind   string `json:"kind,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // kernels an engine call or key span covered
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the spans of one traced run in memory. The replay runs
// one operation at a time on one goroutine, which opens and closes spans;
// engine calls may arrive from the service's worker goroutines and are
// recorded as leaves under the innermost open span.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int32 // stack of open span IDs, innermost last
	req   int32
	kind  string
	// lastReqs is the most recent engine call's requests, kept so the
	// replay can time key building over exactly the kernels the engine saw.
	lastReqs []predict.Request
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) int32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: r.parentLocked(), Req: r.req, Name: name, Kind: r.kind, Start: r.now()})
	r.open = append(r.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// leaf records a finished span under the innermost open one.
func (r *recorder) leaf(name string, start int64, n int, reqs []predict.Request) {
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int32(len(r.spans) + 1), Parent: r.parentLocked(), Req: r.req, Name: name, Kind: r.kind, Start: start, End: end, N: n})
	r.lastReqs = reqs
}

func (r *recorder) parentLocked() int32 {
	if len(r.open) == 0 {
		return 0
	}
	return r.open[len(r.open)-1]
}

// write saves the spans as JSON lines.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedEngine records a span around every call into the engine it wraps.
// It forwards each capability the serving layer and the planner consult
// (native batching, shard affinity, and — via tracedGenEngine — state
// generations), so a Service built over it takes exactly the path it takes
// over the bare engine.
type tracedEngine struct {
	predict.Engine
	rec *recorder
}

// tracedGenEngine is a tracedEngine over a Generational engine. A wrapper
// must not claim a generation its engine lacks: the service folds a
// generation into cache keys only for Generational engines.
type tracedGenEngine struct{ *tracedEngine }

// traceEngine wraps e so that every engine call records a span into rec.
func traceEngine(e predict.Engine, rec *recorder) predict.Engine {
	t := &tracedEngine{Engine: e, rec: rec}
	if _, ok := e.(predict.Generational); ok {
		return tracedGenEngine{t}
	}
	return t
}

func (e *tracedEngine) PredictKernel(ctx context.Context, req predict.Request) (predict.Result, error) {
	start := e.rec.now()
	res, err := e.Engine.PredictKernel(ctx, req)
	e.rec.leaf("engine.PredictKernel", start, 1, []predict.Request{req})
	return res, err
}

func (e *tracedEngine) PredictKernels(ctx context.Context, reqs []predict.Request) []predict.Outcome {
	start := e.rec.now()
	outs := e.Engine.PredictKernels(ctx, reqs)
	e.rec.leaf("engine.PredictKernels", start, len(reqs), reqs)
	return outs
}

func (e *tracedEngine) NativeBatch() bool { return predict.NativeBatch(e.Engine) }

func (e *tracedEngine) ShardAffinity() string { return predict.ShardAffinity(e.Engine) }

func (e tracedGenEngine) Generation() uint64 { return predict.Generation(e.Engine) }

// newService builds a service the way `neusight serve -model` does, over a
// fresh load of the model files (so passes never share predictor caches),
// with every engine traced into rec when rec is non-nil.
func (b *bench) newService(rec *recorder) (*serve.Service, error) {
	eng, err := loadEngine(b.files)
	if err != nil {
		return nil, err
	}
	var wrap func(predict.Engine) predict.Engine
	if rec != nil {
		wrap = func(e predict.Engine) predict.Engine { return traceEngine(e, rec) }
	}
	return serve.NewMulti(servedRegistry(eng, wrap), predict.EngineNeuSight, serve.Config{}), nil
}

// Replay sizes: operations replayed per pass, and at most this many rounds.
const (
	replayOps    = 512
	replayRounds = 8
)

// traceServing replays the pool in process through three services built
// from the same model files: untraced stage calls, traced stage calls, and
// the traced HTTP handler. The first two give trace.overhead_pct; the
// stage spans and the handler total give the per-layer metrics.
func (b *bench) traceServing(ctx context.Context, pool []*op, or *oracle) error {
	rec := newRecorder()
	plain, err := b.newService(nil)
	if err != nil {
		return err
	}
	staged, err := b.newService(rec)
	if err != nil {
		return err
	}
	handled, err := b.newService(rec)
	if err != nil {
		return err
	}
	handler := serve.NewHandler(handled)
	// Measure on the pool's first replayOps operations after warming each
	// service with the next replayOps, so the cold mix meets a full cache
	// without replaying the very keys it is about to be measured on.
	ops, warm := pool[:replayOps], pool
	if len(pool) >= 2*replayOps {
		warm = pool[replayOps : 2*replayOps]
	}
	for _, o := range warm {
		for _, svc := range []*serve.Service{plain, staged} {
			if err := stages(ctx, svc, o, nil, nil); err != nil {
				return err
			}
		}
		handle(handler, o)
	}
	rec.spans, rec.lastReqs = nil, nil

	// Per kind: heap allocations inside the handler, and a graph's kernels
	// and distinct keys.
	var allocs [numKinds]uint64
	graphKernels, graphUnique := 0, 0
	var plainTime, tracedTime time.Duration
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	replayed := 0
	budget := time.Now().Add(b.seconds / 2)
	var buf bytes.Buffer
	for round := 0; round < replayRounds && (round == 0 || time.Now().Before(budget)); round++ {
		// Each operation goes through the three services in turn, so drift
		// in the host's speed hits the untraced, staged and handler timings
		// alike.
		for i, o := range ops {
			t := time.Now()
			err := stages(ctx, plain, o, nil, &buf)
			plainTime += time.Since(t)
			if err != nil {
				return err
			}

			rec.req, rec.kind = int32(round*len(ops)+i+1), o.kind.String()
			t = time.Now()
			err = stages(ctx, staged, o, rec, &buf)
			tracedTime += time.Since(t)
			if err != nil {
				return err
			}
			if err := or.check(o, buf.Bytes()); err != nil {
				b.out.fail("traced stage replay: %v", err)
			}

			req := httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body))
			w := httptest.NewRecorder()
			a0 := heapAllocs()
			id := rec.begin("http.handler")
			handler.ServeHTTP(w, req)
			rec.end(id)
			allocs[o.kind] += heapAllocs() - a0
			if w.Code != http.StatusOK {
				b.out.fail("traced handler replay: %s: status %d: %s", o.path, w.Code, w.Body.Bytes())
			} else if err := or.check(o, w.Body.Bytes()); err != nil {
				b.out.fail("traced handler replay: %v", err)
			}

			// Key building, timed over exactly the kernels the request asks
			// for, outside the handler span.
			ks, g := opKernels(o)
			id = rec.begin("tile.QueryKey")
			for _, k := range ks {
				tile.QueryKey(k, g)
			}
			rec.end(id)
			rec.spans[id-1].N = len(ks)
			if o.kind == kindGraph {
				keys := map[string]bool{}
				for _, k := range ks {
					keys[tile.QueryKey(k, g)] = true
				}
				graphKernels += len(ks)
				graphUnique += len(keys)
			}
		}
		replayed += 3 * len(ops)
	}
	runtime.ReadMemStats(&gc1)
	b.out.attempted += replayed

	sum := summarize(rec.spans)
	var keyTime, engineTime, reqTime, handlerTime time.Duration
	keyKernels, engineKernels, engineCalls, reqs := 0, 0, 0, 0
	for k := kind(0); k < numKinds; k++ {
		agg := sum[k]
		keyTime += agg.time["tile.QueryKey"]
		keyKernels += agg.n["tile.QueryKey"]
		engineTime += agg.childTime["service"]
		engineKernels += agg.childN["service"]
		engineCalls += agg.childCount["service"]
		reqTime += agg.time["request"]
		handlerTime += agg.time["http.handler"]
		ops, handled := agg.count["request"], agg.count["http.handler"]
		reqs += ops
		if ops == 0 {
			continue
		}
		name := k.String()
		mean := func(d time.Duration) float64 { return us(d) / float64(ops) }
		decode, build, encode := mean(agg.time["json.decode"]), mean(agg.time["build"]), mean(agg.time["json.encode"])
		service, handler := mean(agg.time["service"]), us(agg.time["http.handler"])/float64(handled)
		b.out.setLayer("serve.decode_us."+name, decode, ops)
		b.out.setLayer("serve.build_us."+name, build, ops)
		b.out.setLayer("serve.encode_us."+name, encode, ops)
		b.out.setLayer("serve.service_self_us."+name, service-mean(agg.childTime["service"]), ops)
		b.out.setLayer("serve.handler_us."+name, handler, handled)
		b.out.setLayer("serve.unattributed_us."+name, handler-decode-build-service-encode, handled)
		b.out.setLayer("serve.allocs_per_req."+name, float64(allocs[k])/float64(handled), handled)
		if k == kindGraph {
			b.out.setLayer("models.graph_build_us", mean(agg.time["models.graph_build"]), ops)
			b.out.setLayer("graph.kernels_per_req", float64(graphKernels)/float64(handled), handled)
			b.out.setLayer("graph.unique_ratio", float64(graphUnique)/float64(graphKernels), handled)
		}
	}
	b.out.setLayer("tile.key_us_per_kernel", us(keyTime)/float64(keyKernels), keyKernels)
	b.out.setLayer("tile.key_share", keyTime.Seconds()/handlerTime.Seconds(), reqs)
	b.reportEngine(engineTime, engineKernels, engineCalls, reqs, reqTime)
	b.reportRuntime(&gc0, &gc1, replayed, plainTime, tracedTime)
	return b.finishTrace(rec)
}

// reportEngine reports the predict layer as seen from its callers.
func (b *bench) reportEngine(engine time.Duration, kernels, calls, ops int, total time.Duration) {
	b.out.setLayer("predict.engine_us_per_kernel", us(engine)/float64(max(kernels, 1)), kernels)
	b.out.setLayer("predict.engine_calls", float64(calls)/float64(ops), ops)
	b.out.setLayer("predict.kernels_per_call", float64(kernels)/float64(max(calls, 1)), calls)
	b.out.setLayer("predict.engine_share", engine.Seconds()/total.Seconds(), ops)
}

// reportRuntime reports collector activity over the replay and the cost of
// tracing: the traced stage pass against the identical untraced one.
func (b *bench) reportRuntime(gc0, gc1 *runtime.MemStats, ops int, plainTime, tracedTime time.Duration) {
	cycles := gc1.NumGC - gc0.NumGC
	b.out.setLayer("runtime.gc_cycles_per_1k_req", float64(cycles)*1000/float64(ops), ops)
	pause := 0.0
	if cycles > 0 {
		pause = ms(time.Duration(gc1.PauseTotalNs-gc0.PauseTotalNs)) / float64(cycles)
	}
	b.out.setLayer("runtime.gc_pause_ms", pause, int(cycles))
	b.out.setLayer("trace.overhead_pct", 100*(tracedTime.Seconds()-plainTime.Seconds())/plainTime.Seconds(), ops)
}

// finishTrace writes the spans and reports 0 for every per-layer metric
// the workload has no work for.
func (b *bench) finishTrace(rec *recorder) error {
	path := filepath.Join(b.spanDir, fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := rec.write(path); err != nil {
		return err
	}
	b.out.info("spans", float64(len(rec.spans)), "count", len(rec.spans))
	for _, m := range layerMetrics {
		if _, ok := b.out.metrics[m.Name]; !ok {
			b.out.setLayer(m.Name, 0, 0)
		}
	}
	return nil
}

// stages runs one operation through the serving stages as the HTTP
// handler does — decode, build, service call, encode — with a span around
// each when rec is non-nil. The encoded response is left in out.
func stages(ctx context.Context, svc *serve.Service, o *op, rec *recorder, out *bytes.Buffer) error {
	begin := func(name string) int32 {
		if rec == nil {
			return 0
		}
		return rec.begin(name)
	}
	end := func(id int32) {
		if rec != nil {
			rec.end(id)
		}
	}
	root := begin("request")
	defer end(root)
	var err error
	switch o.kind {
	case kindKernel:
		id := begin("json.decode")
		var req serve.KernelRequestV2
		err = json.Unmarshal(o.body, &req)
		end(id)
		if err != nil {
			return err
		}
		id = begin("build")
		k, err := buildKernel(req.KernelRequest)
		g, gerr := gpu.Lookup(req.GPU)
		end(id)
		if err != nil || gerr != nil {
			return fmt.Errorf("build kernel request: %v %v", err, gerr)
		}
		id = begin("service")
		res, err := svc.PredictKernelEngine(ctx, req.Engine, k, g)
		end(id)
		if err != nil {
			return err
		}
		id = begin("json.encode")
		resp := serve.KernelResponseV2{
			KernelResponse: serve.KernelResponse{Kernel: k.Label(), GPU: g.Name, LatencyMs: res.Latency, FLOPs: k.FLOPs(), MemBytes: k.MemBytes()},
			Engine:         res.Engine, Source: res.Source, Utilization: res.Utilization,
		}
		err = encode(out, resp)
		end(id)
		return err
	case kindBatch:
		id := begin("json.decode")
		var req serve.BatchRequestV2
		err = json.Unmarshal(o.body, &req)
		end(id)
		if err != nil {
			return err
		}
		id = begin("build")
		ks := make([]kernels.Kernel, len(req.Kernels))
		for i, kr := range req.Kernels {
			if ks[i], err = buildKernel(kr); err != nil {
				break
			}
		}
		g, gerr := gpu.Lookup(req.GPU)
		end(id)
		if err != nil || gerr != nil {
			return fmt.Errorf("build batch request: %v %v", err, gerr)
		}
		id = begin("service")
		outs, err := svc.PredictBatchEngine(ctx, req.Engine, ks, g)
		end(id)
		if err != nil {
			return err
		}
		id = begin("json.encode")
		items := make([]serve.BatchItem, len(ks))
		for i, k := range ks {
			items[i].Kernel = k.Label()
			if outs[i].Err != nil {
				items[i].Error = outs[i].Err.Error()
				continue
			}
			items[i].LatencyMs = outs[i].Result.Latency
		}
		err = encode(out, serve.BatchResponseV2{BatchResponse: serve.BatchResponse{GPU: g.Name, Count: len(items), Items: items}, Engine: predict.EngineNeuSight})
		end(id)
		return err
	default:
		id := begin("json.decode")
		var req serve.GraphRequestV2
		err = json.Unmarshal(o.body, &req)
		end(id)
		if err != nil {
			return err
		}
		id = begin("build")
		gb := begin("models.graph_build")
		gr, m := buildGraph(req.GraphRequest)
		end(gb)
		g, err := gpu.Lookup(req.GPU)
		end(id)
		if err != nil {
			return err
		}
		id = begin("service")
		lat, rep, gerr := svc.PredictGraphEngine(ctx, req.Engine, gr, g)
		end(id)
		id = begin("json.encode")
		r := serve.GraphResponseV2{GraphResponse: serve.GraphResponse{
			Workload: m.Name, GPU: g.Name, Batch: req.Batch, Training: req.Training, Fused: req.Fused,
			Kernels: len(gr.Nodes), TotalFLOPs: gr.TotalFLOPs(), LatencyMs: lat,
			FitsMemory: m.FitsInMemory(req.Batch, g, req.Training),
		}, Engine: predict.EngineNeuSight, Report: rep}
		if gerr != nil {
			r.Warning = gerr.Error()
		}
		err = encode(out, r)
		end(id)
		return err
	}
}

// encode writes v as the handler does, into out when non-nil.
func encode(out *bytes.Buffer, v any) error {
	if out == nil {
		return nil
	}
	out.Reset()
	return json.NewEncoder(out).Encode(v)
}

// handle serves one operation through the HTTP handler, discarding the
// reply (warm-up).
func handle(h http.Handler, o *op) {
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, o.path, bytes.NewReader(o.body)))
}

// opKernels returns the predictable kernels an operation asks for and its GPU.
func opKernels(o *op) ([]kernels.Kernel, gpu.Spec) {
	switch o.kind {
	case kindKernel:
		k, _ := buildKernel(o.kernel.KernelRequest)
		return []kernels.Kernel{k}, gpu.MustLookup(o.kernel.GPU)
	case kindBatch:
		ks := make([]kernels.Kernel, len(o.batch.Kernels))
		for i, kr := range o.batch.Kernels {
			ks[i], _ = buildKernel(kr)
		}
		return ks, gpu.MustLookup(o.batch.GPU)
	default:
		gr, _ := buildGraph(o.graph.GraphRequest)
		var ks []kernels.Kernel
		for _, k := range gr.Kernels() {
			if k.Category() != kernels.CatNetwork {
				ks = append(ks, k)
			}
		}
		return ks, gpu.MustLookup(o.graph.GPU)
	}
}

// kindSummary aggregates one request kind's spans by name: total time,
// count and covered kernels, plus, per parent name, the time its engine
// children cover (merged, so overlapping children count once).
type kindSummary struct {
	time               map[string]time.Duration
	count, n           map[string]int
	childTime          map[string]time.Duration
	childCount, childN map[string]int
}

func summarize(spans []span) map[kind]*kindSummary {
	out := map[kind]*kindSummary{}
	kindOf := map[string]kind{}
	for k := kind(0); k < numKinds; k++ {
		kindOf[k.String()] = k
		out[k] = &kindSummary{time: map[string]time.Duration{}, count: map[string]int{}, n: map[string]int{},
			childTime: map[string]time.Duration{}, childCount: map[string]int{}, childN: map[string]int{}}
	}
	children := map[int32][]span{}
	for _, s := range spans {
		if s.Name == "engine.PredictKernels" || s.Name == "engine.PredictKernel" {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		k, ok := kindOf[s.Kind]
		if !ok {
			continue
		}
		agg := out[k]
		agg.time[s.Name] += s.dur()
		agg.count[s.Name]++
		agg.n[s.Name] += s.N
		if kids := children[s.ID]; len(kids) > 0 {
			agg.childTime[s.Name] += covered(s, kids)
			agg.childCount[s.Name] += len(kids)
			for _, c := range kids {
				agg.childN[s.Name] += c.N
			}
		}
	}
	return out
}

// covered returns how much of parent's interval its children cover.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return time.Duration(total)
}

// tracePlan replays plan-matrix cells in process: untraced and traced
// plan.EvaluateBatch calls, one cell each, over fresh loads of the model.
// Every traced cell must equal the direct answer for it in want.
func (b *bench) tracePlan(ctx context.Context, spec plan.Spec, cfgs []plan.Config, want []plan.Result) error {
	rec := newRecorder()
	plainEng, err := loadEngine(b.files)
	if err != nil {
		return err
	}
	eng, err := loadEngine(b.files)
	if err != nil {
		return err
	}
	traced := traceEngine(eng, rec)
	for _, e := range []predict.Engine{plainEng, traced} {
		if _, err := plan.EvaluateBatch(ctx, e, spec, cfgs); err != nil {
			return err
		}
	}
	rec.spans, rec.lastReqs = nil, nil

	var plainTime, tracedTime, cellTime, keyTime time.Duration
	var gc0, gc1 runtime.MemStats
	runtime.ReadMemStats(&gc0)
	replayed, keyKernels := 0, 0
	budget := time.Now().Add(b.seconds / 2)
	plainPass := func() error {
		t := time.Now()
		for _, cfg := range cfgs {
			if _, err := plan.EvaluateBatch(ctx, plainEng, spec, []plan.Config{cfg}); err != nil {
				return err
			}
		}
		plainTime += time.Since(t)
		return nil
	}
	tracedPass := func(round int) error {
		t := time.Now()
		for i, cfg := range cfgs {
			rec.req, rec.kind = int32(round*len(cfgs)+i+1), "plan"
			id := rec.begin("plan.EvaluateBatch")
			got, err := plan.EvaluateBatch(ctx, traced, spec, []plan.Config{cfg})
			rec.end(id)
			if err != nil {
				return err
			}
			if got[0] != want[i] {
				b.out.fail("traced plan replay: cell %d: %+v, direct plan.EvaluateBatch %+v", i, got[0], want[i])
			}
			cellTime += rec.spans[id-1].dur()
			// Key building over the kernels the engine priced for this cell.
			kid := rec.begin("tile.QueryKey")
			for _, r := range rec.lastReqs {
				tile.QueryKey(r.Kernel, r.GPU)
			}
			rec.end(kid)
			rec.spans[kid-1].N = len(rec.lastReqs)
			keyTime += rec.spans[kid-1].dur()
			keyKernels += len(rec.lastReqs)
		}
		tracedTime += time.Since(t)
		return nil
	}
	for round := 0; round < replayRounds && (round == 0 || time.Now().Before(budget)); round++ {
		// Alternate which pass goes first, so whatever the first pass
		// leaves warm favours neither side of trace.overhead_pct.
		first, second := plainPass, func() error { return tracedPass(round) }
		if round%2 == 1 {
			first, second = second, first
		}
		if err := first(); err != nil {
			return err
		}
		if err := second(); err != nil {
			return err
		}
		replayed += 2 * len(cfgs)
	}
	runtime.ReadMemStats(&gc1)
	b.out.attempted += replayed

	var engineTime time.Duration
	engineKernels, engineCalls, cellsRun := 0, 0, 0
	byID := map[int32]span{}
	for _, s := range rec.spans {
		byID[s.ID] = s
	}
	kids := map[int32][]span{}
	for _, s := range rec.spans {
		switch s.Name {
		case "plan.EvaluateBatch":
			cellsRun++
		case "engine.PredictKernels", "engine.PredictKernel":
			kids[s.Parent] = append(kids[s.Parent], s)
			engineKernels += s.N
			engineCalls++
		}
	}
	for parent, ks := range kids {
		engineTime += covered(byID[parent], ks)
	}
	n := float64(cellsRun)
	b.out.setLayer("plan.cell_us", us(cellTime)/n, cellsRun)
	b.out.setLayer("plan.self_us_per_cell", us(cellTime-engineTime)/n, cellsRun)
	b.out.setLayer("plan.kernels_per_cell", float64(engineKernels)/n, cellsRun)
	b.out.setLayer("tile.key_us_per_kernel", us(keyTime)/float64(keyKernels), keyKernels)
	b.out.setLayer("tile.key_share", keyTime.Seconds()/cellTime.Seconds(), cellsRun)
	b.reportEngine(engineTime, engineKernels, engineCalls, cellsRun, cellTime)
	b.reportRuntime(&gc0, &gc1, replayed, plainTime, tracedTime)
	return b.finishTrace(rec)
}

// allocSample is reused so that reading the count allocates nothing.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapAllocs reads the runtime's cumulative heap allocation count.
func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
