// Package serve is the production serving layer of the framework: it routes
// prediction traffic across a registry of latency engines behind a
// thread-safe Service that caches, coalesces, and rate-bounds kernel
// forecasts, and exposes the result as a versioned HTTP JSON API (see
// http.go) wired into the `neusight serve` subcommand.
//
// The serving shape follows directly from the NeuSight design
// (conf_asplos_LeeP025): a forecast decomposes into per-kernel queries
// against small models, DNN graphs repeat identical kernels across layers,
// and users repeat identical (workload, GPU) questions — so a per-engine
// LRU keyed by (kernel fingerprint, GPU, engine generation) absorbs most
// traffic, and coalescing collapses identical in-flight misses onto a
// single model evaluation. Multi-engine routing rides the same machinery:
// every registered engine gets its own cache partition, in-flight table,
// and counters, so a cheap roofline bound and the learned NeuSight pipeline
// are a per-request routing decision, not separate deployments.
//
// Two subsystems scale that machinery to production traffic:
//
//   - Sharding (shard.go): with Config.Shards > 1, traffic is partitioned
//     by (engine, GPU) key onto N dedicated shards via consistent hashing.
//     Each shard owns its cache, coalescing table, and worker pool, so
//     concurrent clients hitting different (engine, GPU) pairs stop
//     contending on one lock; saturated shards push back with ErrSaturated
//     instead of queueing without bound, and engine registration changes
//     trigger a rebalance that evicts orphaned cache slices.
//   - Workload traces (trace.go): the keys the service actually serves can
//     be recorded to an append-only JSONL trace, and a saved trace replayed
//     at startup to warm the caches concurrently before the listener
//     accepts traffic — a restart no longer discards the workload profile
//     the previous process spent its uptime learning.
package serve

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"neusight/internal/core"
	"neusight/internal/gpu"
	"neusight/internal/graph"
	"neusight/internal/kernels"
	"neusight/internal/observe"
	"neusight/internal/plan"
	"neusight/internal/predict"
	"neusight/internal/tile"
)

// KernelPredictor is the legacy single-backend contract New wraps. Both
// *core.Predictor and *core.Ensemble satisfy it; tests substitute stubs.
// Implementations must be safe for concurrent PredictKernel calls.
type KernelPredictor interface {
	Name() string
	PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error)
}

// BatchKernelPredictor is optionally implemented by legacy backends that
// can amortize one model evaluation across many kernels (*core.Predictor
// does, via its compiled inference path). Results are positional and
// per-item: lats[i]/errs[i] correspond to ks[i].
type BatchKernelPredictor interface {
	PredictKernels(ks []kernels.Kernel, g gpu.Spec) (lats []float64, errs []error)
}

// Config sizes the service.
type Config struct {
	// CacheSize is the LRU capacity in entries of each cache partition
	// (per engine when unsharded, per shard when Shards > 1). Zero means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// Workers bounds how many predictions run concurrently in the backends
	// (shared across engines). Zero means GOMAXPROCS. When Shards > 1 it
	// is the total budget split evenly across the shard pools (see
	// ShardWorkers) — but every shard pool gets at least one slot, so the
	// effective aggregate bound is max(Workers, Shards): dedicated pools
	// cannot share a budget below one slot each.
	Workers int
	// LatencyWindow is the request-latency ring size for percentile stats.
	// Zero means a reasonable default.
	LatencyWindow int
	// Shards partitions traffic by (engine, GPU) key onto this many
	// dedicated shards — each with its own cache, coalescing table, and
	// worker pool — assigned by consistent hashing. Zero or one keeps the
	// single-lock-domain-per-engine layout.
	Shards int
	// ShardWorkers sizes each shard's worker pool. Zero derives it from
	// Workers/Shards (minimum 1). Ignored when Shards <= 1.
	ShardWorkers int
	// ShardQueue bounds how many requests may be in flight on one shard
	// before arrivals are rejected with ErrSaturated. Zero means
	// DefaultShardQueue; negative disables backpressure. Ignored when
	// Shards <= 1.
	ShardQueue int
}

// DefaultCacheSize holds the working set of several large transformer
// graphs (a GPT-3 inference graph has a few thousand kernels but only
// dozens of unique shapes).
const DefaultCacheSize = 4096

// Service is a thread-safe prediction server. It layers three mechanisms
// over every registered engine:
//
//  1. a per-engine LRU prediction cache keyed by (kernel fingerprint, GPU
//     name) plus the engine's state generation, so retraining invalidates
//     cached forecasts without a manual flush;
//  2. request coalescing: concurrent misses on the same key share one
//     backend evaluation instead of duplicating it;
//  3. a bounded worker pool shared across engines so graph fan-out cannot
//     oversubscribe the CPU.
//
// Requests name an engine (or take the default); engines are looked up in
// the registry per request, so engines registered after the service starts
// become routable immediately.
type Service struct {
	reg       *predict.Registry
	def       string
	cacheSize int
	sem       chan struct{} // legacy shared worker pool (Shards <= 1)
	router    *shardRouter  // non-nil when sharded
	lat       *latencyWindow
	start     time.Time

	// regVersion is the registry version the routing state was built
	// against; drift triggers Rebalance (see shard.go). epoch numbers the
	// engine states ever created, namespacing each one's cache entries.
	regVersion atomic.Uint64
	epoch      atomic.Uint64
	// recorder, when set, appends every newly served key to a workload
	// trace; warmup holds the report of the last trace replay (trace.go).
	// warming is true while WarmFromTrace replays — replay traffic must not
	// count as "requested" for trace compaction (warmup runs before the
	// listener opens, so it never overlaps live traffic).
	recorder atomic.Pointer[TraceRecorder]
	warmup   atomic.Pointer[WarmupStats]
	warming  atomic.Bool
	// observer, when set, accepts measured kernel latencies on /v2/observe
	// and tracks prediction drift (observe.go).
	observer atomic.Pointer[observe.Monitor]
	// planner, when set, serves /v2/plan what-if sweeps (plan.go).
	planner atomic.Pointer[plan.Manager]

	emu     sync.RWMutex
	engines map[string]*engineState

	// workloads memoizes compacted workload graphs for the graph endpoint
	// (graph.go).
	wmu       sync.Mutex
	workloads map[workloadKey]*compactGraph

	requests       atomic.Uint64
	coalesced      atomic.Uint64
	errors         atomic.Uint64
	graphs         atomic.Uint64
	batches        atomic.Uint64
	batchedKernels atomic.Uint64
	rejected       atomic.Uint64
	inFlightNow    atomic.Int64

	// retiredHits/retiredMisses preserve the cache counter history of
	// per-engine partitions discarded by Rebalance (unsharded layout), so
	// the aggregate hit/miss counters — exported to Prometheus as
	// monotonic counters — never go backwards when an engine unregisters.
	retiredHits   atomic.Uint64
	retiredMisses atomic.Uint64
}

// engineState is one engine's routing entry and its slice of the
// counters. Where its traffic's cache, coalescing table, and worker pool
// live depends on the layout: unsharded, the engine owns one partition
// (part); sharded, the router assigns each of the engine's (engine, GPU)
// keys to a shard and part is nil.
type engineState struct {
	name     string
	eng      predict.Engine
	affinity string // ShardAffinity, resolved once at registration
	// epoch namespaces this state's cache entries: a per-state number that
	// makes a replaced engine (unregister + re-register under the same
	// name) a distinct key space, so a backend evaluation in flight across
	// a rebalance caches under the old state's epoch and can never be
	// served by the replacement — even for engines that track no
	// generation.
	epoch uint64
	part  *partition // legacy per-engine partition; nil when sharded

	requests    atomic.Uint64
	errors      atomic.Uint64
	coalesced   atomic.Uint64
	cacheHits   atomic.Uint64
	cacheMisses atomic.Uint64
}

// key identifies a prediction request: the same (kernel, GPU) query the
// trace recorder and the planner key on, tagged with the engine
// state's epoch (shard caches are shared across engines, so the engine —
// and its registration epoch — is part of request identity) and its state
// generation when it tracks one — so a retrain makes every prior entry
// unreachable (it then ages out of the LRU) instead of being served stale.
func (es *engineState) key(k kernels.Kernel, g gpu.Spec) cacheKey {
	return cacheKey{query: tile.QueryOf(k, g), epoch: es.epoch, gen: predict.Generation(es.eng)}
}

// partition resolves the serving partition for one (engine, GPU) request:
// the engine's own partition when unsharded, else the consistent-hash
// shard owning the (affinity, GPU) key.
func (s *Service) partition(es *engineState, g gpu.Spec) *partition {
	if s.router == nil {
		return es.part
	}
	return s.router.shardFor(es.affinity, g.Name)
}

// partitions returns every partition currently provisioned: the shard set
// when sharded, else the per-engine partitions created so far.
func (s *Service) partitions() []*partition {
	if s.router != nil {
		return s.router.shards
	}
	out := make([]*partition, 0)
	for _, es := range s.states() {
		out = append(out, es.part)
	}
	return out
}

// inflightCall is one in-progress backend prediction that later arrivals
// for the same key wait on.
type inflightCall struct {
	done chan struct{}
	res  predict.Result
	err  error
}

// New returns a Service wrapping a single legacy backend: pred is adapted
// into an engine registered under its own name, which becomes the default.
// Existing callers keep the exact pre-registry behavior.
func New(pred KernelPredictor, cfg Config) *Service {
	if pred == nil {
		panic("serve: nil predictor")
	}
	reg := predict.NewRegistry()
	eng := predict.AdaptBackend(pred)
	reg.MustRegister(eng)
	return NewMulti(reg, eng.Name(), cfg)
}

// NewMulti returns a Service routing across every engine in reg, serving
// defaultEngine when a request does not name one.
func NewMulti(reg *predict.Registry, defaultEngine string, cfg Config) *Service {
	if reg == nil {
		panic("serve: nil registry")
	}
	if _, err := reg.Get(defaultEngine); err != nil {
		panic(fmt.Sprintf("serve: default engine not registered: %v", err))
	}
	size := cfg.CacheSize
	if size == 0 {
		size = DefaultCacheSize
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s := &Service{
		reg:       reg,
		def:       defaultEngine,
		cacheSize: size,
		sem:       make(chan struct{}, workers),
		lat:       newLatencyWindow(cfg.LatencyWindow),
		start:     time.Now(),
		engines:   map[string]*engineState{},
		workloads: map[workloadKey]*compactGraph{},
	}
	if cfg.Shards > 1 {
		perShard := cfg.ShardWorkers
		if perShard <= 0 {
			perShard = workers / cfg.Shards
			if perShard < 1 {
				perShard = 1
			}
		}
		queue := cfg.ShardQueue
		switch {
		case queue == 0:
			queue = DefaultShardQueue
		case queue < 0:
			queue = 0 // backpressure disabled
		}
		s.router = newShardRouter(cfg.Shards, size, perShard, queue)
	}
	s.regVersion.Store(reg.Version())
	return s
}

// Registry returns the engine registry the service routes across.
func (s *Service) Registry() *predict.Registry { return s.reg }

// DefaultEngine returns the engine name served when a request names none.
func (s *Service) DefaultEngine() string { return s.def }

// Backend returns the default engine's name — the pre-registry notion of
// "the backend".
func (s *Service) Backend() string { return s.def }

// engine resolves name ("" means the default) to its serving state,
// creating the state on first use so engines registered after the service
// started are routable, and rebalancing first when the registry changed
// since the routing state was built.
func (s *Service) engine(name string) (*engineState, error) {
	s.maybeRebalance()
	if name == "" {
		name = s.def
	}
	s.emu.RLock()
	es, ok := s.engines[name]
	s.emu.RUnlock()
	if ok {
		return es, nil
	}
	if _, err := s.reg.Get(name); err != nil {
		return nil, err
	}
	s.emu.Lock()
	defer s.emu.Unlock()
	if es, ok := s.engines[name]; ok {
		return es, nil
	}
	// Re-resolve under the state lock: Rebalance scans s.engines under the
	// same lock, so an engine unregistered between the lock-free Get above
	// and this insert is either caught here (Get fails) or inserted before
	// the version-drift rebalance that will drop it — it can never be
	// inserted after that rebalance already ran and stay routable forever.
	eng, err := s.reg.Get(name)
	if err != nil {
		return nil, err
	}
	es = &engineState{
		name:     name,
		eng:      eng,
		affinity: predict.ShardAffinity(eng),
		epoch:    s.epoch.Add(1),
	}
	if s.router == nil {
		es.part = newPartition(-1, s.cacheSize, s.sem, 0)
	}
	s.engines[name] = es
	return es, nil
}

// states returns the engine partitions created so far, sorted by name.
func (s *Service) states() []*engineState {
	s.emu.RLock()
	out := make([]*engineState, 0, len(s.engines))
	for _, es := range s.engines {
		out = append(out, es)
	}
	s.emu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// FlushCache drops every cached prediction in every partition (hit/miss
// counters are kept). Generation-keyed engines invalidate automatically on
// retrain; the flush remains for backends that track no generation.
func (s *Service) FlushCache() {
	for _, p := range s.partitions() {
		p.cache.Flush()
	}
}

// InvalidateEngine drops every cached forecast of the engine named name
// from every partition, returning how many entries were dropped. It is
// the cluster layer's invalidation hook: a peer process reporting a newer
// state generation for this engine means locally cached forecasts may be
// stale even though the local engine's own generation — the one cache
// keys fold in — never moved. An engine no traffic has touched has
// nothing cached and drops zero.
func (s *Service) InvalidateEngine(name string) int {
	s.emu.RLock()
	es, ok := s.engines[name]
	s.emu.RUnlock()
	if !ok {
		return 0
	}
	n := 0
	for _, p := range s.partitions() {
		n += p.cache.DropEpoch(es.epoch)
	}
	return n
}

// PredictKernel forecasts the latency of kernel k on device g in
// milliseconds with the default engine, serving from cache when possible
// and coalescing concurrent identical requests. It is safe for arbitrary
// concurrent use.
func (s *Service) PredictKernel(k kernels.Kernel, g gpu.Spec) (float64, error) {
	res, err := s.PredictKernelEngine(context.Background(), "", k, g)
	return res.Latency, err
}

// PredictKernelEngine is PredictKernel routed to a named engine (""
// selects the default), with the full structured Result and request
// context. Unknown engine names fail before any counters move.
func (s *Service) PredictKernelEngine(ctx context.Context, engine string, k kernels.Kernel, g gpu.Spec) (predict.Result, error) {
	es, err := s.engine(engine)
	if err != nil {
		return predict.Result{}, err
	}
	return s.predictOne(ctx, es, k, g)
}

// predictOne is the single-kernel serving path against one engine's
// partition: admit past backpressure, then cache, coalesce, and evaluate
// under the partition's worker pool.
func (s *Service) predictOne(ctx context.Context, es *engineState, k kernels.Kernel, g gpu.Spec) (predict.Result, error) {
	// Admission runs before any accounting: a rejection returns in
	// microseconds, and letting it into the request counters and the
	// latency window would make an overloaded service look fast and busy
	// on dashboards at exactly the moment it is shedding load. Rejections
	// count only in rejected (aggregate and per-shard).
	p := s.partition(es, g)
	if !p.admit() {
		s.rejected.Add(1)
		return predict.Result{}, fmt.Errorf("serve: shard %d over %d requests in flight predicting %s: %w",
			p.shard, p.maxInFlight, k.Label(), ErrSaturated)
	}
	defer p.release()

	start := time.Now()
	s.requests.Add(1)
	es.requests.Add(1)
	p.requests.Add(1)
	s.inFlightNow.Add(1)
	defer func() {
		s.inFlightNow.Add(-1)
		s.lat.Observe(time.Since(start))
	}()

	if k.Category() == kernels.CatNetwork {
		s.errors.Add(1)
		es.errors.Add(1)
		p.errors.Add(1)
		return predict.Result{}, fmt.Errorf("serve: network kernel %s is priced by the distributed layer, not the kernel predictor", k.Label())
	}

	// A caller that is already gone fails fast, before it can become the
	// leader of a shared evaluation.
	if err := ctx.Err(); err != nil {
		s.errors.Add(1)
		es.errors.Add(1)
		p.errors.Add(1)
		return predict.Result{}, err
	}

	key := es.key(k, g)
	if v, ok := p.cache.Get(key); ok {
		es.cacheHits.Add(1)
		s.touchTrace(es.name, k, g)
		return v, nil
	}
	es.cacheMisses.Add(1)

	p.mu.Lock()
	if call, ok := p.inflight[key]; ok {
		p.mu.Unlock()
		s.coalesced.Add(1)
		es.coalesced.Add(1)
		p.coalesced.Add(1)
		<-call.done
		if call.err != nil {
			s.errors.Add(1)
			es.errors.Add(1)
			p.errors.Add(1)
		}
		return call.res, call.err
	}
	call := &inflightCall{done: make(chan struct{})}
	p.inflight[key] = call
	p.mu.Unlock()

	s.runBackend(ctx, es, p, call, key, k, g)

	if call.err != nil {
		s.errors.Add(1)
		es.errors.Add(1)
		p.errors.Add(1)
		return predict.Result{}, call.err
	}
	p.cache.Put(key, call.res)
	s.recordTrace(es.name, k, g)
	return call.res, nil
}

// runBackend executes the engine prediction for a registered in-flight
// call. Unregistering the call and closing done run even if the engine
// panics (callEngine converts the panic to an error), so both the leader
// and every coalesced waiter fail cleanly instead of wedging the key
// forever.
func (s *Service) runBackend(ctx context.Context, es *engineState, p *partition, call *inflightCall, key cacheKey, k kernels.Kernel, g gpu.Spec) {
	defer func() {
		p.mu.Lock()
		delete(p.inflight, key)
		p.mu.Unlock()
		close(call.done)
	}()
	call.res, call.err = s.callEngine(ctx, es, p, k, g)
}

// callEngine runs one per-kernel engine prediction under a slot of the
// partition's worker pool, converting an engine panic into an error with
// the slot released. It is the shared primitive of the single-kernel path
// and the batch fan-out for engines without native batch support.
//
// The evaluation runs detached from the caller's cancellation: in-flight
// calls are shared by coalescing, so cancelling the leader's request must
// not poison the result every coalesced waiter receives (the classic
// singleflight-with-context bug). Cancelled callers fail fast before
// leading or joining an evaluation instead.
func (s *Service) callEngine(ctx context.Context, es *engineState, p *partition, k kernels.Kernel, g gpu.Spec) (res predict.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = predict.Result{}
			err = fmt.Errorf("serve: backend panic predicting %s: %v", k.Label(), r)
		}
	}()
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	return es.eng.PredictKernel(context.WithoutCancel(ctx), predict.Request{Kernel: k, GPU: g})
}

// PredictGraph forecasts the end-to-end latency of gr on g with the
// default engine under the paper's sequential-execution assumption.
// Kernels that fail to predict contribute their memory-bound fallback,
// mirroring core.Predictor.PredictGraph.
func (s *Service) PredictGraph(gr *graph.Graph, g gpu.Spec) float64 {
	lat, _, _ := s.PredictGraphEngine(context.Background(), "", gr, g)
	return lat
}

// PredictGraphEngine is PredictGraph routed to a named engine ("" selects
// the default). It dedups the graph's predictable kernels by key and
// predicts each distinct kernel once through the batched prediction
// machinery (cache hits served directly, misses collapsed into one backend
// round, identical kernels coalesced), then folds the forecasts in node
// order, and reports how the forecast was assembled: the error is non-nil
// when any kernel fell back to the memory-bound estimate, with the report
// counting them — failures are surfaced, not silently absorbed into the
// total.
func (s *Service) PredictGraphEngine(ctx context.Context, engine string, gr *graph.Graph, g gpu.Spec) (float64, core.GraphReport, error) {
	return s.predictGraph(ctx, engine, compact(gr), g)
}

// Stats is a point-in-time snapshot of the aggregate service counters,
// exposed on /v1/stats and consumed by the throughput benchmark. Cache
// counters sum over every engine partition.
type Stats struct {
	Backend        string  `json:"backend"`
	Requests       uint64  `json:"requests"`
	GraphRequests  uint64  `json:"graph_requests"`
	BatchRequests  uint64  `json:"batch_requests"`
	BatchedKernels uint64  `json:"batched_kernels"`
	CacheHits      uint64  `json:"cache_hits"`
	CacheMisses    uint64  `json:"cache_misses"`
	CacheLen       int     `json:"cache_len"`
	HitRate        float64 `json:"hit_rate"`
	Coalesced      uint64  `json:"coalesced"`
	Errors         uint64  `json:"errors"`
	Rejected       uint64  `json:"rejected"`
	Shards         int     `json:"shard_count"` // "shards" is the per-shard section on /v2/stats
	InFlight       int64   `json:"in_flight"`
	LatencyP50ms   float64 `json:"latency_p50_ms"`
	LatencyP90ms   float64 `json:"latency_p90_ms"`
	LatencyP99ms   float64 `json:"latency_p99_ms"`
	UptimeSec      float64 `json:"uptime_sec"`
}

// EngineStats is one engine partition's slice of the counters, exposed on
// /v2/stats and as labeled Prometheus series.
type EngineStats struct {
	Engine      string  `json:"engine"`
	Requests    uint64  `json:"requests"`
	Errors      uint64  `json:"errors"`
	Coalesced   uint64  `json:"coalesced"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	CacheLen    int     `json:"cache_len"`
	HitRate     float64 `json:"hit_rate"`
	NativeBatch bool    `json:"native_batch"`
	Generation  uint64  `json:"generation"`
}

// cacheTotals sums cache counters across live partitions plus the retired
// history, under the same lock Rebalance folds and removes under — a
// concurrent rebalance can therefore never be observed half-applied
// (partition gone but its history not yet retired, or counted twice),
// which keeps the Prometheus-exported aggregate counters monotonic.
func (s *Service) cacheTotals() (hits, misses uint64, length int) {
	s.emu.RLock()
	defer s.emu.RUnlock()
	hits, misses = s.retiredHits.Load(), s.retiredMisses.Load()
	if s.router != nil {
		for _, p := range s.router.shards {
			h, m := p.cache.Counters()
			hits += h
			misses += m
			length += p.cache.Len()
		}
		return hits, misses, length
	}
	for _, es := range s.engines {
		h, m := es.part.cache.Counters()
		hits += h
		misses += m
		length += es.part.cache.Len()
	}
	return hits, misses, length
}

// Stats returns the current aggregate counters. HitRate is
// hits/(hits+misses), 0 before any traffic.
func (s *Service) Stats() Stats {
	hits, misses, length := s.cacheTotals()
	ps := s.lat.Percentiles(0.50, 0.90, 0.99)
	st := Stats{
		Backend:        s.def,
		Requests:       s.requests.Load(),
		GraphRequests:  s.graphs.Load(),
		BatchRequests:  s.batches.Load(),
		BatchedKernels: s.batchedKernels.Load(),
		CacheHits:      hits,
		CacheMisses:    misses,
		CacheLen:       length,
		Coalesced:      s.coalesced.Load(),
		Errors:         s.errors.Load(),
		Rejected:       s.rejected.Load(),
		Shards:         s.NumShards(),
		InFlight:       s.inFlightNow.Load(),
		LatencyP50ms:   ps[0],
		LatencyP90ms:   ps[1],
		LatencyP99ms:   ps[2],
		UptimeSec:      time.Since(s.start).Seconds(),
	}
	if total := hits + misses; total > 0 {
		st.HitRate = float64(hits) / float64(total)
	}
	return st
}

// engineCacheLen counts the cache entries the engine currently owns: its
// partition's full population when unsharded, else its keys' slice of
// every shard cache. The sharded case is an O(entries) scan under each
// shard's cache lock — acceptable because it runs only on stats/metrics
// reads against bounded caches; if scrape frequency ever makes it hurt,
// replace with per-engine resident counters maintained on Put/evict.
func (s *Service) engineCacheLen(es *engineState) int {
	if s.router == nil {
		return es.part.cache.Len()
	}
	n := 0
	for _, p := range s.router.shards {
		n += p.cache.LenEpoch(es.epoch)
	}
	return n
}

// EngineStats returns per-engine counters for every engine traffic has
// touched, sorted by engine name.
func (s *Service) EngineStats() []EngineStats {
	var out []EngineStats
	for _, es := range s.states() {
		hits, misses := es.cacheHits.Load(), es.cacheMisses.Load()
		st := EngineStats{
			Engine:      es.name,
			Requests:    es.requests.Load(),
			Errors:      es.errors.Load(),
			Coalesced:   es.coalesced.Load(),
			CacheHits:   hits,
			CacheMisses: misses,
			CacheLen:    s.engineCacheLen(es),
			NativeBatch: predict.NativeBatch(es.eng),
			Generation:  predict.Generation(es.eng),
		}
		if total := hits + misses; total > 0 {
			st.HitRate = float64(hits) / float64(total)
		}
		out = append(out, st)
	}
	return out
}
