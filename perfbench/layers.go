package main

// layerMetric is one per-layer metric of the traced run. The list is the
// single source of BENCHMARK.json's per_layer entries (a test keeps them in
// step); spec.json records which end-to-end metric each should move.
type layerMetric struct {
	Name, Unit, Better string
}

// layerMetrics lists every per-layer metric the traced run reports. A
// workload without a layer's work (graph requests on cold-mix, the
// planner on hot-mix) reports 0 for it.
var layerMetrics = func() []layerMetric {
	var ms []layerMetric
	for _, k := range kindNames {
		ms = append(ms,
			layerMetric{"serve.decode_us." + k, "us", "lower"},
			layerMetric{"serve.build_us." + k, "us", "lower"},
			layerMetric{"serve.encode_us." + k, "us", "lower"},
			layerMetric{"serve.handler_us." + k, "us", "lower"},
			layerMetric{"serve.allocs_per_req." + k, "allocs/op", "lower"},
			layerMetric{"serve.unattributed_us." + k, "us", "lower"},
			layerMetric{"serve.service_self_us." + k, "us", "lower"},
		)
	}
	return append(ms,
		layerMetric{"serve.hit_ratio", "ratio", "higher"},
		layerMetric{"serve.coalesced", "count", "higher"},
		layerMetric{"serve.rejected", "count", "lower"},
		layerMetric{"models.graph_build_us", "us", "lower"},
		layerMetric{"graph.kernels_per_req", "count", "lower"},
		layerMetric{"graph.unique_ratio", "ratio", "lower"},
		layerMetric{"tile.key_us_per_kernel", "us", "lower"},
		layerMetric{"tile.key_share", "ratio", "lower"},
		layerMetric{"predict.engine_us_per_kernel", "us", "lower"},
		layerMetric{"predict.engine_calls", "1/op", "lower"},
		layerMetric{"predict.kernels_per_call", "count", "higher"},
		layerMetric{"predict.engine_share", "ratio", "lower"},
		layerMetric{"plan.cell_us", "us", "lower"},
		layerMetric{"plan.self_us_per_cell", "us", "lower"},
		layerMetric{"plan.kernels_per_cell", "count", "lower"},
		layerMetric{"runtime.gc_cycles_per_1k_req", "count", "lower"},
		layerMetric{"runtime.gc_pause_ms", "ms", "lower"},
		layerMetric{"trace.overhead_pct", "%", "lower"},
		layerMetric{"gen.lateness_p99_ms", "ms", "lower"},
		layerMetric{"gen.backlog_max", "count", "lower"},
	)
}()
