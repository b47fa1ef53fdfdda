package main

// metricName is a metric the benchmark emits, with its unit.
type metricName struct{ name, unit string }

// endToEnd is what an untraced run reports, on every workload.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"gflops_1t", "GFLOP/s"},
	{"gflops_nt", "GFLOP/s"},
	{"lat_p50_ms", "ms"},
	{"lat_p99_ms", "ms"},
	{"peak_rps", "1/s"},
	{"slo_attain_ratio", "ratio"},
	{"heap_peak_mb", "MiB"},
}

// perLayer is what a traced run reports, on every workload; a layer the
// workload never calls into reads 0.
var perLayer = []metricName{
	{"serve.handler_ms_p50", "ms"},
	{"serve.transport_ms_p50", "ms"},
	{"serve.decode_ms_p50", "ms"},
	{"serve.encode_ms_p50", "ms"},
	{"serve.body_kb", "KiB"},
	{"serve.shed_ratio", "ratio"},
	{"serve.expired_ratio", "ratio"},
	{"serve.queue_full_ratio", "ratio"},
	{"layout.to_compact_ms_p50", "ms"},
	{"layout.from_compact_ms_p50", "ms"},
	{"engine.queue_wait_ms_p50", "ms"},
	{"engine.queue_wait_ms_p99", "ms"},
	{"engine.reqs_per_dispatch", "count"},
	{"engine.inline_ratio", "ratio"},
	{"engine.fuse_us_p50", "us"},
	{"engine.scatter_us_p50", "us"},
	{"engine.steal_ratio", "ratio"},
	{"engine.rejected_ratio", "ratio"},
	{"engine.plan_hit_ratio", "ratio"},
	{"engine.plan_us_p50", "us"},
	{"engine.plan_build_ms_total", "ms"},
	{"engine.packcache_hit_ratio", "ratio"},
	{"engine.packcache_stale_per_call", "count"},
	{"engine.pack_us_p50", "us"},
	{"core.compute_ms_p50", "ms"},
	{"core.compute_gflops", "GFLOP/s"},
	{"core.exec_gflops", "GFLOP/s"},
	{"core.pipeline_stall_ratio", "ratio"},
	{"core.pipeline_fallbacks", "count"},
	{"pack.share", "ratio"},
	{"kernels.gemm_gflops", "GFLOP/s"},
	{"kernels.tri_gflops", "GFLOP/s"},
	{"kernels.flops_per_byte", "FLOP/B"},
	{"sched.parallel_ratio", "ratio"},
	{"sched.overflow_runs", "count"},
	{"sched.scaling_eff", "ratio"},
	{"bufpool.reuse_ratio", "ratio"},
	{"bufpool.allocs_per_call", "count"},
	{"go.alloc_kb_per_req", "KiB"},
	{"go.allocs_per_req", "count"},
	{"go.gc_cpu_ratio", "ratio"},
	{"gen.lag_ms_p99", "ms"},
	{"gen.backlog_end", "count"},
	{"obs.trace_overhead_ratio", "ratio"},
}
