package main

// metricDef is one metric the benchmark prints. The end-to-end set is
// printed by an untraced run, the per-layer set by a traced run;
// BENCHMARK.json declares the same names and units (a test checks it).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees, present, non-zero
// and steady on every workload: set-up time, median query latency (which
// carries the shared-storage wait on tpch-cold), the compute each op
// costs and memory. See workloadFigures for why the other wall-clock
// figures are not among them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"query_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MiB"},
}

// workloadFigures are end-to-end figures that cannot be end-to-end
// metrics here. On a 2-CPU host shared with other tenants, throughput and
// tail latency moved by up to half between runs of the same code (median
// latency and CPU time per op stayed within a fifth); loads exist only
// on trickle-ingest, GETs hardly at all on tpch-warm, and the error rate
// reads 0 on a healthy run. They lead the per-layer list; untraced runs
// compute them too and print them in the report line.
var workloadFigures = []metricDef{
	{"queries_per_s", "1/s"},
	{"query_p99_ms", "ms"},
	{"load_p50_ms", "ms"},
	{"load_p99_ms", "ms"},
	{"rows_loaded_per_s", "rows/s"},
	{"space_amp", "ratio"},
	{"s3_cost_nusd_per_op", "nUSD"},
	{"error_rate", "ratio"},
}

// perLayer are the single-layer metrics of a traced run.
var perLayer = append(workloadFigures, []metricDef{
	{"objstore.gets", "count"},
	{"objstore.get_bytes", "bytes"},
	{"objstore.get_busy_s", "s"},
	{"objstore.get_p50_ms", "ms"},
	{"objstore.get_p99_ms", "ms"},
	{"objstore.puts", "count"},
	{"objstore.put_bytes", "bytes"},
	{"objstore.put_busy_s", "s"},
	{"objstore.lists", "count"},
	{"objstore.deletes", "count"},
	{"objstore.errors", "count"},

	{"resilience.retries", "count"},
	{"resilience.hedges_fired", "count"},
	{"resilience.hedges_won", "count"},
	{"resilience.fallbacks", "count"},

	{"cache.hits", "count"},
	{"cache.misses", "count"},
	{"cache.coalesced", "count"},
	{"cache.evictions", "count"},
	{"cache.hit_ratio", "ratio"},

	{"scan.decode_s", "s"},
	{"scan.rows_decoded", "count"},
	{"scan.blocks_scanned", "count"},
	{"scan.blocks_pruned", "count"},
	{"scan.containers_pruned", "count"},
	{"scan.io_wait_s", "s"},
	{"scan.filter_s", "s"},
	{"scan.rows_vectorized", "count"},
	{"scan.rows_fallback", "count"},

	{"plancache.hits", "count"},
	{"plancache.misses", "count"},
	{"plancache.replans", "count"},
	{"sql.normalize_us", "us"},
	{"sql.parse_us", "us"},

	{"resultcache.hits", "count"},
	{"resultcache.misses", "count"},
	{"resultcache.evictions", "count"},
	{"resultcache.hit_ratio", "ratio"},

	{"catalog.objects_peak", "count"},
	{"catalog.containers_peak", "count"},
	{"catalog.commits", "count"},
	{"catalog.containersof_us", "us"},
	{"catalog.deletevectorsof_us", "us"},
	{"catalog.sync_s", "s"},
	{"catalog.revive_s", "s"},

	{"net.messages", "count"},
	{"net.bytes", "bytes"},

	{"load.busy_s", "s"},
	{"load.put_busy_s", "s"},

	{"tuplemover.runs", "count"},
	{"tuplemover.busy_s", "s"},
	{"tuplemover.containers_merged", "count"},
	{"tuplemover.bytes_rewritten", "bytes"},
	{"tuplemover.write_amp", "ratio"},

	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_s", "s"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.goroutines_peak", "count"},
	{"runtime.heap_peak_mb", "MiB"},

	{"self_s.query", "s"},
	{"self_s.load", "s"},
	{"self_s.tuplemover", "s"},
	{"self_s.sync", "s"},
	{"self_s.gc", "s"},
	{"self_s.objstore.get", "s"},
	{"self_s.objstore.put", "s"},
	{"self_s.objstore.list", "s"},
	{"self_s.objstore.delete", "s"},
	{"trace.spans", "count"},
	{"trace.unattributed", "count"},
	{"trace.ambiguous", "count"},
	{"trace.overhead_qps_pct", "%"},
	{"trace.overhead_p50_pct", "%"},
}...)
