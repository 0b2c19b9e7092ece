package main

// metricDef names one reported metric. End-to-end metrics come from the
// untraced HTTP phases and print with -trace 0; per-layer metrics print
// with -trace 1. BENCHMARK.json lists the same names and units.
type metricDef struct {
	name, unit string
	e2e        bool
}

var metricDefs = []metricDef{
	{"setup_s", "s", true},
	{"server_peak_rss_mb", "MB", true},
	{"server_alloc_kb_per_op", "KiB", true},

	{"throughput_ops_s", "1/s", false},
	{"server_cpu_ms_per_op", "ms", false},

	{"p50_ms", "ms", false},
	{"p99_ms", "ms", false},
	{"commit_p50_ms", "ms", false},
	{"commit_p99_ms", "ms", false},
	{"reject_p50_ms", "ms", false},
	{"read_p50_ms", "ms", false},
	{"cold_p50_ms", "ms", false},
	{"failed_share", "share", false},
	{"gen.lateness_p50_ms", "ms", false},
	{"gen.lateness_p99_ms", "ms", false},
	{"open.service_p50_ms", "ms", false},
	{"open.ops", "count", false},
	{"closed.half_ratio", "ratio", false},
	{"docs.size_drift", "share", false},

	{"xserve.overhead_us", "us", false},
	{"store.admit.p50_us", "us", false},
	{"store.admit.p99_us", "us", false},
	{"store.apply.p50_us", "us", false},
	{"store.apply.p99_us", "us", false},
	{"store.wal.append.p50_us", "us", false},
	{"store.wal.append.p99_us", "us", false},
	{"store.fsync.p50_us", "us", false},
	{"store.fsync.p99_us", "us", false},
	{"store.read.p50_us", "us", false},
	{"store.read.p99_us", "us", false},
	{"store.create.p50_us", "us", false},
	{"store.create.p99_us", "us", false},
	{"store.drop.p50_us", "us", false},
	{"store.drop.p99_us", "us", false},
	{"store.update.unspanned.p50_us", "us", false},
	{"store.update.unspanned.p99_us", "us", false},
	{"store.admit.entries_per_check", "count", false},
	{"store.admit.reject_share", "share", false},
	{"store.snapshots_per_kop", "count", false},
	{"store.bytes_per_commit", "B", false},
	{"store.snapshot_ms", "ms", false},

	{"ops.commute_witness_us", "us", false},
	{"ops.commute_witness_allocs", "count", false},
	{"ops.fired_semantics_us", "us", false},
	{"ops.fired_semantics_allocs", "count", false},
	{"ops.apply_us", "us", false},
	{"ops.apply_allocs", "count", false},
	{"match.eval_us", "us", false},
	{"match.eval_allocs", "count", false},
	{"match.compiled_eval_us", "us", false},
	{"match.compiled_eval_allocs", "count", false},
	{"xmltree.clone_us", "us", false},
	{"xmltree.digest_us", "us", false},
	{"xmltree.xml_us", "us", false},
	{"xmltree.parse_us", "us", false},
	{"xpath.parse_us", "us", false},

	{"core.cache_hit_share", "share", false},
	{"core.detect_linear_us", "us", false},
	{"core.search_us", "us", false},
	{"core.batch_us", "us", false},
	{"program.analyze_us", "us", false},

	{"server.cpu_ms_per_op_all", "ms", false},
	{"server.mallocs_per_op", "count", false},
	{"server.gc_per_kop", "count", false},
	{"server.gc_pause_us_per_op", "us", false},
	{"server.heap_inuse_mb", "MB", false},

	{"host.steal_share", "share", false},
	{"trace.per_op_us", "us", false},
	{"trace.unspanned_share", "share", false},
	{"trace.overhead_pct", "%", false},
}
