package main

// metricDef names one reported metric. BENCHMARK.json at the repository root
// carries the same names, units and directions (plus the end-to-end bounds);
// the smoke test fails when the two disagree.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd lists what a user of the system sees. Every workload reports every
// one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_tuples_per_s", "1/s", "higher"},
	{"epoch_latency_p50_ms", "ms", "lower"},
	{"epoch_latency_p95_ms", "ms", "lower"},
	{"install_latency_p50_ms", "ms", "lower"},
	{"install_latency_p90_ms", "ms", "lower"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics; the prefix is the layer (package).
// A metric whose layer a workload does not exercise reads 0 on that workload.
// The first three are end-to-end figures only durable_spill can measure, kept
// here because the contract wants every end-to-end metric from every workload.
var perLayer = []metricDef{
	{"read_throughput_keys_per_s", "1/s", "higher"},
	{"recovery_s", "s", "lower"},
	{"write_amp_x", "x", "lower"},

	{"bench.gen_late_p95_ms", "ms", "lower"},
	{"bench.trace_overhead_frac", "frac", "lower"},
	{"bench.alloc_bytes_per_tuple", "B", "lower"},
	{"bench.gc_cpu_frac", "frac", "lower"},
	{"bench.gc_pause_total_ms", "ms", "lower"},

	{"timely.exchange_records_per_s", "1/s", "higher"},
	{"timely.epoch_overhead_us", "us", "lower"},
	{"timely.scaling_w2_over_w1_x", "x", "higher"},

	{"core.build_batch_tuples_per_s", "1/s", "higher"},
	{"core.arrange_records_per_s", "1/s", "higher"},
	{"core.spine_merge_row_tuples_per_s", "1/s", "higher"},
	{"core.spine_merge_col_tuples_per_s", "1/s", "higher"},
	{"core.cursor_seek_ns", "ns", "lower"},
	{"core.import_snapshot_ms", "ms", "lower"},
	{"core.spine_runs", "count", "lower"},
	{"core.spine_updates", "count", "lower"},

	{"dd.q01_tuples_per_s", "1/s", "higher"},
	{"dd.q03_tuples_per_s", "1/s", "higher"},
	{"dd.q06_tuples_per_s", "1/s", "higher"},
	{"dd.q15_tuples_per_s", "1/s", "higher"},
	{"dd.join_probe_tuples_per_s", "1/s", "higher"},
	{"dd.reduce_keys_per_s", "1/s", "higher"},
	{"dd.iterate_tc_ms", "ms", "lower"},

	{"server.update_advance_us", "us", "lower"},
	{"server.physical_seal_ratio", "ratio", "higher"},
	{"server.install_busy_ms", "ms", "lower"},
	{"server.checkpoint_ms", "ms", "lower"},
	{"server.restore_ms", "ms", "lower"},
	{"server.unshared_heap_live_mb", "MB", "lower"},
	{"server.unshared_install_p50_ms", "ms", "lower"},

	{"wal.append_mb_per_s", "MB/s", "higher"},
	{"wal.group_commit_eps", "1/s", "higher"},
	{"wal.rotate_ms", "ms", "lower"},
	{"wal.replay_ms", "ms", "lower"},
	{"wal.log_bytes", "B", "lower"},

	{"block.spill_mb_per_s", "MB/s", "higher"},
	{"block.unspill_mb_per_s", "MB/s", "higher"},
	{"block.reads_per_lookup", "ratio", "lower"},
	{"block.cache_bytes", "B", "lower"},
	{"block.files_live", "count", "lower"},

	{"plan.parse_compile_us", "us", "lower"},
	{"plan.planner_us", "us", "lower"},
	{"plan.codec_roundtrip_us", "us", "lower"},

	{"net.update_rtt_us", "us", "lower"},
	{"net.wire_overhead_ms", "ms", "lower"},
	{"net.bytes_per_epoch", "B", "lower"},
	{"net.events_per_s", "1/s", "higher"},
	{"net.resyncs", "count", "lower"},
	{"net.registry_hit_ratio", "ratio", "higher"},
}

// workloadNames in the order -all runs them.
var workloadNames = []string{"tpch_stream", "graph_interactive", "wire_datalog", "durable_spill"}
