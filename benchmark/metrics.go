package main

// metricDef names one reported metric. BENCHMARK.json at the repo root
// lists the same names, units, directions and bounds; a unit test keeps
// the two in step. README.md holds the glossary (what each metric means,
// where it is measured and which end-to-end metric it should move).
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd are the bounded metrics: every workload reports every one of
// them on every untraced run, and none is ever zero. The end-to-end
// numbers that exist on one workload only (txn_p50_ms, unavail_ms), that
// the percentile rule withholds on some workloads (the two p95s) or that
// are zero on a healthy run (failed_share) are reported with the traced
// run instead, unbounded; see README.md.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the unbounded metrics of the traced run. A metric that
// does not apply to a workload reads 0 there.
var perLayer = []metricDef{
	// End-to-end numbers that cannot carry a bound (see endToEnd).
	{"read_p95_ms", "ms", "lower", 0},
	{"write_p95_ms", "ms", "lower", 0},
	{"txn_p50_ms", "ms", "lower", 0},
	{"unavail_ms", "ms", "lower", 0},
	{"failed_share", "share", "lower", 0},

	{"wire.encode_accept_ns", "ns", "lower", 0},
	{"wire.decode_accept_ns", "ns", "lower", 0},
	{"wire.allocs_per_roundtrip", "count", "lower", 0},
	{"wire.bytes_per_write", "B", "lower", 0},
	{"wire.encode_state_us_1mb", "us", "lower", 0},

	{"transport.msgs_per_op", "count", "lower", 0},
	{"transport.decode_p50_us", "us", "lower", 0},
	{"transport.queue_depth_max", "count", "lower", 0},
	{"transport.tcpx_rtt_us", "us", "lower", 0},
	{"transport.chanx_overhead_us", "us", "lower", 0},
	{"transport.drops", "count", "lower", 0},

	{"netem.model_read_ms", "ms", "lower", 0},
	{"netem.model_write_ms", "ms", "lower", 0},
	{"netem.decide_ns", "ns", "lower", 0},

	{"storage.fsyncs_per_write", "count", "lower", 0},
	{"storage.records_per_batch_p50", "count", "higher", 0},
	{"storage.wal_bytes_per_write", "B", "lower", 0},
	{"storage.wal_rewrites", "count", "lower", 0},
	{"storage.fsync_p50_ms", "ms", "lower", 0},
	{"storage.fsync_p95_ms", "ms", "lower", 0},
	{"storage.put_flush_us", "us", "lower", 0},
	{"storage.load_ms", "ms", "lower", 0},
	{"storage.restart_ms", "ms", "lower", 0},

	{"paxos.on_accept_ns", "ns", "lower", 0},

	{"core.execute_p50_us", "us", "lower", 0},
	{"core.execute_p95_us", "us", "lower", 0},
	{"core.quorum_p50_us", "us", "lower", 0},
	{"core.request_p50_us", "us", "lower", 0},
	{"core.reqs_per_wave", "count", "higher", 0},
	{"core.waves_in_flight_max", "count", "higher", 0},
	{"core.reads_parallel_share", "share", "higher", 0},
	{"core.read_pool_queue_depth_max", "count", "lower", 0},
	{"core.waves_rolled_back", "count", "lower", 0},
	{"core.deferred_drops", "count", "lower", 0},
	{"core.snapshot_saves", "count", "lower", 0},
	{"core.outside_leader_us", "us", "lower", 0},
	{"core.model_residual_read_ms", "ms", "lower", 0},
	{"core.model_residual_write_ms", "ms", "lower", 0},
	{"core.unattributed_us", "us", "lower", 0},

	{"service.kv_put_ns", "ns", "lower", 0},
	{"service.kv_put_pinned_us", "us", "lower", 0},
	{"service.kv_get_ns", "ns", "lower", 0},
	{"service.kv_snapshot_ms", "ms", "lower", 0},
	{"service.kv_restore_ms", "ms", "lower", 0},
	{"service.kv_delta_bytes", "B", "lower", 0},
	{"service.sched_execute_ns", "ns", "lower", 0},
	{"service.sched_snapshot_us", "us", "lower", 0},
	{"service.execute_self_us", "us", "lower", 0},

	{"omega.detect_ms", "ms", "lower", 0},
	{"omega.activate_ms", "ms", "lower", 0},
	{"omega.elections_per_crash", "count", "lower", 0},
	{"client.first_ack_ms", "ms", "lower", 0},
	{"client.requests_per_op", "count", "lower", 0},
	{"client.lat_p99_ms", "ms", "lower", 0},

	{"gateway.queued_share", "share", "lower", 0},
	{"gateway.shed_share", "share", "lower", 0},
	{"gateway.dedup_hits", "count", "lower", 0},
	{"gateway.inflight_max", "count", "lower", 0},
	{"gateway.admit_ns", "ns", "lower", 0},

	{"cluster.boot_ms", "ms", "lower", 0},
	{"cluster.preload_s", "s", "lower", 0},

	{"metrics.observe_ns", "ns", "lower", 0},

	{"bench.generator_lag_p95_ms", "ms", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
	{"bench.samples", "count", "higher", 0},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object from measured values: exactly the names
// in defs, a missing value reading 0.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
