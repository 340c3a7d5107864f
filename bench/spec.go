package main

// The benchmark's contract: workload and metric names, units, directions
// and regression bounds. BENCHMARK.json at the repo root lists exactly
// these (smoke_test.go holds the two together); -compare reads the
// bounds from here.

type workloadSpec struct {
	Name string
	Why  string
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median a metric may worsen by (end-to-end only)
}

const (
	wlDecodeBound   = "decode-bound"
	wlWireCliff     = "wire-cliff"
	wlFleetOpen     = "fleet-openloop"
	wlPublishBeside = "publish-beside-read"
)

var workloadSpecs = []workloadSpec{
	{wlDecodeBound, "closed loop, 1 client, unshaped loopback, fixed level: ~95% of load time is entropy decode + dequantize + tensor assembly, so codec kernels show here and wire or scheduler changes show nothing"},
	{wlWireCliff, "closed loop, 1 client, a Figure-7 bandwidth cliff replayed on every request, adaptive policy: network- and adaptation-bound, the control where a faster decoder should move TTFT by ~0"},
	{wlFleetOpen, "open loop at a fixed rate, 3 nodes with a RAM tier over FileStore, Zipf popularity, shipped gateway config: the only workload with a queue, where per-message costs and tail TTFT show"},
	{wlPublishBeside, "closed-loop writer (publish, dedup publish, append, delete+sweep) beside an open-loop reader: the layers used the other way round, so a decode win bought with a heavier encoder or store shows"},
}

// endToEndSpecs are printed by an untraced run (-trace 0), every one on
// every workload.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	// The 2-core reference box itself drifts by ±10% between runs minutes
	// apart (decode-bound, one closed loop of pure CPU work, read 68 to
	// 80 ms P50 across six consecutive fresh processes), so everything
	// that scales with CPU speed carries the widest bound the driver
	// allows; tighter bounds would only report the machine.
	{"ttft_p50_ms", "ms", "lower", 0.25},
	{"goodput_rps", "1/s", "higher", 0.25},
	{"wire_bytes_per_kv_byte", "ratio", "lower", 0.05},
	{"kv_quality", "score", "higher", 0.02},
	{"cpu_s_per_req", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

func lower(unit string, names ...string) []metricSpec  { return specs(unit, "lower", names) }
func higher(unit string, names ...string) []metricSpec { return specs(unit, "higher", names) }

func specs(unit, better string, names []string) []metricSpec {
	out := make([]metricSpec, len(names))
	for i, n := range names {
		out[i] = metricSpec{Name: n, Unit: unit, Better: better}
	}
	return out
}

// perLayerSpecs are printed by a traced run (-trace 1), every one on
// every workload; a layer a workload does not exercise reports 0.
var perLayerSpecs = concat(
	// loadgen: validity of the run itself.
	// The tail is a row here and not end-to-end: on the shared 2-core box
	// ttft_p90_ms spread 23% between quiet runs of fleet-openloop and up to
	// 89% while the host stole CPU, past the widest bound the driver allows.
	lower("ms", "loadgen.lag_p95_ms", "loadgen.ttft_p90_ms", "loadgen.ttft_p99_ms"),
	higher("count", "loadgen.sent", "loadgen.ok"),
	lower("count", "loadgen.failed", "loadgen.rejected", "loadgen.timed_out", "loadgen.incorrect"),
	lower("ratio", "loadgen.slo_miss_ratio", "loadgen.fail_ratio"),

	lower("ms", "gateway.queue_wait_p50_ms", "gateway.queue_wait_p95_ms"),
	higher("ratio", "gateway.prefetch_hit_ratio"),
	lower("us", "gateway.self_us_per_req"),
	lower("ratio", "gateway.degraded_ratio"),
	lower("count", "gateway.peak_queue_depth"),

	lower("us", "sched.plan_us_per_req"),
	lower("count", "sched.choose_calls_per_req", "sched.replans_per_req"),
	higher("ratio", "sched.src_ram_ratio"),
	lower("ratio", "sched.src_remote_ratio", "sched.src_recompute_ratio", "sched.src_other_ratio"),

	lower("ms", "streamer.load_p50_ms"),
	lower("us", "streamer.manifest_us_per_req"),
	lower("ms", "streamer.transfer_excl_ms_per_req", "streamer.decode_excl_ms_per_req",
		"streamer.recompute_excl_ms_per_req", "streamer.idle_ms_per_req"),
	lower("count", "streamer.switches_per_req", "streamer.cancels_per_req"),
	lower("ratio", "streamer.wasted_byte_ratio"),
	lower("level", "streamer.level_mean"),
	lower("ratio", "streamer.text_chunk_ratio"),
	lower("count", "streamer.corrupt_rejected"),

	lower("us", "cluster.get_chunk_p50_us", "cluster.get_chunk_p95_us"),
	lower("ratio", "cluster.amplification"),
	lower("count", "cluster.failovers", "cluster.dials"),
	lower("count", "resilience.hedges"),
	higher("ratio", "resilience.hedge_win_ratio"),
	lower("count", "resilience.retries_denied"),

	lower("us", "transport.rtt_p50_us"),
	higher("MB/s", "transport.get_chunk_mb_per_s", "transport.stream_mb_per_s"),
	lower("1/MB", "transport.frames_per_mb"),
	lower("count", "transport.allocs_per_frame"),
	lower("B/MB", "transport.alloc_bytes_per_mb"),
	lower("ratio", "transport.shaper_rate_error"),

	lower("us", "storage.get_chunk_p50_us", "storage.get_chunk_p95_us", "storage.get_manifest_p50_us"),
	higher("ratio", "storage.ram_hit_ratio"),
	lower("count", "storage.evictions_per_req"),
	lower("us", "storage.put_chunk_p50_us", "storage.put_manifest_p50_us"),
	lower("ms", "storage.sweep_ms_per_sweep"),
	higher("B", "storage.reclaimed_bytes_per_sweep"),
	higher("ratio", "storage.dedup_reuse_ratio"),

	lower("us", "core.parse_us_per_chunk"),
	higher("MB/s", "core.decode_mb_per_s_1core", "core.decode_mb_per_s_ncore"),
	lower("count", "core.decode_allocs_per_chunk"),
	lower("ratio", "core.decode_alloc_bytes_per_kv_byte"),
	higher("MB/s", "core.encode_l1_mb_per_s", "core.encode_all_levels_mb_per_s"),
	lower("count", "core.encode_allocs_per_chunk"),
	lower("bit", "core.bits_per_elem_l0", "core.bits_per_elem_l1", "core.bits_per_elem_l2", "core.bits_per_elem_l3"),

	higher("Msym/s", "ac.decode_msym_per_s", "ac.encode_msym_per_s"),
	higher("Melem/s", "quant.dequantize_row_melem_per_s", "quant.quantize_row_melem_per_s"),
	higher("GB/s", "tensor.copy_tokens_gb_per_s"),

	higher("ktok/s", "llm.calculate_kv_ktok_per_s"),
	lower("ms", "llm.modelled_prefill_ms"),

	lower("ratio", "baselines.quant8_bytes_per_kv_byte"),
	higher("ratio", "baselines.size_reduction_vs_quant8"),
	lower("ms", "baselines.quant8_load_p50_ms", "baselines.text_load_p50_ms"),
	higher("ratio", "baselines.load_speedup_vs_quant8", "baselines.load_speedup_vs_text"),

	lower("ratio", "telemetry.trace_overhead_ratio"),
	lower("count", "telemetry.spans_per_req", "telemetry.spans_dropped"),
	higher("ratio", "telemetry.self_time_coverage"),

	lower("count", "proc.allocs_per_req"),
	lower("MB", "proc.alloc_mb_per_req"),
	lower("ms/s", "proc.gc_pause_ms_per_s"),
	lower("count", "proc.goroutines_peak"),
	lower("s", "proc.cpu_s_total"),

	// The write side of publish-beside-read. End-to-end in kind, but the
	// driver wants every end-to-end metric from every workload, so they
	// are rows here and reach the gate through goodput_rps and
	// cpu_s_per_req of that workload.
	lower("ms", "writer.publish_p50_ms", "writer.publish_p95_ms", "writer.append_p50_ms", "writer.append_p95_ms"),
	lower("ratio", "writer.stored_bytes_per_kv_byte"),
)

func concat(groups ...[]metricSpec) []metricSpec {
	var out []metricSpec
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}
