package main

// layerDef is one per-layer metric of the traced run.
type layerDef struct {
	name, unit string
}

// layerMetrics is every per-layer metric the traced run reports, in the
// order of the layer table in README.md.
var layerMetrics = []layerDef{
	{"workloads.build_ms", "ms"},

	{"runner.ns_per_op", "ns"},
	{"runner.self_ns_per_op", "ns"},
	{"runner.alloc_bytes_per_run", "bytes"},
	{"runner.gc_per_s", "1/s"},

	{"cache.new_us", "us"},
	{"cache.new_share", "share"},
	{"cache.access_ns", "ns"},
	{"cache.hitm_share", "share"},
	{"cache.l1_miss_share", "share"},

	{"perf.overflows_per_kop", "1/kop"},
	{"demand.analyzed_share", "share"},
	{"demand.transitions_per_kop", "1/kop"},
	{"sched.steps", "count"},

	{"detector.replay_ns_per_event", "ns"},
	{"detector.fastpath_share", "share"},
	{"detector.vc_fallback_share", "share"},
	{"detector.read_spills", "count"},

	{"trace.encode_mb_per_s", "MB/s"},
	{"trace.decode_mb_per_s", "MB/s"},
	{"trace.stream_decode_mb_per_s", "MB/s"},
	{"trace.live_replay_ns_per_event", "ns"},
	{"trace.live_rebuilds", "count"},

	{"ingest.chunk_ms", "ms"},
	{"ingest.commit_ms", "ms"},
	{"ingest.dup_ack_share", "share"},

	{"service.submit_ms", "ms"},
	{"service.trace_submit_ms", "ms"},
	{"service.status_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.cache_hit_share", "share"},
	{"service.cache_lookup_ms", "ms"},
	{"service.queue_wait_ms", "ms"},
	{"service.analysis_ms", "ms"},
	{"service.render_ms", "ms"},

	{"client.polls_per_job", "count"},
	{"client.wait_slack_ms", "ms"},
	{"client.requests_per_job", "count"},

	{"cluster.gateway_submit_ms", "ms"},
	{"cluster.gateway_status_ms", "ms"},
	{"cluster.gateway_result_ms", "ms"},
	{"cluster.gateway_self_ms", "ms"},
	{"cluster.upstream_per_request", "count"},
	{"cluster.background_rps", "1/s"},

	{"replica.writes_per_miss", "count"},
	{"replica.write_ms", "ms"},

	{"store.put_ms", "ms"},
	{"store.get_ms", "ms"},
	{"store.bytes_per_result", "bytes"},

	{"bench.trace_overhead_share", "share"},
}

// droppedLayerMetrics names per-layer metrics the traced run does not
// report, with the reason.
var droppedLayerMetrics []struct{ name, reason string }
