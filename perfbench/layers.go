package main

import (
	"frappe/internal/experiments"
)

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. An op is one /check verdict and a wait is one
// request's latency.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"wait_p50_ms", "ms"},
	{"wait_p95_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer lists the per-layer metrics every traced run reports, in
// BENCHMARK.json order, followed by one experiments.<stage>_s per stage of
// experiments.Pipeline. A layer the workload does not exercise reads 0.
var perLayer = []struct{ name, unit string }{
	{"cluster.hop_self_us", "us"},
	{"cluster.member_share_max", "ratio"},
	{"cluster.requests_per_check", "ratio"},
	{"frappe.handler_self_us", "us"},
	{"frappe.assess_hit_us", "us"},
	{"frappe.assess_miss_us", "us"},
	{"frappe.cache_hit_ratio", "ratio"},
	{"tracing.cost_us", "us"},
	{"crawler.crawl_us", "us"},
	{"httpx.attempts_per_fetch", "ratio"},
	{"graphapi.summary_us", "us"},
	{"graphapi.feed_us", "us"},
	{"graphapi.install_us", "us"},
	{"wot.score_us", "us"},
	{"graphapi.feed_bytes", "bytes"},
	{"upstream.fetches_per_check", "ratio"},
	{"core.classify_us", "us"},
	{"runtime.alloc_bytes_per_op", "bytes"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"wal.append_ns", "ns"},
	{"wal.sync_ms", "ms"},
	{"wal.bytes_per_event", "bytes"},
	{"wal.read_ns", "ns"},
	{"mypagekeeper.decode_ns", "ns"},
	{"mypagekeeper.observe_ns", "ns"},
	{"mypagekeeper.ingest_nowal_ns", "ns"},
	{"mypagekeeper.monitor_mb", "MB"},
	{"mypagekeeper.ingest_events_per_s", "1/s"},
	{"mypagekeeper.replay_events_per_s", "1/s"},
	{"lab.report_s", "s"},
	{"lab.report_cached_s", "s"},
	{"lab.critical_path_s", "s"},
	{"lab.stage_sum_s", "s"},
	{"lab.parallel_efficiency", "ratio"},
	{"lab.store_bytes", "bytes"},
}

// stageNames lists the experiment DAG's stages.
func stageNames() []string {
	var names []string
	for _, s := range experiments.Pipeline(experiments.PipelineOptions{Scale: offlineScale}) {
		names = append(names, s.Name)
	}
	return names
}

func stageMetric(stage string) string { return "experiments." + stage + "_s" }

// layerTable completes values to the full per-layer table, 0 for every
// layer the run did not exercise.
func layerTable(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(perLayer)+40)
	for _, m := range perLayer {
		out[m.name] = metric{values[m.name], m.unit}
	}
	for _, s := range stageNames() {
		name := stageMetric(s)
		out[name] = metric{values[name], "s"}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			panic("perfbench: per-layer metric " + name + " is not in the table")
		}
	}
	return out
}

// statOf returns the named layer's aggregate (zero when it has no spans).
func statOf(stats map[string]*layerStat, layer string) *layerStat {
	if s, ok := stats[layer]; ok {
		return s
	}
	return &layerStat{}
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}
