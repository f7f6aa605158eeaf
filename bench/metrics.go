package main

// metricDef names one reported metric. The end-to-end list and the
// per-layer list below are the benchmark's whole vocabulary: BENCHMARK.json
// repeats them (a test holds the two equal), every run prints each by name
// with its unit, and a result file stores nothing else.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd is what a user of the system sees. Every workload reports every
// one of them on an untraced run, so each is named for the role it plays
// and bench/README.md says what it measures on each workload:
//
//	             paper_sim            mega_epoch              serve_read        serve_live
//	throughput   sim-s per wall-s     planned-s per wall-s    hot-phase req/s   reader req/s
//	p50_ms       Step that plans      PlanEpoch               cold request      update due→delta
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// floors is the absolute change below which -compare calls an end-to-end
// metric unchanged whatever the ratio: set-up times here are milliseconds,
// where a relative bound alone would flag scheduler jitter.
var floors = map[string]float64{
	"setup_s": 0.05,
	"p50_ms":  0.3,
}

// perLayer is measured on traced runs. A metric a workload does not
// exercise reads 0 there. The unprefixed names at the top are the
// workload-specific end-to-end numbers (sim_rtf, cold_p90_ms, ...): they
// cannot be contract end-to-end metrics, which every workload must report,
// so they are recorded here under the names later issues cite.
var perLayer = []metricDef{
	{"sim_rtf", "1/s", "higher"},
	{"alloc_mb", "MB", "lower"},
	{"plan_epoch_s", "s", "lower"},
	{"hot_req_per_s", "1/s", "higher"},
	{"hot_p50_ms", "ms", "lower"},
	{"hot_p99_ms", "ms", "lower"},
	{"cold_p50_ms", "ms", "lower"},
	{"cold_p90_ms", "ms", "lower"},
	{"update_tle_p50_ms", "ms", "lower"},
	{"update_weather_p50_ms", "ms", "lower"},
	{"delta_lag_p50_ms", "ms", "lower"},
	{"poll_p50_ms", "ms", "lower"},
	{"poll_p99_ms", "ms", "lower"},
	{"poll_req_per_s", "1/s", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},

	{"sgp4.propagate_ns", "ns", "lower"},
	{"sgp4.batch_ns_per_sat", "ns", "lower"},
	{"poscache.fill_us", "us", "lower"},
	{"poscache.hit_ns", "ns", "lower"},
	{"poscache.atrange_us_per_instant", "us", "lower"},
	{"passes.windows_s", "s", "lower"},
	{"passes.windows_w1_s", "s", "lower"},
	{"passes.windows_norefine_s", "s", "lower"},
	{"passes.windows_count", "count", "higher"},
	{"passes.candidate_share", "ratio", "lower"},
	{"passes.refine_bisections", "count", "lower"},
	{"passes.alloc_mb", "MB", "lower"},
	{"weather.forecast_ns", "ns", "lower"},
	{"linkbudget.rate_miss_ns", "ns", "lower"},
	{"linkbudget.rate_hit_ns", "ns", "lower"},
	{"core.visibility_ms", "ms", "lower"},
	{"core.edges_per_slot", "count", "higher"},
	{"core.build_graph_us", "us", "lower"},
	{"match.stable_us", "us", "lower"},
	{"match.graph_edges", "count", "higher"},
	{"match.matched", "count", "higher"},
	{"core.plan_epoch_s", "s", "lower"},
	{"core.plan_epoch_alloc_mb", "MB", "lower"},
	{"core.plan_epoch_w1_s", "s", "lower"},
	{"core.par_speedup", "ratio", "higher"},
	{"core.plan_minus_passes_s", "s", "lower"},
	{"core.passes_share", "ratio", "lower"},
	{"core.replan_tle_ms", "ms", "lower"},
	{"core.replan_weather_ms", "ms", "lower"},
	{"core.replan_changed_slots", "count", "lower"},
	{"sim.new_engine_ms", "ms", "lower"},
	{"sim.steps", "count", "higher"},
	{"sim.plans", "count", "higher"},
	{"sim.step_p50_us", "us", "lower"},
	{"sim.step_epoch_p50_ms", "ms", "lower"},
	{"sim.plan_share", "ratio", "lower"},
	{"sim.finalize_ms", "ms", "lower"},
	{"sim.checkpoint_ms", "ms", "lower"},
	{"sim.restore_ms", "ms", "lower"},
	{"sim.checkpoint_bytes", "count", "lower"},
	{"sim.fig3a_24x48_w1_s", "s", "lower"},
	{"serve.snapshot_build_ms", "ms", "lower"},
	{"serve.store_build_ms", "ms", "lower"},
	{"serve.passes_all_ms", "ms", "lower"},
	{"serve.passes_sat_ms", "ms", "lower"},
	{"serve.passes_station_ms", "ms", "lower"},
	{"serve.plan_ms", "ms", "lower"},
	{"serve.linkbudget_us", "us", "lower"},
	{"serve.handler_hit_us", "us", "lower"},
	{"serve.handler_304_us", "us", "lower"},
	{"serve.body_bytes_p50", "count", "lower"},
	{"serve.transport_share", "ratio", "lower"},
	{"serve.apply_tle_ms", "ms", "lower"},
	{"serve.apply_weather_ms", "ms", "lower"},
	{"serve.apply_station_ms", "ms", "lower"},
	{"serve.apply_incremental_share", "ratio", "higher"},
	{"serve.sse_fanout_us", "us", "lower"},
	{"serve.cache_hit_share", "ratio", "higher"},
	{"serve.cache_hit_share_cold", "ratio", "lower"},
	{"serve.dedups", "count", "lower"},
	{"serve.rejected", "count", "lower"},
	{"serve.worlds_retired_end", "count", "lower"},
	{"proc.peak_rss_mb", "MB", "lower"},
	{"proc.cpu_s", "s", "lower"},
	{"proc.cpu_util", "ratio", "higher"},
	{"proc.num_gc", "count", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"trace.spans", "count", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}
