package main

// metricDef defines one end-to-end metric: its unit, which direction is
// better, and the bound by which its median may worsen before a change
// counts as a regression (a share of the old median; zero means any
// worsening at all).
type metricDef struct {
	name, unit, better string
	bound              float64
	serviceOnly        bool
}

// e2eMetrics are measured with tracing off, one value per fresh child
// process, and reported as the median over the repetitions. The first
// six are reported on every workload and are the ones BENCHMARK.json
// names.
var e2eMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.25, false},
	{"cpu_s", "s", "lower", 0.25, false},
	{"setup_s", "s", "lower", 0.25, false},
	{"max_rss_mb", "MB", "lower", 0.15, false},
	{"alloc_mb", "MB", "lower", 0.03, false},
	{"mallocs_m", "M", "lower", 0.03, false},
	{"job_s", "s", "lower", 0.25, true},
	{"warm_job_ms.p50", "ms", "lower", 0.25, true},
	{"warm_job_ms.p98", "ms", "lower", 0.25, true},
	{"fidelity_errors", "count", "lower", 0, false},
	{"failed_frac", "ratio", "lower", 0, false},
}

// layerDef defines one per-layer metric. Layer metrics have no bound:
// they explain a change in an end-to-end metric (README.md lists which
// one each should move, and on which workload).
type layerDef struct{ name, unit, better string }

var layerMetrics = []layerDef{
	{"sim.self_pct", "%", "lower"},
	{"sim.engine_steps", "count", "lower"},
	{"sim.ns_per_step", "ns", "lower"},
	{"sim.mticks_per_s", "Mticks/s", "higher"},
	{"sim.step_ns", "ns", "lower"},
	{"cpu.self_pct", "%", "lower"},
	{"cpu.tick_ns", "ns", "lower"},
	{"cpu.tick_allocs", "allocs", "lower"},
	{"trace.self_pct", "%", "lower"},
	{"trace.next_ns", "ns", "lower"},
	{"trace.next_allocs", "allocs", "lower"},
	{"cache.self_pct", "%", "lower"},
	{"cache.access_hit_ns", "ns", "lower"},
	{"cache.access_miss_ns", "ns", "lower"},
	{"cache.access_allocs", "allocs", "lower"},
	{"memctrl.self_pct", "%", "lower"},
	{"memctrl.requests", "count", "lower"},
	{"memctrl.rfms", "count", "lower"},
	{"memctrl.request_ns", "ns", "lower"},
	{"memctrl.request_allocs", "allocs", "lower"},
	{"dram.self_pct", "%", "lower"},
	{"dram.acts", "count", "lower"},
	{"dram.alerts", "count", "lower"},
	{"dram.issue_ns", "ns", "lower"},
	{"mitigation.self_pct", "%", "lower"},
	{"mitigation.due_ns", "ns", "lower"},
	{"analysis.self_pct", "%", "lower"},
	{"analysis.solve_window_ms", "ms", "lower"},
	{"attack.self_pct", "%", "lower"},
	{"attack.probe_sample_ns", "ns", "lower"},
	{"exp.self_pct", "%", "lower"},
	{"exp.sim_busy_frac", "ratio", "higher"},
	{"exp.sim_ms.p50", "ms", "lower"},
	{"exp.sim_ms.p75", "ms", "lower"},
	{"exp.sim_ms.max", "ms", "lower"},
	{"exp.runs_executed", "count", "lower"},
	{"store.self_pct", "%", "lower"},
	{"store.get_us", "us", "lower"},
	{"store.put_us", "us", "lower"},
	{"sim.encode_us", "us", "lower"},
	{"sim.decode_us", "us", "lower"},
	{"journal.self_pct", "%", "lower"},
	{"journal.append_us", "us", "lower"},
	{"journal.sync_ms", "ms", "lower"},
	{"service.self_pct", "%", "lower"},
	{"service.job_s", "s", "lower"},
	{"service.warm_job_ms.p50", "ms", "lower"},
	{"service.warm_job_ms.p98", "ms", "lower"},
	{"service.submit_ms.p50", "ms", "lower"},
	{"service.submit_requests", "count", "lower"},
	{"service.lease_ms.p50", "ms", "lower"},
	{"service.lease_requests", "count", "lower"},
	{"service.ack_ms.p50", "ms", "lower"},
	{"service.ack_requests", "count", "lower"},
	{"service.events_ms.p50", "ms", "lower"},
	{"service.events_requests", "count", "lower"},
	{"service.results_ms.p50", "ms", "lower"},
	{"service.results_requests", "count", "lower"},
	{"service.http_errors", "count", "lower"},
	{"service.queue_wait_ms", "ms", "lower"},
	{"service.execute_s", "s", "lower"},
	{"service.finalize_ms", "ms", "lower"},
	{"service.warm_key_frac", "ratio", "higher"},
	{"io.self_pct", "%", "lower"},
	{"other.self_pct", "%", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pct", "%", "lower"},
	{"runtime.malloc_pct", "%", "lower"},
	{"runtime.other_pct", "%", "lower"},
	{"trace_overhead_pct", "%", "lower"},
}
