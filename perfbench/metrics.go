package main

// metricDef names one reported metric. The same names, units and
// directions are declared in BENCHMARK.json at the repository root; a
// test keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the simulator sees, printed by an
// untraced run on every workload. On fig67, thrash and cluster a
// "request" is one simulated cell (one cluster run on cluster); on
// serve it is one HTTP job.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower"},                    // median host seconds of one timed iteration
	{"setup_s", "s", "lower"},                   // median host seconds of one set-up (builds, server start)
	{"sim_minstr_per_s", "Minstr/s", "higher"},  // simulated memory instructions per host second
	{"peak_rss_mb", "MB", "lower"},              // peak resident set of the process
	{"adaptive_speedup", "x", "higher"},         // geomean of Disabled/Adaptive simulated cycles (Fig. 6)
	{"adaptive_thrash_ratio", "ratio", "lower"}, // Adaptive over Disabled thrashed pages (Fig. 7)
	{"req_p50_ms", "ms", "lower"},
	{"req_p99_ms", "ms", "lower"},
	{"req_per_s", "1/s", "higher"},
}

// perLayer are the metrics of single layers, printed by a traced run on
// every workload. A metric a workload does not exercise, or cannot
// observe from outside the program, reads 0; README.md lists which.
var perLayer = []metricDef{
	{"workloads.build_s", "s", "lower"},
	{"workloads.next_ns", "ns", "lower"},
	{"workloads.next_calls", "count", "lower"},
	{"workloads.self_frac", "frac", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.events_per_mem_instr.regular", "ratio", "lower"},
	{"sim.events_per_mem_instr.irregular", "ratio", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"sim.self_frac", "frac", "lower"},
	{"gpu.mem_instr", "count", "lower"},
	{"gpu.self_frac", "frac", "lower"},
	{"uvm.near_frac", "frac", "higher"},
	{"uvm.tlb_hit_ratio", "frac", "higher"},
	{"uvm.far_faults", "count", "lower"},
	{"uvm.faults_per_batch", "ratio", "higher"},
	{"uvm.prefetch_frac", "frac", "higher"},
	{"uvm.evicted_pages", "count", "lower"},
	{"uvm.thrashed_pages", "count", "lower"},
	{"uvm.remote_accesses", "count", "lower"},
	{"uvm.pcie_mb", "MB", "lower"},
	{"uvm.host_us_per_fault_batch", "us", "lower"},
	{"uvm.self_frac", "frac", "lower"},
	{"evict.self_frac", "frac", "lower"},
	{"counters.self_frac", "frac", "lower"},
	{"policy.speedup.backprop", "x", "higher"},
	{"policy.speedup.fdtd", "x", "higher"},
	{"policy.speedup.hotspot", "x", "higher"},
	{"policy.speedup.srad", "x", "higher"},
	{"policy.speedup.bfs", "x", "higher"},
	{"policy.speedup.nw", "x", "higher"},
	{"policy.speedup.ra", "x", "higher"},
	{"policy.speedup.sssp", "x", "higher"},
	{"experiments.self_frac", "frac", "lower"},
	{"serve.cache_hit_ratio", "frac", "higher"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.hit_ms_p50", "ms", "lower"},
	{"serve.miss_ms_p50", "ms", "lower"},
	{"serve.self_frac", "frac", "lower"},
	{"multigpu.parallel_speedup", "x", "higher"},
	{"multigpu.self_frac", "frac", "lower"},
	{"runtime.alloc_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.self_frac", "frac", "lower"},
	{"stdlib.self_frac", "frac", "lower"},
	{"perfbench.self_frac", "frac", "lower"},
	{"trace.overhead_frac", "frac", "lower"},
	{"trace.bucket_coverage", "frac", "higher"},
	{"trace.profile_samples", "count", "higher"},
}
