package main

// metricDef names one metric as BENCHMARK.json lists it. The tables
// below and BENCHMARK.json must agree; TestBenchmarkJSONMatchesTables
// holds them to it. README.md says what each metric means and which
// end-to-end metric a layer metric is expected to move.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics with a regression bound, measured with
// tracing off. fail_ratio and sim_mismatch_cells travel as the result
// line's failed/attempted and correct, since a metric there may never
// read 0; paper_err_pct exists on two workloads only, so it is printed
// beside them and kept out of this table.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sim_units_per_s", "units/host-s", "higher"},
	{"alloc_mb_per_kunit", "MB/kunit", "lower"},
	{"allocs_per_unit", "objects/unit", "lower"},
}

// perLayer are the metrics of single layers, from the traced passes, the
// program's own counters and the layer probes. A count a workload does
// not exercise reads 0 there.
var perLayer = []metricDef{
	// harness: context for reading the rest, never a target.
	{"harness.wall_s", "s", "lower"},
	{"harness.pass_ms_p50", "ms", "lower"},
	{"harness.pass_ms_hi", "ms", "lower"},
	{"harness.pass_hi_pct", "%", "higher"},
	{"harness.samples", "count", "higher"},
	{"harness.host_cores", "count", "higher"},
	{"harness.gomaxprocs", "count", "higher"},
	{"obs.trace_overhead_pct", "%", "lower"},

	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_cpu_frac", "ratio", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"runtime.peak_rss_mb", "MB", "lower"},
	{"runtime.heap_sys_mb", "MB", "lower"},

	{"kernel.new_ms", "ms", "lower"},
	{"kernel.run_slice_ms", "ms", "lower"},
	{"kernel.run_slices", "count", "lower"},
	{"kernel.run_ms", "ms", "lower"},
	{"kernel.teardown_ms", "ms", "lower"},
	{"kernel.syscalls_per_unit", "calls/unit", "lower"},
	{"kernel.dispatch.direct.calls", "count", "lower"},
	{"kernel.dispatch.sud-allow.calls", "count", "lower"},
	{"kernel.dispatch.sud-range.calls", "count", "lower"},
	{"kernel.dispatch.trampoline.calls", "count", "lower"},
	{"kernel.dispatch.seccomp.calls", "count", "lower"},
	{"kernel.dispatch.ptrace.calls", "count", "lower"},
	{"kernel.dispatch.host.calls", "count", "lower"},
	{"kernel.signals.delivered", "count", "lower"},
	{"kernel.tasks.spawned", "count", "lower"},
	{"sched.quanta", "count", "lower"},
	{"kernel.parallel_rounds", "count", "higher"},
	{"kernel.par_speedup", "ratio", "higher"},

	{"cpu.sim_cycles_per_unit", "cycles/unit", "lower"},
	{"cpu.superblock.insts", "count", "higher"},
	{"cpu.trace.insts", "count", "higher"},
	{"cpu.trace.fused_loop_iters", "count", "higher"},
	{"cpu.trace.fused_nop_insts", "count", "higher"},
	{"cpu.chain.transitions", "count", "higher"},
	{"cpu.decode_cache.hit_ratio", "ratio", "higher"},
	{"cpu.decode_cache.builds", "count", "lower"},
	{"cpu.tlb.hit_ratio", "ratio", "higher"},
	{"cpu.fetch_walks", "count", "lower"},
	{"cpu.probe.selfloop_ns_per_insn", "ns/insn", "lower"},
	{"cpu.probe.branchy_ns_per_insn", "ns/insn", "lower"},
	{"cpu.probe.step_ns_per_insn", "ns/insn", "lower"},
	{"cpu.probe.xstate_ns_per_op", "ns/op", "lower"},

	{"mem.page_faults", "count", "lower"},
	{"mem.code_mutations", "count", "lower"},
	{"mem.generation_bumps", "count", "lower"},
	{"mem.probe.access_ns_per_op", "ns/op", "lower"},
	{"mem.probe.copy_mb_per_s", "MB/s", "higher"},
	{"mem.probe.map_ns_per_page", "ns/page", "lower"},

	{"net.conns_accepted", "count", "lower"},
	{"net.recv_buf_high_water", "bytes", "lower"},
	{"net.backlog_drops", "count", "lower"},
	{"net.resets_injected", "count", "lower"},
	{"net.segs_dropped", "count", "lower"},
	{"netstack.probe.stream_mb_per_s", "MB/s", "higher"},
	{"netstack.probe.pingpong_ns_per_op", "ns/op", "lower"},
	{"fs.probe.read_mb_per_s", "MB/s", "higher"},

	{"guest.build_ms", "ms", "lower"},
	{"loader.spawn_ms", "ms", "lower"},
	{"isa.probe.decode_ns_per_insn", "ns/insn", "lower"},
	{"asm.probe.assemble_ms", "ms", "lower"},
	{"loader.probe.load_ms", "ms", "lower"},
	{"zpoline.probe.scan_mb_per_s", "MB/s", "higher"},
	{"bpf.probe.ns_per_insn", "ns/insn", "lower"},

	{"mech.attach_ms", "ms", "lower"},
	{"mech.baseline.cell_ms", "ms", "lower"},
	{"mech.zpoline.cell_ms", "ms", "lower"},
	{"mech.lazypoline-noxstate.cell_ms", "ms", "lower"},
	{"mech.lazypoline.cell_ms", "ms", "lower"},
	{"mech.SUD.cell_ms", "ms", "lower"},
	{"mech.baseline-SUD-enabled.cell_ms", "ms", "lower"},
	{"mech.seccomp-user.cell_ms", "ms", "lower"},
	{"mech.ptrace.cell_ms", "ms", "lower"},
	{"mech.lazypoline-MPK.cell_ms", "ms", "lower"},
	{"lazypoline.rewrites", "count", "lower"},
	{"lazypoline.slowpath_hits", "count", "lower"},
	{"zpoline.rewritten", "count", "lower"},
	{"zpoline.scanned_bytes", "bytes", "lower"},
	{"sud.sigsys_hits", "count", "lower"},
	{"ptracer.stops", "count", "lower"},

	{"webbench.boot_ms", "ms", "lower"},
	{"webbench.step_ms", "ms", "lower"},
	{"webbench.steps", "count", "lower"},

	{"fleet.run_ms", "ms", "lower"},
	{"fleet.retries", "count", "lower"},
	{"fleet.timeouts", "count", "lower"},
	{"fleet.ejections", "count", "lower"},
	{"fleet.probes_sent", "count", "lower"},
	{"fleet.sim_p99_cycles", "cycles", "lower"},
}
