package main

import "vscc/internal/taskrt"

// metric describes one number the benchmark prints. BENCHMARK.json lists
// the same names, units and directions; bench_test.go holds the two
// lists equal.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"

	// End-to-end metrics only: bound is how far the metric may worsen
	// before -compare calls it worse — a share of the first file's median,
	// or absolute units of the metric when absolute is set. only names
	// the one workload a metric is defined on ("" = all).
	bound    float64
	absolute bool
	only     string

	// Per-layer metrics only: the repo package the number belongs to,
	// and whether a layer driver or the traced pass produces it.
	layer  string
	source string
}

// endToEnd lists the end-to-end metrics: what a user of the simulator
// sees, measured with tracing off as the median of the timed passes.
//
// The first four are BENCHMARK.json's end_to_end list. fail_ratio is
// there as the result line's attempted/failed pair, and paper_err_pct
// and engine_gap_pct sit in its per_layer list: that file wants every
// end-to-end metric on every workload and never zero, and these three
// are zero or single-workload by design. -compare bounds all seven.
func endToEnd() []metric {
	return []metric{
		{name: "wall_s", unit: "s", better: "lower", bound: 0.15},
		{name: "kevents_per_s", unit: "kev/s", better: "higher", bound: 0.15},
		{name: "alloc_mb", unit: "MB", better: "lower", bound: 0.15},
		{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
		{name: "fail_ratio", unit: "ratio", better: "lower", bound: 0, absolute: true},
		{name: "paper_err_pct", unit: "%", better: "lower", bound: 0.1, absolute: true, only: "pingpong_sweep"},
		{name: "engine_gap_pct", unit: "%", better: "lower", bound: 0.1, absolute: true, only: "bt_xdev_pdes"},
	}
}

// contractEndToEnd is how many leading entries of endToEnd every
// workload reports, which is what BENCHMARK.json's end_to_end holds.
const contractEndToEnd = 4

// perLayer lists the per-layer metrics: unit costs from the layer
// drivers, then counts, simulated occupancy, simulated results and the
// benchmark's own spans from the traced pass.
func perLayer() []metric {
	ns := func(layer, name string) metric {
		return metric{name: name, unit: "ns", better: "lower", layer: layer, source: "driver"}
	}
	count := func(layer, name string) metric {
		return metric{name: name, unit: "count", better: "lower", layer: layer, source: "traced"}
	}
	traced := func(layer, name, unit, better string) metric {
		return metric{name: name, unit: unit, better: better, layer: layer, source: "traced"}
	}
	ms := []metric{
		ns("sim", "sim.callback_ns"), ns("sim", "sim.same_cycle_ns"), ns("sim", "sim.deep_queue_ns"),
		ns("sim", "sim.proc_delay_ns"), ns("sim", "sim.cond_handoff_ns"), ns("sim", "sim.proc_switch_ns"),
		ns("sim", "sim.pdes_round_ns.w1"), ns("sim", "sim.pdes_round_ns.w2"),
		ns("mem", "mem.wcb_line_ns"),
		ns("scc", "scc.write_mpb_line_ns"), ns("scc", "scc.read_mpb_line_ns"), ns("scc", "scc.flag_wait_ns"),
		ns("noc", "noc.link_transfer_ns"), ns("noc", "noc.mesh_latency_ns"),
		ns("pcie", "pcie.post_ns"), ns("pcie", "pcie.header_codec_ns"),
		ns("host", "host.read_line_hit_ns"), ns("host", "host.read_line_miss_ns"),
		ns("host", "host.write_line_ns"), ns("host", "host.vdma_program_ns"),
		ns("rcce", "rcce.msg_ns.1k"), ns("rcce", "rcce.msg_ns.64k"), ns("ircce", "ircce.msg_ns.64k"),
	}
	for _, s := range allSchemes() {
		ms = append(ms, ns("vscc", "vscc.msg_ns."+s.Key()))
	}
	ms = append(ms,
		ns("sched", "sched.job_ns"), ns("taskrt", "taskrt.task_ns"), ns("fault", "fault.parse_spec_ns"),
		ns("trace", "trace.span_ns"), ns("trace", "trace.span_off_ns"),
		metric{name: "trace.span_off_allocs", unit: "allocs/op", better: "lower", layer: "trace", source: "driver"},

		count("sim", "sim.events"), traced("sim", "sim.cycles", "cycles", "lower"),
		count("sim", "sim.pdes_windows"), traced("sim", "sim.events_per_window", "count", "higher"),
		traced("pcie", "pcie.bytes_d2h", "B", "lower"), traced("pcie", "pcie.bytes_h2d", "B", "lower"),
		count("pcie", "pcie.sif_packets"), count("pcie", "pcie.round_trips"),
		traced("pcie", "pcie.queue_cycles_p50", "cycles", "lower"), traced("pcie", "pcie.queue_cycles_max", "cycles", "lower"),
		traced("pcie", "pcie.busy_cycles", "cycles", "lower"), traced("pcie", "pcie.waited_cycles", "cycles", "lower"),
		traced("host", "host.cache_hit", "count", "higher"), count("host", "host.cache_miss"),
		traced("host", "host.cache_hit_ratio", "ratio", "higher"),
		count("host", "host.prefetch"), count("host", "host.streamed_lines"), count("host", "host.wcb_flush"),
		traced("host", "host.wcb_flush_bytes_mean", "B", "higher"),
		count("host", "host.vdma_copy"), count("host", "host.dma_bursts"), count("host", "host.flag_fence"),
		count("rcce", "rcce.msgs"), traced("rcce", "rcce.data_bytes", "B", "lower"), count("rcce", "rcce.flag_writes"),
		count("ircce", "ircce.packets"), count("vscc", "vscc.direct_sends"), count("vscc", "vscc.engaged_sends"),
		count("sched", "sched.admitted"), count("sched", "sched.done"), count("sched", "sched.requeued"),
		count("taskrt", "taskrt.tasks"), count("taskrt", "taskrt.steals"),
		traced("taskrt", "taskrt.move_bytes", "B", "lower"), count("taskrt", "taskrt.reexec"),
		count("fault", "fault.injected"),
		count("chaos", "chaos.points"),
		traced("chaos", "chaos.target_wall_s.sched", "s", "lower"), traced("chaos", "chaos.target_wall_s.taskrt", "s", "lower"),
		traced("rcce", "rcce.sim_mbps_peak", "MB/s", "higher"), traced("ircce", "ircce.sim_mbps_peak", "MB/s", "higher"),
	)
	for _, s := range allSchemes() {
		ms = append(ms, traced("vscc", "vscc.sim_mbps_peak."+s.Key(), "MB/s", "higher"))
	}
	ms = append(ms, traced("npb", "npb.sim_gflops", "GFLOP/s", "higher"))
	for _, v := range pointVariants() {
		ms = append(ms, traced("harness", "harness.point_wall_s."+v, "s", "lower"))
	}
	return append(ms,
		count("harness", "harness.points"), traced("harness", "harness.peak_rss_mb", "MB", "lower"),
		count("trace", "trace.spans"), traced("trace", "trace.bytes", "B", "lower"),
		traced("trace", "trace.export_s", "s", "lower"), traced("trace", "trace.overhead_ratio", "ratio", "lower"),
	)
}

// pointVariants names the harness calls whose host time the traced pass
// reports one by one: the eight ping-pong curves, the three task graphs
// and the BT run.
func pointVariants() []string {
	var vs []string
	for _, v := range pingpongVariants() {
		vs = append(vs, v.name)
	}
	vs = append(vs, taskrt.Workloads()...)
	return append(vs, "bt")
}

// tracedMetrics lists what one traced run reports: the traced-pass half
// of perLayer plus the two accuracy metrics.
func tracedMetrics() []metric {
	var ms []metric
	for _, m := range perLayer() {
		if m.source == "traced" {
			ms = append(ms, m)
		}
	}
	for _, m := range endToEnd() {
		if m.only != "" {
			ms = append(ms, m)
		}
	}
	return ms
}
