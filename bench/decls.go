package main

import (
	"fmt"
	"slices"
)

// decl declares one metric. BENCHMARK.json repeats these tables for
// the driver; decls_test.go keeps the two identical.
type decl struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
	exact  bool    // per-layer only: a function of the document alone, repeats bit for bit
}

// endToEnd is what a user of the simulator sees. Every workload reports
// every one: a cycle is "run a document, checkpoint it, resume it",
// in process for the four sim workloads and over HTTP for serve_mix.
// Timings are medians of the workload's cycles. The bounds have to hold
// across seeds and across this VM's drift: ten runs of one workload on
// ten seeds spread up to 25 % on timings while the box ran slow (the
// same seed minutes apart moves 20 %) and 3–6 % on route_unicast's
// allocation counts (Routeless Routing relays a seed-dependent number
// of copies); README.md has the table. Retained bytes spread under 1 %.
var endToEnd = []decl{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_wall_s", unit: "s", better: "lower", bound: 0.25},
	{name: "run_allocs", unit: "count", better: "lower", bound: 0.2},
	{name: "run_alloc_bytes", unit: "B", better: "lower", bound: 0.2},
	{name: "retained_bytes_per_node", unit: "B", better: "lower", bound: 0.02},
	{name: "first_byte_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "done_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "snapshot_ms_p50", unit: "ms", better: "lower", bound: 0.25},
	{name: "cycles_per_s", unit: "1/s", better: "higher", bound: 0.25},
}

// cpuLayers are the packages a CPU profile's leaf samples are bucketed
// into; anything else is cpu.other, and stacks under the collector's
// entry points are cpu.gc whatever their leaf.
var cpuLayers = []string{"sim", "geo", "propagation", "phy", "mac", "core", "flood", "routing", "metrics", "pdes"}

// perLayer is printed by the traced run. A metric that does not apply
// to a workload (rr.relays on a flood, serve.* on a sim workload) reads
// 0 there.
var perLayer = slices.Concat(
	// Ladder micro-ops: timed loops around exported calls.
	[]decl{
		{name: "sim.heap_push_pop_ns", unit: "ns", better: "lower"},
		{name: "sim.heap_push_pop_deep_ns", unit: "ns", better: "lower"},
		{name: "sim.timer_reset_ns", unit: "ns", better: "lower"},
		{name: "sim.heap_allocs_per_op", unit: "count", better: "lower"},
		{name: "geo.within_radius_ns", unit: "ns", better: "lower"},
		{name: "geo.within_radius_ids", unit: "count", better: "lower"},
		{name: "geo.move_ns", unit: "ns", better: "lower"},
		{name: "geo.build_ns_per_node", unit: "ns", better: "lower"},
		{name: "propagation.rx_power_ns", unit: "ns", better: "lower"},
		{name: "propagation.fade_ns", unit: "ns", better: "lower"},
		{name: "phy.fanout_hit_ns_per_rx", unit: "ns", better: "lower"},
		{name: "phy.fanout_miss_ns_per_rx", unit: "ns", better: "lower"},
		{name: "phy.fanout_allocs_per_tx", unit: "count", better: "lower"},
		{name: "mac.enqueue_to_sent_ns", unit: "ns", better: "lower"},
		{name: "core.election_round_ns", unit: "ns", better: "lower"},
		{name: "sweep.pool_submit_us", unit: "us", better: "lower"},
	},
	// Measured on the workload's own built network.
	[]decl{
		{name: "metrics.snapshot_us", unit: "us", better: "lower"},
		{name: "metrics.series", unit: "count", better: "lower"},
		{name: "sweep.runtime_reuse_build_ratio", unit: "ratio", better: "lower"},
	},
	// Spans around the run path.
	[]decl{
		{name: "scenario.parse_us", unit: "us", better: "lower"},
		{name: "scenario.build_s", unit: "s", better: "lower"},
		{name: "scenario.advance_s", unit: "s", better: "lower"},
		{name: "scenario.finish_ms", unit: "ms", better: "lower"},
		{name: "scenario.journal_bytes", unit: "B", better: "lower"},
		{name: "snapshot.save_us", unit: "us", better: "lower"},
		{name: "snapshot.bytes", unit: "B", better: "lower"},
		{name: "snapshot.load_s", unit: "s", better: "lower"},
		{name: "snapshot.replay_share", unit: "ratio", better: "lower"},
		{name: "serve.post_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.tail_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.done_ms_p90", unit: "ms", better: "lower"},
		{name: "serve.snapshot_ms_p90", unit: "ms", better: "lower"},
		{name: "serve.resume_post_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.resume_tail_ms_p50", unit: "ms", better: "lower"},
		{name: "serve.status_us_p50", unit: "us", better: "lower"},
		{name: "serve.journal_bytes_per_run", unit: "B", better: "lower"},
		{name: "serve.heap_growth_bytes_per_run", unit: "B", better: "lower"},
		{name: "serve.client_gap_us_p50", unit: "us", better: "lower"},
		{name: "pdes.speedup_vs_seq", unit: "ratio", better: "higher"},
		{name: "pdes.allocs_ratio_vs_seq", unit: "ratio", better: "lower"},
	},
	// Counts read from the run's registry after Finish: exact, and a
	// change that claims only speed leaves every one identical.
	[]decl{
		{name: "sim.events", unit: "count", better: "lower", exact: true},
		{name: "sim.ns_per_event", unit: "ns", better: "lower"},
		{name: "chan.transmissions", unit: "count", better: "lower", exact: true},
		{name: "chan.deliveries", unit: "count", better: "lower", exact: true},
		{name: "phy.deliveries_per_tx", unit: "ratio", better: "lower", exact: true},
		{name: "phy.rx_frames", unit: "count", better: "higher", exact: true},
		{name: "phy.decode_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "phy.collisions", unit: "count", better: "lower", exact: true},
		{name: "phy.missed_weak", unit: "count", better: "lower", exact: true},
		{name: "mac.enqueued", unit: "count", better: "lower", exact: true},
		{name: "mac.tx_frames", unit: "count", better: "lower", exact: true},
		{name: "mac.retries", unit: "count", better: "lower", exact: true},
		{name: "mac.dequeued", unit: "count", better: "higher", exact: true},
		{name: "mac.dropped_full", unit: "count", better: "lower", exact: true},
		{name: "flood.forwards", unit: "count", better: "lower", exact: true},
		{name: "flood.duplicates", unit: "count", better: "lower", exact: true},
		{name: "flood.cancelled", unit: "count", better: "higher", exact: true},
		{name: "rr.relays", unit: "count", better: "lower", exact: true},
		{name: "rr.cancelled_by_overhear", unit: "count", better: "higher", exact: true},
		{name: "rr.cancelled_by_ack", unit: "count", better: "higher", exact: true},
		{name: "rr.retransmissions", unit: "count", better: "lower", exact: true},
		{name: "fault.crashes", unit: "count", better: "lower", exact: true},
		{name: "fault.degrades", unit: "count", better: "lower", exact: true},
		{name: "app.delivery_ratio", unit: "ratio", better: "higher", exact: true},
		{name: "app.delay_ms_mean", unit: "ms", better: "lower", exact: true},
		{name: "app.hops_mean", unit: "count", better: "lower", exact: true},
	},
	cpuDecls(),
	[]decl{{name: "trace.overhead_ratio", unit: "ratio", better: "lower"}},
)

// cpuDecls declares the CPU share of each layer: self-time samples of
// a runtime/pprof profile, bucketed by the leaf function's package.
func cpuDecls() []decl {
	var out []decl
	for _, l := range append(slices.Clone(cpuLayers), "gc", "other") {
		out = append(out, decl{name: "cpu." + l, unit: "%", better: "lower"})
	}
	return out
}

// declared orders a run's values by the declared table. An undeclared
// value is an error. A missing end-to-end value is an error too; a
// missing per-layer value does not apply to the workload and reads 0.
func declared(decls []decl, v values, zeroFill bool) ([]metric, error) {
	out := make([]metric, 0, len(decls))
	for _, d := range decls {
		m, ok := v[d.name]
		if !ok {
			if !zeroFill {
				return nil, fmt.Errorf("metric %s was not measured", d.name)
			}
			m = metric{Name: d.name}
		}
		m.Unit = d.unit
		out = append(out, m)
	}
	var extra []string
	for name := range v {
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.name == name }) {
			extra = append(extra, name)
		}
	}
	if len(extra) > 0 {
		slices.Sort(extra)
		return nil, fmt.Errorf("measured but not declared: %v", extra)
	}
	return out, nil
}
