package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"time"

	"routeless/internal/experiments"
	"routeless/internal/metrics"
	"routeless/internal/node"
	"routeless/internal/scenario"
)

// traced is the separate run that produces the per-layer metrics: the
// ladder, then a quarter of the window untraced and the rest with spans
// recorded and a CPU profile taken, so the cost of tracing is itself a
// number (trace.overhead_ratio).
func traced(w workload, seed int64, seconds float64, tr *tracer, v values, res *result) error {
	res.Problems = append(res.Problems, ladder(v)...)
	doc, err := document(w, seed, 0)
	if err != nil {
		return err
	}
	var prof bytes.Buffer

	var plainWall, tracedWall []float64
	if w.name == serveMix {
		plain, err := runServe(w, seed, seconds/4, nil)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		under, err := runServe(w, seed, 3*seconds/4, tr)
		pprof.StopCPUProfile()
		if err != nil {
			return err
		}
		res.Ops = len(plain.cycles) + plain.failed + len(under.cycles) + under.failed
		res.OpsFailed = plain.failed + under.failed
		res.Problems = append(res.Problems, append(plain.problems, under.problems...)...)
		perLayerServe(v, under)
		if s := under.sample; s != nil {
			rm, _ := s.Finish() // finished in runServe; returns the stored outcome
			counts(v, s.Network().Metrics.Snapshot(), rm, s.Network().Processed(), 0)
			doc = under.sampleDoc
		}
		plainWall = column(plain.cycles, func(c serveCycle) float64 { return c.wall })
		tracedWall = column(under.cycles, func(c serveCycle) float64 { return c.wall })
	} else {
		var ref cycle
		plain := runCycles(doc, seconds/4, nil, &ref)
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		under := runCycles(doc, 3*seconds/4, tr, &ref)
		pprof.StopCPUProfile()
		res.Ops = len(plain.cycles) + plain.failed + len(under.cycles) + under.failed
		res.OpsFailed = plain.failed + under.failed
		res.Problems = append(res.Problems, append(plain.problems, under.problems...)...)
		perLayerSim(v, tr, ref)
		plainWall = column(plain.cycles, func(c cycle) float64 { return c.wall })
		tracedWall = column(under.cycles, func(c cycle) float64 { return c.wall })
		runWall := column(plain.cycles, func(c cycle) float64 { return c.run })
		runAllocs := column(plain.cycles, func(c cycle) float64 { return c.allocs })
		if ref.final != nil {
			counts(v, ref.final, ref.rm, ref.events, median(runWall))
		}
		if w.tiles > 1 && len(runWall) > 0 {
			if err := pdesRung(v, doc, w.tiles, median(runWall), median(runAllocs)); err != nil {
				return err
			}
		}
	}
	if len(plainWall) > 0 && len(tracedWall) > 0 {
		v.set("trace.overhead_ratio", median(tracedWall)/median(plainWall))
	}
	if err := networkRungs(v, doc); err != nil {
		return err
	}

	samples, err := readProfile(prof.Bytes())
	if err != nil {
		return err
	}
	shares := cpuShares(samples, cpuLayers)
	for _, d := range cpuDecls() {
		v.set(d.name, shares[d.name[len("cpu."):]])
	}
	return nil
}

// perLayerSim folds the spans of the traced cycles and the sizes of the
// reference cycle's outputs into per-layer metrics.
func perLayerSim(v values, tr *tracer, ref cycle) {
	scaled := func(name, span string, scale float64) {
		xs := tr.seconds(span)
		for i := range xs {
			xs[i] *= scale
		}
		v.median(name, xs)
	}
	scaled("scenario.parse_us", "scenario.parse", 1e6)
	scaled("scenario.build_s", "scenario.build", 1)
	scaled("scenario.advance_s", "scenario.advance", 1)
	scaled("scenario.finish_ms", "scenario.finish", 1e3)
	scaled("snapshot.save_us", "snapshot.save", 1e6)
	scaled("snapshot.load_s", "snapshot.load", 1)
	v.set("scenario.journal_bytes", float64(ref.journalBytes))
	v.set("snapshot.bytes", float64(ref.snapBytes))
	if load, replay := tr.seconds("snapshot.load"), tr.seconds("snapshot.replay"); len(load) > 0 {
		// Load rebuilds and replays to the same T the twin just ran to.
		v.set("snapshot.replay_share", median(load)/median(replay))
	}
}

// perLayerServe folds the traced closed loop into per-layer metrics.
func perLayerServe(v values, l serveLoad) {
	v.median("serve.post_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.post * 1e3 }))
	v.median("serve.tail_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.tail * 1e3 }))
	v.tail("serve.done_ms_p90", column(l.cycles, func(c serveCycle) float64 { return c.done * 1e3 }), 0.9)
	v.tail("serve.snapshot_ms_p90", column(l.cycles, func(c serveCycle) float64 { return c.snapshot * 1e3 }), 0.9)
	v.median("serve.resume_post_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.resumePost * 1e3 }))
	v.median("serve.resume_tail_ms_p50", column(l.cycles, func(c serveCycle) float64 { return c.resTail * 1e3 }))
	v.median("serve.status_us_p50", column(l.cycles, func(c serveCycle) float64 { return c.status * 1e6 }))
	var gaps, journal []float64
	for _, c := range l.cycles {
		if c.gap > 0 { // a client's first cycle has no predecessor
			gaps = append(gaps, c.gap*1e6)
		}
		journal = append(journal, float64(c.journalBytes)/2)
	}
	v.median("serve.client_gap_us_p50", gaps)
	v.median("serve.journal_bytes_per_run", journal)
	v.set("serve.heap_growth_bytes_per_run", l.growth)
}

// counts reads the exact per-layer counts of one finished run. runWall
// is the untraced AdvanceTo+Finish time of that document in seconds, 0
// when it was not measured.
func counts(v values, final *metrics.Snapshot, rm experiments.RunMetrics, events uint64, runWall float64) {
	v.set("sim.events", float64(events))
	if runWall > 0 && events > 0 {
		v.set("sim.ns_per_event", runWall*1e9/float64(events))
	}
	for _, d := range perLayer {
		if _, ok := final.Get(d.name); ok && d.unit == "count" {
			v.set(d.name, float64(final.Count(d.name)))
		}
	}
	if tx := final.Count("chan.transmissions"); tx > 0 {
		v.set("phy.deliveries_per_tx", float64(final.Count("chan.deliveries"))/float64(tx))
	}
	if del := final.Count("chan.deliveries"); del > 0 {
		v.set("phy.decode_ratio", float64(final.Count("phy.rx_frames"))/float64(del))
	}
	v.set("app.delivery_ratio", rm.Delivery)
	v.set("app.delay_ms_mean", rm.Delay*1e3)
	v.set("app.hops_mean", rm.Hops)
}

// networkRungs times the calls whose cost depends on the workload's
// own network: a registry snapshot (one per journal epoch), and a build
// on a sweep worker's warm Runtime against a fresh one.
func networkRungs(v values, doc []byte) error {
	sc, err := scenario.Parse(doc)
	if err != nil {
		return err
	}
	build := func(opts scenario.BuildOptions) (*scenario.Run, float64, error) {
		runtime.GC()
		begin := time.Now()
		run, err := scenario.BuildWith(sc, opts)
		return run, time.Since(begin).Seconds(), err
	}
	rt := node.NewRuntime()
	warm, _, err := build(scenario.BuildOptions{Runtime: rt})
	if err != nil {
		return err
	}
	if _, err := warm.Finish(); err != nil {
		return fmt.Errorf("warming a runtime: %w", err)
	}
	var fresh, reused []float64
	var run *scenario.Run
	for i := 0; i < 3; i++ {
		var s float64
		if run, s, err = build(scenario.BuildOptions{}); err != nil {
			return err
		}
		fresh = append(fresh, s)
		if _, s, err = build(scenario.BuildOptions{Runtime: rt}); err != nil {
			return err
		}
		reused = append(reused, s)
	}
	v.set("sweep.runtime_reuse_build_ratio", median(reused)/median(fresh))

	reg := run.Network().Metrics
	v.set("metrics.series", float64(len(reg.Snapshot().Samples)))
	v.set("metrics.snapshot_us", nsPerOp(32, func(n int) {
		for i := 0; i < n; i++ {
			reg.Snapshot()
		}
	})/1e3)
	return nil
}

// pdesRung runs the document once on the tiled engine and compares it
// with the sequential cycles just measured, so the roadmap's tiling
// decision has a number from this machine.
func pdesRung(v values, doc []byte, tiles int, seqWall, seqAllocs float64) error {
	sc, err := scenario.Parse(doc)
	if err != nil {
		return err
	}
	sc.Tiles = tiles
	run, err := scenario.Build(sc)
	if err != nil {
		return err
	}
	_, m0 := heapAlloc()
	begin := time.Now()
	run.SetJournal(metrics.NewJournal(io.Discard))
	if _, err := run.Finish(); err != nil {
		return fmt.Errorf("tiled run: %w", err)
	}
	wall := time.Since(begin).Seconds()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	v.set("pdes.speedup_vs_seq", seqWall/wall)
	v.set("pdes.allocs_ratio_vs_seq", float64(m1.Mallocs-m0.Mallocs)/seqAllocs)
	return nil
}
