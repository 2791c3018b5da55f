package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"time"

	"routeless/internal/experiments"
	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/snapshot"
)

// snapshotShare places the checkpoint of every cycle at this share of
// the run's end time (traffic duration plus the 5 s drain).
const snapshotShare = 0.75

// journalBuf is the writer a cycle's journal goes to: it keeps the
// bytes for verification and stamps the first write.
type journalBuf struct {
	data  []byte
	first time.Time
}

func (j *journalBuf) Write(p []byte) (int, error) {
	if j.first.IsZero() {
		j.first = time.Now()
	}
	j.data = append(j.data, p...)
	return len(p), nil
}

// cycle is what one pass of a document through the public run path
// measured. Durations are seconds.
type cycle struct {
	setup, firstByte, run, snapshot float64
	wall                            float64 // the whole cycle, collections included
	allocs, allocBytes, retained    float64 // retained is bytes per node

	// Outputs every cycle of one document must reproduce exactly.
	events      uint64
	finalHash   uint64
	journalHash uint64

	final        *metrics.Snapshot
	rm           experiments.RunMetrics
	journalBytes int
	snapBytes    int
}

func hash64(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// heapAlloc returns the live heap after a full collection.
func heapAlloc() (float64, runtime.MemStats) {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc), m
}

// simCycle runs one document in process the way a user of the run
// server would over HTTP: Parse → Build → journal → AdvanceTo(End) →
// Finish, then a checkpoint of a replayed twin at snapshotShare of the
// run and a resume of that checkpoint to the end. An error
// is a failed operation; a journal splice that does not reproduce the
// uninterrupted bytes is reported through spliceOK.
func simCycle(doc []byte, rep int, tr *tracer) (c cycle, spliceOK bool, err error) {
	before, _ := heapAlloc()
	begin := time.Now()
	sc, err := scenario.Parse(doc)
	if err != nil {
		return c, false, err
	}
	parsed := time.Now()
	run, err := scenario.Build(sc)
	if err != nil {
		return c, false, err
	}
	built := time.Now()
	after, m1 := heapAlloc()
	c.setup = built.Sub(begin).Seconds()
	c.retained = (after - before) / float64(sc.N)

	var full journalBuf
	start := time.Now()
	run.SetJournal(metrics.NewJournal(&full))
	if err := run.AdvanceTo(run.End()); err != nil {
		return c, false, err
	}
	advanced := time.Now()
	c.rm, err = run.Finish()
	finished := time.Now()
	if err != nil {
		return c, false, fmt.Errorf("finish: %w", err)
	}
	var m2 runtime.MemStats
	runtime.ReadMemStats(&m2)
	c.run = finished.Sub(start).Seconds()
	c.firstByte = c.setup + full.first.Sub(start).Seconds()
	c.allocs = float64(m2.Mallocs - m1.Mallocs)
	c.allocBytes = float64(m2.TotalAlloc - m1.TotalAlloc)
	c.events = run.Network().Processed()
	c.final = run.Network().Metrics.Snapshot()
	finalJSON, err := json.Marshal(c.final)
	if err != nil {
		return c, false, err
	}
	c.finalHash = hash64(finalJSON)
	c.journalHash = hash64(full.data)
	c.journalBytes = len(full.data)

	// The checkpoint leg does what POST /snapshot?at= and POST /resume
	// do on the server: replay a twin to the pause time, save it, load
	// the document (another replay) and run the rest.
	at := sim.Time(snapshotShare) * run.End()
	snapStart := time.Now()
	twin, err := scenario.Build(sc)
	if err != nil {
		return c, false, err
	}
	if err := twin.AdvanceTo(at); err != nil {
		return c, false, err
	}
	replayed := time.Now()
	var snap bytes.Buffer
	if err := snapshot.Save(&snap, twin); err != nil {
		return c, false, err
	}
	saved := time.Now()
	c.snapshot = saved.Sub(snapStart).Seconds()
	c.snapBytes = snap.Len()
	resumed, err := snapshot.Load(bytes.NewReader(snap.Bytes()))
	if err != nil {
		return c, false, err
	}
	loaded := time.Now()
	var tail journalBuf
	resumed.SetJournal(metrics.NewJournal(&tail))
	if _, err := resumed.Finish(); err != nil {
		return c, false, fmt.Errorf("finish resumed: %w", err)
	}
	end := time.Now()
	c.wall = end.Sub(begin).Seconds()

	root := tr.add("cycle", rep, 0, begin, end)
	tr.add("scenario.parse", rep, root, begin, parsed)
	tr.add("scenario.build", rep, root, parsed, built)
	tr.add("scenario.advance", rep, root, start, advanced)
	tr.add("scenario.finish", rep, root, advanced, finished)
	tr.add("snapshot.replay", rep, root, snapStart, replayed)
	tr.add("snapshot.save", rep, root, replayed, saved)
	tr.add("snapshot.load", rep, root, saved, loaded)
	tr.add("scenario.resume", rep, root, loaded, end)
	return c, spliced(full.data, tail.data, prefixRecords(sc, float64(at))), nil
}

// prefixRecords is how many journal records of an uninterrupted run
// precede a checkpoint at time at: the start record and every epoch
// record at or before at.
func prefixRecords(sc scenario.Scenario, at float64) int {
	if sc.JournalEvery > 0 {
		return 1 + int(math.Floor(at/sc.JournalEvery))
	}
	return 1
}

// spliced reports whether the first n records of full followed by the
// resumed run's journal reproduce full byte for byte.
func spliced(full, tail []byte, n int) bool {
	off := 0
	for ; n > 0; n-- {
		i := bytes.IndexByte(full[off:], '\n')
		if i < 0 {
			return false
		}
		off += i + 1
	}
	return len(tail) > 0 && bytes.Equal(full[off:], tail)
}

// simLoad is the outcome of the timed cycles of one sim workload.
type simLoad struct {
	cycles   []cycle
	failed   int
	window   float64 // seconds the timed cycles took, collections included
	problems []string
}

// runCycles repeats simCycle on one document until the window is
// spent, three timed cycles at least. ref is the cycle every other one
// must reproduce; while it is still zero, a discarded warm-up fills it
// first (the first cycle in a fresh process runs up to 30 % slow).
func runCycles(doc []byte, seconds float64, tr *tracer, ref *cycle) simLoad {
	var l simLoad
	check := func(rep int, c cycle, ok bool) {
		if c.events != ref.events || c.finalHash != ref.finalHash || c.journalHash != ref.journalHash {
			l.problems = append(l.problems, fmt.Sprintf("rep %d: outputs differ from rep 0 (events %d vs %d)", rep, c.events, ref.events))
		}
		if !ok {
			l.problems = append(l.problems, fmt.Sprintf("rep %d: prefix + resumed journal != uninterrupted journal", rep))
		}
	}
	if ref.journalHash == 0 {
		c, ok, err := simCycle(doc, 0, nil)
		if err != nil {
			l.problems = append(l.problems, fmt.Sprintf("warm-up: %v", err))
		} else {
			*ref = c
			check(0, c, ok)
		}
	}
	begin := time.Now()
	for rep := 1; len(l.cycles)+l.failed < 3 || time.Since(begin).Seconds() < seconds; rep++ {
		c, ok, err := simCycle(doc, rep, tr)
		if err != nil {
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("rep %d: %v", rep, err))
			continue
		}
		check(rep, c, ok)
		l.cycles = append(l.cycles, c)
	}
	l.window = time.Since(begin).Seconds()
	return l
}

// endToEndSim folds timed cycles into the end-to-end metrics.
func endToEndSim(v values, l simLoad) {
	v.median("setup_s", column(l.cycles, func(c cycle) float64 { return c.setup }))
	v.median("run_wall_s", column(l.cycles, func(c cycle) float64 { return c.run }))
	v.median("run_allocs", column(l.cycles, func(c cycle) float64 { return c.allocs }))
	v.median("run_alloc_bytes", column(l.cycles, func(c cycle) float64 { return c.allocBytes }))
	v.median("retained_bytes_per_node", column(l.cycles, func(c cycle) float64 { return c.retained }))
	v.median("first_byte_ms_p50", column(l.cycles, func(c cycle) float64 { return c.firstByte * 1e3 }))
	v.median("done_ms_p50", column(l.cycles, func(c cycle) float64 { return (c.setup + c.run) * 1e3 }))
	v.median("snapshot_ms_p50", column(l.cycles, func(c cycle) float64 { return c.snapshot * 1e3 }))
	v.set("cycles_per_s", float64(len(l.cycles))/l.window)
}
