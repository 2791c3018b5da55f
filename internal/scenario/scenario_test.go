package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"routeless/internal/fault"
	"routeless/internal/metrics"
	"routeless/internal/scenario"
	"routeless/internal/sweep"
)

func validDoc() scenario.Scenario {
	return scenario.Scenario{
		Seed: 7, N: 12, Width: 400, Height: 300, Range: 150,
		Placement: scenario.PlaceUniform, Protocol: scenario.ProtoSSAF,
		Flows:    []scenario.Flow{{Src: 0, Dst: 11}},
		Interval: 1, DataSize: 256, Duration: 2, JournalEvery: 1,
	}
}

// TestParseRoundTrip: a marshalled valid document parses back to the
// identical value, so the JSON surface is lossless for API clients.
func TestParseRoundTrip(t *testing.T) {
	for _, want := range []scenario.Scenario{validDoc(), everyFieldDoc()} {
		data, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenario.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
		}
	}
}

// parseCase is one row of the rejection table: a document and the
// sentinel Parse must wrap (nil: the document is valid).
type parseCase struct {
	name string
	data []byte
	want error
}

// parseCases is the rejection table TestParseTypedErrors checks and
// FuzzParse starts from.
func parseCases(tb testing.TB) []parseCase {
	mutate := func(f func(*scenario.Scenario)) []byte {
		sc := validDoc()
		f(&sc)
		data, err := json.Marshal(sc)
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return []parseCase{
		{"garbage", []byte("{not json"), scenario.ErrParse},
		{"empty", []byte(""), scenario.ErrParse},
		{"unknown-field", []byte(`{"seed":1,"bogus":true}`), scenario.ErrParse},
		{"trailing-data", []byte(`{"seed":1} {"seed":2}`), scenario.ErrParse},
		{"wrong-type", []byte(`{"n":"twelve"}`), scenario.ErrParse},
		{"n-too-small", mutate(func(sc *scenario.Scenario) { sc.N = 1 }), scenario.ErrInvalid},
		{"future-version", mutate(func(sc *scenario.Scenario) { sc.Ver = 99 }), scenario.ErrInvalid},
		{"negative-journal", mutate(func(sc *scenario.Scenario) { sc.JournalEvery = -1 }), scenario.ErrInvalid},
		{"bad-protocol", mutate(func(sc *scenario.Scenario) { sc.Protocol = "ospf" }), scenario.ErrInvalid},
		{"self-loop-flow", mutate(func(sc *scenario.Scenario) { sc.Flows = []scenario.Flow{{Src: 3, Dst: 3}} }), scenario.ErrInvalid},
		{"flow-out-of-range", mutate(func(sc *scenario.Scenario) { sc.Flows = []scenario.Flow{{Src: 0, Dst: 12}} }), scenario.ErrInvalid},
		// Tiles is a compatibility field: no combination with it is invalid.
		{"tiled-fading", mutate(func(sc *scenario.Scenario) { sc.Tiles = 4; sc.Fading = true }), nil},
		{"exclude-out-of-range", mutate(func(sc *scenario.Scenario) {
			sc.Faults = []fault.Spec{{Kind: fault.KindCrash, OffFraction: 0.1, Exclude: []int{99}}}
		}), scenario.ErrInvalid},
		{"exclude-wrong-kind", mutate(func(sc *scenario.Scenario) {
			sc.Faults = []fault.Spec{{Kind: fault.KindJam, Exclude: []int{0}}}
		}), scenario.ErrInvalid},
		// Every protocol block and per-flow field; one document cannot
		// carry both blocks.
		{"flood-block-and-flow-fields", mutate(func(sc *scenario.Scenario) { *sc = everyFieldDoc() }), nil},
		{"routeless-block", mutate(func(sc *scenario.Scenario) {
			sc.Protocol, sc.Routeless = scenario.ProtoRouteless, &scenario.Routeless{PathMargin: 5, SignalTieBreak: true}
		}), nil},
		{"negative-flow-start", mutate(func(sc *scenario.Scenario) { sc.Flows[0].Start = -1 }), scenario.ErrInvalid},
		{"negative-flow-interval", mutate(func(sc *scenario.Scenario) { sc.Flows[0].Interval = -0.5 }), scenario.ErrInvalid},
		{"negative-flow-size", mutate(func(sc *scenario.Scenario) { sc.Flows[0].Size = -1 }), scenario.ErrInvalid},
		{"duplicate-flow-other-settings", mutate(func(sc *scenario.Scenario) {
			sc.Flows = []scenario.Flow{{Src: 0, Dst: 11}, {Src: 0, Dst: 11, Start: 1}}
		}), scenario.ErrInvalid},
		{"flood-block-on-routeless", mutate(func(sc *scenario.Scenario) {
			sc.Protocol, sc.Flood = scenario.ProtoRouteless, &scenario.Flood{Cancel: true}
		}), scenario.ErrInvalid},
		{"routeless-block-on-ssaf", mutate(func(sc *scenario.Scenario) {
			sc.Routeless = &scenario.Routeless{SignalTieBreak: true}
		}), scenario.ErrInvalid},
		{"negative-ttl", mutate(func(sc *scenario.Scenario) { sc.Flood = &scenario.Flood{TTL: -1} }), scenario.ErrInvalid},
		{"negative-path-margin", mutate(func(sc *scenario.Scenario) {
			sc.Protocol, sc.Routeless = scenario.ProtoRouteless, &scenario.Routeless{PathMargin: -2}
		}), scenario.ErrInvalid},
		{"path-margin-past-hop-limit", mutate(func(sc *scenario.Scenario) {
			sc.Protocol, sc.Routeless = scenario.ProtoRouteless, &scenario.Routeless{PathMargin: math.MaxInt}
		}), scenario.ErrInvalid},
	}
}

// everyFieldDoc is a valid document that sets the flood block and
// every per-flow field.
func everyFieldDoc() scenario.Scenario {
	sc := validDoc()
	sc.Protocol = scenario.ProtoCounter1
	sc.Flood = &scenario.Flood{Cancel: true, TTL: 6}
	sc.Flows = []scenario.Flow{{Src: 0, Dst: 11}, {Src: 3, Dst: 8, Start: 0.25, Interval: 0.5, Size: 64}}
	return sc
}

// TestParseTypedErrors: every malformed or invalid document fails with
// the documented sentinel before any simulator code can panic. These
// are the regression tests for the API error contract: serve and
// wmansim map ErrParse/ErrInvalid to client errors, anything else to
// server errors.
func TestParseTypedErrors(t *testing.T) {
	for _, tc := range parseCases(t) {
		_, err := scenario.Parse(tc.data)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want errors.Is(%v)", tc.name, err, tc.want)
		}
	}
	// JSON spells no non-finite number, so these reach Validate only
	// from Go callers of BuildWith.
	for name, f := range map[string]func(*scenario.Flow){
		"infinite-flow-start":    func(f *scenario.Flow) { f.Start = math.Inf(1) },
		"nan-flow-start":         func(f *scenario.Flow) { f.Start = math.NaN() },
		"infinite-flow-interval": func(f *scenario.Flow) { f.Interval = math.Inf(1) },
		"nan-flow-interval":      func(f *scenario.Flow) { f.Interval = math.NaN() },
	} {
		sc := validDoc()
		f(&sc.Flows[0])
		if err := sc.Validate(); !errors.Is(err, scenario.ErrInvalid) {
			t.Errorf("%s: got %v, want errors.Is(%v)", name, err, scenario.ErrInvalid)
		}
	}
}

// TestTilesFieldIsIgnored: a Version-1 document carrying `tiles` — here
// with fading and mobility, which the tiled engine used to reject —
// parses, builds, and runs to the same journal records and RunMetrics
// as the same document without the field. Only the start record, which
// echoes the document, may differ.
func TestTilesFieldIsIgnored(t *testing.T) {
	const doc = `{"seed":7,"n":12,"width":400,"height":300,"range":150,
		"placement":"uniform","protocol":"ssaf","fading":true%s,
		"mobility":{"movers":4,"min_speed":1,"max_speed":5},
		"flows":[{"src":0,"dst":11}],"interval":0.5,"data_size":256,
		"duration":3,"journal_every":1}`
	run := func(tiles string) ([]byte, scenario.RunMetrics) {
		sc, err := scenario.Parse([]byte(fmt.Sprintf(doc, tiles)))
		if err != nil {
			t.Fatalf("tiles=%q: %v", tiles, err)
		}
		r, err := scenario.Build(sc)
		if err != nil {
			t.Fatalf("tiles=%q: %v", tiles, err)
		}
		var buf bytes.Buffer
		r.SetJournal(metrics.NewJournal(&buf))
		rm, err := r.Finish()
		if err != nil {
			t.Fatalf("tiles=%q: %v", tiles, err)
		}
		_, records, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
		return records, rm
	}
	want, wantRM := run("")
	got, gotRM := run(`,"tiles":4`)
	if len(want) == 0 || wantRM.MACPackets == 0 {
		t.Fatal("reference run journaled nothing")
	}
	if !bytes.Equal(got, want) {
		t.Errorf("journal records differ with tiles=4:\n got %s\nwant %s", got, want)
	}
	if gotRM != wantRM {
		t.Errorf("RunMetrics differ with tiles=4: got %+v, want %+v", gotRM, wantRM)
	}
}

// TestBuildTypedError: a document that validates but cannot be built
// (here: a connectivity requirement the geometry cannot satisfy)
// surfaces as ErrBuild, never a panic.
func TestBuildTypedError(t *testing.T) {
	sc := validDoc()
	sc.N = 2
	sc.Width, sc.Height = 400, 300
	sc.Range = 1 // two nodes within 1m of each other in a 400x300 arena: no seeded draw connects
	sc.Connected = true
	sc.Flows = []scenario.Flow{{Src: 0, Dst: 1}}
	if err := sc.Validate(); err != nil {
		t.Fatalf("document should validate: %v", err)
	}
	_, err := scenario.Build(sc)
	if !errors.Is(err, scenario.ErrBuild) {
		t.Fatalf("got %v, want errors.Is(ErrBuild)", err)
	}
}

// TestPoolWorkerKeepsEventFreeList: the runtime reset has one owner, the
// assembler. Two identical documents run back to back on one pool
// worker, and the second build must find the first run's recycled
// events still on the free list — a second reset between the runs would
// read a zero watermark and drop them all.
func TestPoolWorkerKeepsEventFreeList(t *testing.T) {
	pool := sweep.NewPool(1)
	var freeAtBuild [2]int
	for i := range freeAtBuild {
		pool.Submit(func(ctx *sweep.Context) {
			run, err := scenario.BuildWith(validDoc(), scenario.BuildOptions{Runtime: ctx.Runtime()})
			if err != nil {
				t.Error(err)
				return
			}
			freeAtBuild[i] = ctx.Runtime().Events.FreeLen()
			if _, err := run.Finish(); err != nil {
				t.Error(err)
			}
		})
	}
	pool.Close()
	if freeAtBuild[0] != 0 {
		t.Fatalf("first build on a fresh worker found %d free events", freeAtBuild[0])
	}
	if freeAtBuild[1] == 0 {
		t.Fatal("second build found an empty event free list: the first run's events were dropped between runs")
	}
}

// TestBuildRetainedBytesPerNode gates what a built run holds per node:
// post-GC heap growth across Parse+Build of a 6 400-node SSAF grid
// document (the benchmark's arena_cold shape) must stay within 2 KiB a
// node. Every stream is eight bytes in the run's arena; a per-node
// kilobyte-scale object creeping back into node, mac, phy or the
// protocols shows here before it shows in a benchmark table.
func TestBuildRetainedBytesPerNode(t *testing.T) {
	const n, limit = 6400, 2048
	doc, err := json.Marshal(scenario.Scenario{
		Ver: scenario.Version, Seed: 1, N: n, Width: 8000, Height: 8000, Range: 250,
		Placement: scenario.PlaceGrid, Protocol: scenario.ProtoSSAF,
		Flows:    []scenario.Flow{{Src: 3239, Dst: 3160}},
		Interval: 1, DataSize: 512, Duration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	sc, err := scenario.Parse(doc)
	if err != nil {
		t.Fatal(err)
	}
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(heap()-before) / n
	runtime.KeepAlive(run)
	t.Logf("retained %.0f B/node over %d nodes", perNode, n)
	if perNode > limit {
		t.Fatalf("Parse+Build retains %.0f B/node, limit %d", perNode, limit)
	}
}

// TestRunMetricsMatchAppSeries pins the one delivery ledger: the
// RunMetrics Finish returns are the final journal record's app.*
// series bit for bit, and a run with no flows reports a delivery ratio
// of 0, not NaN.
func TestRunMetricsMatchAppSeries(t *testing.T) {
	sc := validDoc()
	sc.Flows = []scenario.Flow{{Src: 0, Dst: 11}, {Src: 3, Dst: 8}, {Src: 9, Dst: 2}}
	sc.Duration = 5
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	run.SetJournal(metrics.NewJournal(&buf))
	rm, err := run.Finish()
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var final metrics.Record
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatal(err)
	}
	if final.Label != "final" {
		t.Fatalf("last record %q, want final", final.Label)
	}
	snap := final.Metrics
	sent, received := snap.Count("app.sent"), snap.Count("app.received")
	if received == 0 {
		t.Fatalf("nothing delivered (%d sent): the comparison below would be vacuous", sent)
	}
	delay, _ := snap.Get("app.delay_mean_s")
	hops, _ := snap.Get("app.hops_mean")
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"Delivery", rm.Delivery, float64(received) / float64(sent)},
		{"Delay", rm.Delay, delay.Value},
		{"Hops", rm.Hops, hops.Value},
	} {
		if math.Float64bits(c.got) != math.Float64bits(c.want) {
			t.Errorf("RunMetrics.%s = %v, final app.* series give %v", c.name, c.got, c.want)
		}
	}

	idle, err := scenario.Build(scenario.Scenario{
		Seed: 1, N: 4, Width: 300, Height: 300, Range: 250,
		Placement: scenario.PlaceUniform, Protocol: scenario.ProtoSSAF,
		Interval: 1, DataSize: 256, Duration: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rm, err := idle.Finish(); err != nil || math.Float64bits(rm.Delivery) != 0 {
		t.Fatalf("no flows: Delivery = %v (err %v), want 0", rm.Delivery, err)
	}
}
