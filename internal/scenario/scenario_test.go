package scenario_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

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
	want := validDoc()
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
			sc.Faults = []scenario.FaultSpec{{Kind: "crash", OffFraction: 0.1, Exclude: []int{99}}}
		}), scenario.ErrInvalid},
		{"exclude-wrong-kind", mutate(func(sc *scenario.Scenario) {
			sc.Faults = []scenario.FaultSpec{{Kind: "jam", Exclude: []int{0}}}
		}), scenario.ErrInvalid},
	}
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
