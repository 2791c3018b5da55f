package snapshot_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"routeless/internal/metrics"
	"routeless/internal/rng"
	"routeless/internal/scenario"
	"routeless/internal/sim"
	"routeless/internal/snapshot"
	"routeless/internal/traffic"
)

// fig1Scenario mirrors the fig1_tiny golden configuration: 30 nodes on
// a 565 m square at 250 m range, 8 random flows at 2 s intervals, 5 s
// of traffic — the same shape the journal CI gate runs.
func fig1Scenario(proto string, tiles int) scenario.Scenario {
	return scenario.Scenario{
		Seed: 1, N: 30, Width: 565, Height: 565, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Tiles:    tiles,
		Protocol: proto,
		Flows: []scenario.Flow{
			{Src: 3, Dst: 17}, {Src: 21, Dst: 4}, {Src: 9, Dst: 28},
			{Src: 14, Dst: 0}, {Src: 26, Dst: 11}, {Src: 7, Dst: 19},
			{Src: 2, Dst: 23}, {Src: 29, Dst: 8},
		},
		Interval: 2, DataSize: 512, Duration: 5,
		JournalEvery: 1,
	}
}

// churnScenario mirrors the churn_tiny golden configuration: the same
// terrain under a three-spec fault plan (crash duty cycles sparing the
// traffic endpoints, periodic link degradation, a roaming jammer) with
// bidirectional flows.
func churnScenario(proto string, tiles int) scenario.Scenario {
	intensity := 0.15
	return scenario.Scenario{
		Seed: 1, N: 30, Width: 565, Height: 565, Range: 250,
		Placement: scenario.PlaceUniform, Connected: true,
		Tiles:    tiles,
		Protocol: proto,
		Flows: []scenario.Flow{
			{Src: 0, Dst: 15}, {Src: 15, Dst: 0},
			{Src: 1, Dst: 16}, {Src: 16, Dst: 1},
			{Src: 2, Dst: 17}, {Src: 17, Dst: 2},
		},
		Interval: 2, DataSize: 512, Duration: 5,
		JournalEvery: 1,
		Faults: []scenario.FaultSpec{
			{Kind: "crash", OffFraction: intensity,
				Exclude: []int{0, 1, 2, 15, 16, 17}},
			{Kind: "degrade", OffsetDB: -25, Period: 0.05 / intensity},
			{Kind: "jam", TxPowerDBm: 24.5, Period: 0.05 / intensity},
		},
	}
}

// runFull runs sc uninterrupted under a journal and returns the journal
// bytes and the final metrics snapshot JSON.
func runFull(t *testing.T, sc scenario.Scenario) (journal, snap []byte) {
	t.Helper()
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var buf bytes.Buffer
	run.SetJournal(metrics.NewJournal(&buf))
	if _, err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	return buf.Bytes(), finalSnap(t, run)
}

func finalSnap(t *testing.T, run *scenario.Run) []byte {
	t.Helper()
	b, err := json.Marshal(run.Network().Metrics.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	return b
}

// saveAt builds sc, journals it, advances to time at, and returns the
// snapshot document plus the journal prefix written so far.
func saveAt(t testing.TB, sc scenario.Scenario, at float64) (doc, prefix []byte) {
	t.Helper()
	run, err := scenario.Build(sc)
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	var jbuf bytes.Buffer
	run.SetJournal(metrics.NewJournal(&jbuf))
	if err := run.AdvanceTo(sim.Time(at)); err != nil {
		t.Fatalf("AdvanceTo: %v", err)
	}
	var sbuf bytes.Buffer
	if err := snapshot.Save(&sbuf, run); err != nil {
		t.Fatalf("Save: %v", err)
	}
	return sbuf.Bytes(), jbuf.Bytes()
}

// resume restores a snapshot document, attaches a fresh journal, and
// finishes the run, returning the suffix journal bytes and final
// metrics snapshot.
func resume(t *testing.T, doc []byte) (suffix, snap []byte) {
	t.Helper()
	run, err := snapshot.Load(bytes.NewReader(doc))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	var jbuf bytes.Buffer
	run.SetJournal(metrics.NewJournal(&jbuf))
	if _, err := run.Finish(); err != nil {
		t.Fatalf("restored Finish: %v", err)
	}
	return jbuf.Bytes(), finalSnap(t, run)
}

// TestRoundTripOracle is the bitwise checkpoint contract: for every
// golden-journal-shaped scenario, "run 2T" must equal "run T, snapshot,
// restore, run T" — journal bytes and final metric snapshot both. Each
// leg sets the document's ignored tiles field, which must survive the
// snapshot and never change a byte.
func TestRoundTripOracle(t *testing.T) {
	cases := []struct {
		name string
		sc   func(string, int) scenario.Scenario
		pros []string
	}{
		{"fig1", fig1Scenario, []string{scenario.ProtoCounter1, scenario.ProtoSSAF}},
		{"churn", churnScenario, []string{scenario.ProtoRouteless, scenario.ProtoAODV, scenario.ProtoGradient}},
	}
	for _, tc := range cases {
		for _, proto := range tc.pros {
			t.Run(tc.name+"/"+proto+"/tiles=4", func(t *testing.T) {
				t.Parallel()
				sc := tc.sc(proto, 4)
				fullJournal, fullSnap := runFull(t, sc)
				doc, prefix := saveAt(t, sc, (sc.Duration+5)/2)
				suffix, restoredSnap := resume(t, doc)

				spliced := append(append([]byte(nil), prefix...), suffix...)
				if !bytes.Equal(fullJournal, spliced) {
					t.Errorf("journal bytes diverge: full %d bytes, spliced %d bytes",
						len(fullJournal), len(spliced))
				}
				if !bytes.Equal(fullSnap, restoredSnap) {
					t.Errorf("final metrics diverge: full %d bytes, restored %d bytes",
						len(fullSnap), len(restoredSnap))
				}
			})
		}
	}
}

// TestSnapshotAtEveryEpoch snapshots a fig1-shaped run at every journal
// epoch boundary and checks the contract at each: no boundary may be
// special-cased (the traffic stop and the final drain are both inside
// the swept range).
func TestSnapshotAtEveryEpoch(t *testing.T) {
	sc := fig1Scenario(scenario.ProtoSSAF, 1)
	fullJournal, fullSnap := runFull(t, sc)
	end := sc.Duration + 5 // drain window
	for at := sc.JournalEvery; at < end; at += sc.JournalEvery {
		at := at
		t.Run(fmt.Sprintf("t=%g", at), func(t *testing.T) {
			t.Parallel()
			doc, prefix := saveAt(t, sc, at)
			suffix, restoredSnap := resume(t, doc)
			spliced := append(append([]byte(nil), prefix...), suffix...)
			if !bytes.Equal(fullJournal, spliced) {
				t.Errorf("journal bytes diverge at t=%g", at)
			}
			if !bytes.Equal(fullSnap, restoredSnap) {
				t.Errorf("final metrics diverge at t=%g", at)
			}
		})
	}
}

// goldenCell reads record idx of a committed experiment journal and
// returns the harness config and seed it was produced from plus the
// JSON of its final metric snapshot.
func goldenCell(t *testing.T, name string, idx int, cfg any) (seed int64, snap []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "experiments", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	var rec struct {
		Seed    int64           `json:"seed"`
		Config  json.RawMessage `json:"config"`
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(bytes.Split(data, []byte("\n"))[idx], &rec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(rec.Config, cfg); err != nil {
		t.Fatal(err)
	}
	return rec.Seed, rec.Metrics
}

// TestGoldenJournalLinkage ties the document path to the committed
// experiment goldens: a scenario document written from a figure cell's
// parameters — flows drawn the way the harness draws them, the churn
// plan spelled out as fault specs — must finish with a metric snapshot
// byte-identical to that cell's record in the golden journal. Harness
// cells and documents share one assembler; this is the test that
// notices if they ever stop doing so.
func TestGoldenJournalLinkage(t *testing.T) {
	var cfg struct {
		Nodes, Connections, Pairs, DataSize int
		Terrain, Range, Duration, Lambda    float64
		Interval                            float64
		Intervals, Intensities              []float64
	}
	doc := func(seed int64, proto string, interval float64, pairs int, bidir bool) scenario.Scenario {
		sc := scenario.Scenario{
			Seed: seed, N: cfg.Nodes, Width: cfg.Terrain, Height: cfg.Terrain, Range: cfg.Range,
			Placement: scenario.PlaceUniform, Connected: true,
			Protocol: proto, Lambda: cfg.Lambda,
			Interval: interval, DataSize: cfg.DataSize, Duration: cfg.Duration,
		}
		for _, p := range traffic.RandomPairs(rng.New(seed, rng.StreamTraffic), cfg.Nodes, pairs) {
			sc.Flows = append(sc.Flows, scenario.Flow{Src: int(p.Src), Dst: int(p.Dst)})
			if bidir {
				sc.Flows = append(sc.Flows, scenario.Flow{Src: int(p.Dst), Dst: int(p.Src)})
			}
		}
		return sc
	}

	// fig1_tiny record 0: counter-1 flooding at the only interval.
	seed, want := goldenCell(t, "fig1_tiny.journal.jsonl", 0, &cfg)
	sc := doc(seed, scenario.ProtoCounter1, cfg.Intervals[0], cfg.Connections, false)
	if _, got := runFull(t, sc); !bytes.Equal(got, want) {
		t.Fatalf("fig1 document diverges from the golden cell (%d vs %d bytes)", len(got), len(want))
	}

	// churn_tiny record 0: Routeless Routing under the composite plan.
	seed, want = goldenCell(t, "churn_tiny.journal.jsonl", 0, &cfg)
	sc = doc(seed, scenario.ProtoRouteless, cfg.Interval, cfg.Pairs, true)
	x := cfg.Intensities[0]
	crash := scenario.FaultSpec{Kind: "crash", OffFraction: x}
	for _, f := range sc.Flows {
		crash.Exclude = append(crash.Exclude, f.Src)
	}
	sc.Faults = []scenario.FaultSpec{
		crash,
		{Kind: "degrade", OffsetDB: -25, Period: 0.05 / x},
		{Kind: "jam", TxPowerDBm: 24.5, Period: 0.05 / x},
	}
	if _, got := runFull(t, sc); !bytes.Equal(got, want) {
		t.Fatalf("churn document diverges from the golden cell (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSaveRejectsFinishedRun: a folded run cannot be checkpointed.
func TestSaveRejectsFinishedRun(t *testing.T) {
	run, err := scenario.Build(fig1Scenario(scenario.ProtoCounter1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Finish(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, run); err == nil {
		t.Fatal("Save accepted a finished run")
	}
}

// TestTruncation cuts a valid document at every byte boundary and
// demands a typed error, never a panic and never success.
func TestTruncation(t *testing.T) {
	doc, _ := saveAt(t, fig1Scenario(scenario.ProtoCounter1, 1), 5)
	for cut := 0; cut < len(doc); cut++ {
		if _, err := snapshot.Read(bytes.NewReader(doc[:cut])); err == nil {
			t.Fatalf("cut at %d/%d bytes: Read succeeded", cut, len(doc))
		} else if !errors.Is(err, snapshot.ErrTruncated) && !errors.Is(err, snapshot.ErrCorrupt) {
			t.Fatalf("cut at %d/%d bytes: untyped error %v", cut, len(doc), err)
		}
	}
}

// TestCorruption flips one bit in each region of the document and
// demands a typed refusal: ErrCorrupt from the CRC (or framing),
// ErrVersion when the flip lands in the version word, ErrTruncated when
// it inflates the length field past the available bytes.
func TestCorruption(t *testing.T) {
	doc, _ := saveAt(t, fig1Scenario(scenario.ProtoCounter1, 1), 5)
	for _, pos := range []int{1, 9, 13, len(doc) / 2, len(doc) - 30, len(doc) - 2} {
		mut := append([]byte(nil), doc...)
		mut[pos] ^= 0x10
		if _, err := snapshot.Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("bit flip at %d: Read succeeded", pos)
		} else if !errors.Is(err, snapshot.ErrCorrupt) && !errors.Is(err, snapshot.ErrVersion) &&
			!errors.Is(err, snapshot.ErrTruncated) {
			t.Fatalf("bit flip at %d: untyped error %v", pos, err)
		}
	}
}

// TestVersionMismatch bumps the version field (fixing the CRC) and
// demands ErrVersion.
func TestVersionMismatch(t *testing.T) {
	doc, _ := saveAt(t, fig1Scenario(scenario.ProtoCounter1, 1), 5)
	mut := append([]byte(nil), doc...)
	mut[8] = 99 // version lives right after the 8-byte magic
	if _, err := snapshot.Read(bytes.NewReader(mut)); err == nil {
		t.Fatal("Read accepted a future version")
	} else if !errors.Is(err, snapshot.ErrVersion) && !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("untyped error: %v", err)
	}

	// A well-formed older file (checksum and all) must be refused as a
	// version, not replayed into a misleading state mismatch: version 1
	// predates the single generator ("rng streams"), version 2 hashed
	// tile indices into the state word ("node state"), version 3 kept
	// every signal edge in the heap ("pending events").
	for _, ver := range []uint32{1, 2, 3} {
		old := append([]byte(nil), doc[:len(doc)-4]...)
		binary.LittleEndian.PutUint32(old[8:], ver)
		old = binary.LittleEndian.AppendUint32(old, crc32.ChecksumIEEE(old))
		if _, err := snapshot.Read(bytes.NewReader(old)); !errors.Is(err, snapshot.ErrVersion) {
			t.Fatalf("version-%d document: got %v, want ErrVersion", ver, err)
		}
	}
}

// TestStateMismatch tampers with a digest word and re-fixes the CRC:
// the restore must replay cleanly and then refuse, naming the
// component.
func TestStateMismatch(t *testing.T) {
	doc, _ := saveAt(t, fig1Scenario(scenario.ProtoCounter1, 1), 5)
	d, err := snapshot.Read(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	d.Digest.State ^= 1
	if _, err := d.Restore(scenario.BuildOptions{}); err == nil {
		t.Fatal("Restore accepted a tampered state digest")
	} else if !errors.Is(err, snapshot.ErrStateMismatch) {
		t.Fatalf("untyped error: %v", err)
	}
}

// TestReadRoundTrip checks the document codec in isolation.
func TestReadRoundTrip(t *testing.T) {
	sc := churnScenario(scenario.ProtoRouteless, 4)
	doc, _ := saveAt(t, sc, 5)
	d, err := snapshot.Read(bytes.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if d.Scenario.Protocol != sc.Protocol || d.Scenario.Tiles != sc.Tiles {
		t.Fatalf("decoded scenario mismatch: %+v", d.Scenario)
	}
	if float64(d.T) != (sc.Duration+5)/2 {
		t.Fatalf("decoded pause time %v", d.T)
	}
}
