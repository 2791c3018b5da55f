package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"routeless/internal/metrics"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// The journal is the artifact other people diff: same config + seed
// must reproduce it byte for byte, on any machine, at any worker count.
// The committed golden pins that promise across commits — CI runs this
// test against it, so a change that shifts any counter shows up as a
// golden diff, not as silent drift.

func runTinyFig1Journal(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := metrics.NewJournal(&buf)
	fig1Grid(tinyFig1()).run(tinyWorkers, j)
	if err := j.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

func TestFig1JournalSameSeedBitwiseIdentical(t *testing.T) {
	a := runTinyFig1Journal(t)
	b := runTinyFig1Journal(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different journals:\nrun1: %s\nrun2: %s", a, b)
	}
}

// TestFig1JournalWorkerCountInvariant pins the sweep engine's core
// promise end to end: journal bytes and the rendered table are
// bitwise-identical whether the sweep ran serially or on eight workers.
func TestFig1JournalWorkerCountInvariant(t *testing.T) {
	run := func(workers int) (journal []byte, csv string) {
		var buf bytes.Buffer
		j := metrics.NewJournal(&buf)
		res := fig1Grid(tinyFig1()).study().Run(workers, j)
		if err := j.Err(); err != nil {
			t.Fatalf("journal write failed: %v", err)
		}
		return buf.Bytes(), res.Table.CSV()
	}
	j1, csv1 := run(1)
	j8, csv8 := run(8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker count changed journal bytes:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
	if csv1 != csv8 {
		t.Fatalf("worker count changed table CSV:\nworkers=1:\n%s\nworkers=8:\n%s", csv1, csv8)
	}
}

func TestFig1JournalMatchesGolden(t *testing.T) {
	got := runTinyFig1Journal(t)
	golden := filepath.Join("testdata", "fig1_tiny.journal.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotLines := bytes.Split(got, []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("journal drifted from golden at line %d:\ngot:  %s\nwant: %s\n(rerun with -update-golden if the change is intentional)", i+1, g, w)
		}
	}
	t.Fatal("journal drifted from golden (length mismatch)")
}
