package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"routeless/internal/metrics"
)

// tinyChurn is the CI-scale churn study: one nonzero intensity, one
// seed, a field small enough to run in seconds but dense enough that
// the composite fault plan (crash + degrade + jam) actually fires.
func tinyChurn() ChurnConfig {
	return ChurnConfig{
		Nodes:       30,
		Terrain:     565,
		Duration:    5,
		Pairs:       3,
		Seeds:       []int64{1},
		Intensities: []float64{0.15},
	}
}

func runTinyChurnJournal(t *testing.T, workers int) []byte {
	t.Helper()
	var buf bytes.Buffer
	j := metrics.NewJournal(&buf)
	churnGrid(tinyChurn()).run(workers, j)
	if err := j.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

// TestChurnJournalWorkerCountInvariant extends the determinism promise
// to runs with the fault plane active: every fault stream derives from
// the run seed, so journal bytes cannot depend on sweep scheduling.
func TestChurnJournalWorkerCountInvariant(t *testing.T) {
	j1 := runTinyChurnJournal(t, 1)
	j8 := runTinyChurnJournal(t, 8)
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker count changed churn journal bytes:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
}

func TestChurnJournalMatchesGolden(t *testing.T) {
	got := runTinyChurnJournal(t, 0)
	golden := filepath.Join("testdata", "churn_tiny.journal.jsonl")
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("churn journal drifted from golden (rerun with -update-golden if intentional)")
	}
}
