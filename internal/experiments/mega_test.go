package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"routeless/internal/metrics"
	"routeless/internal/scenario"
)

// tinyMega shrinks fig_mega to golden scale: same density and flow
// shape as the real study, arenas of 64 and 128 nodes.
func tinyMega() MegaConfig {
	return MegaConfig{
		Ns:       []int{64, 128},
		Flows:    2,
		Duration: 6,
		Seeds:    []int64{1},
	}
}

func runTinyMegaJournal(t *testing.T, mutate func(*MegaConfig)) []byte {
	t.Helper()
	var buf bytes.Buffer
	cfg := tinyMega()
	if mutate != nil {
		mutate(&cfg)
	}
	cfg.Journal = metrics.NewJournal(&buf)
	RunMega(cfg)
	if err := cfg.Journal.Err(); err != nil {
		t.Fatalf("journal write failed: %v", err)
	}
	return buf.Bytes()
}

func TestMegaJournalSameSeedBitwiseIdentical(t *testing.T) {
	a := runTinyMegaJournal(t, nil)
	b := runTinyMegaJournal(t, nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different journals:\nrun1: %s\nrun2: %s", a, b)
	}
}

// TestMegaJournalWorkerCountInvariant: the sweep's cross-run
// parallelism changes wall time, never bytes.
func TestMegaJournalWorkerCountInvariant(t *testing.T) {
	j1 := runTinyMegaJournal(t, func(c *MegaConfig) { c.Workers = 1 })
	j8 := runTinyMegaJournal(t, func(c *MegaConfig) { c.Workers = 8 })
	if !bytes.Equal(j1, j8) {
		t.Fatalf("worker counts changed journal bytes:\nworkers=1: %s\nworkers=8: %s", j1, j8)
	}
}

// TestMegaJournalLinkCacheCapInvariant pins the bounded link cache's
// contract end to end: eviction changes memory and rebuild counts,
// never results. Cap 1 forces a rebuild on nearly every transmission.
func TestMegaJournalLinkCacheCapInvariant(t *testing.T) {
	unbounded := runTinyMegaJournal(t, func(c *MegaConfig) { c.LinkCacheCap = -1 })
	capped := runTinyMegaJournal(t, func(c *MegaConfig) { c.LinkCacheCap = 1 })
	if !bytes.Equal(unbounded, capped) {
		t.Fatalf("link-cache cap changed journal bytes:\nunbounded: %s\ncap=1: %s", unbounded, capped)
	}
}

func TestMegaJournalMatchesGolden(t *testing.T) {
	got := runTinyMegaJournal(t, nil)
	golden := filepath.Join("testdata", "fig_mega_tiny.journal.jsonl")
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
		t.Fatalf("fig_mega journal drifted from golden (rerun with -update-golden if intentional):\ngot:  %s\nwant: %s", got, want)
	}
}

// TestMegaArenaRetainedBytesPerNode gates the memory constant of the
// mega arena (DESIGN.md §14): post-GC heap growth across Assemble of
// the 100 000-node cell's Spec — node, radio, MAC and protocol arenas,
// the app tap, the scheduled flows, no traffic yet — must stay within
// 1 KiB a node. It builds and never runs, so it takes a fraction of a
// second; the logged figure reads 900–1 000 while the gate measures
// what it claims to.
func TestMegaArenaRetainedBytesPerNode(t *testing.T) {
	const n, limit = 100_000, 1024
	heap := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := heap()
	run, err := scenario.Assemble(megaSpec(MegaConfig{}.withDefaults(), n, 1))
	if err != nil {
		t.Fatal(err)
	}
	perNode := float64(heap()-before) / n
	runtime.KeepAlive(run)
	t.Logf("retained %.1f B/node over %d nodes", perNode, n)
	if perNode > limit {
		t.Fatalf("the assembled mega arena retains %.1f B/node, limit %d", perNode, limit)
	}
}
