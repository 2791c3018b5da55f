package metrics

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestCounterGaugeHistogram reads one source of each kind back through
// a snapshot: an observed counter, a gauge function and a one-entity
// histogram population.
func TestCounterGaugeHistogram(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.Observe("c", &c)
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := 2.5
	r.GaugeFunc("g", func() float64 { return g })
	g--
	var h [1]Histogram
	table := &Table{Hists: []string{"h"}}
	r.Population(table, 1, func(int) Block { return Block{Table: table, Hists: h[:]} })
	for _, x := range []float64{1, 2, 3} {
		h[0].Observe(x)
	}
	s := r.Snapshot()
	if n := s.Count("c"); n != 5 {
		t.Fatalf("counter sample = %d, want 5", n)
	}
	if smp, _ := s.Get("g"); smp.Kind != "gauge" || smp.Value != 1.5 {
		t.Fatalf("gauge sample = %+v, want value 1.5", smp)
	}
	if smp, _ := s.Get("h"); smp.Kind != "histogram" || smp.Count != 3 || smp.Value != 2 || smp.Min != 1 || smp.Max != 3 {
		t.Fatalf("histogram sample = %+v", smp)
	}
}

func TestRegistrySummedRegistration(t *testing.T) {
	r := NewRegistry()
	// Two "nodes" register the same counter name; totals sum.
	var a, b Counter
	r.Observe("phy.tx", &a)
	r.Observe("phy.tx", &b)
	a.Add(3)
	b.Add(4)
	var inflight uint64 = 2
	r.Func("phy.tx", func() uint64 { return inflight })
	s := r.Snapshot()
	if got := s.Count("phy.tx"); got != 9 {
		t.Fatalf("summed counter = %d, want 9", got)
	}
	// Registration order is first-appearance order.
	r.Observe("z.second", &Counter{})
	r.Observe("a.third", &Counter{})
	s = r.Snapshot()
	want := []string{"phy.tx", "z.second", "a.third"}
	for i, n := range want {
		if s.Samples[i].Name != n {
			t.Fatalf("sample[%d] = %q, want %q", i, s.Samples[i].Name, n)
		}
	}
}

// TestPopulationMatchesPerCellRegistration pins block registration to
// the reference it replaced: the same cells registered one at a time (a
// Func per counter cell, a one-entity population per histogram cell)
// snapshot to identical bytes — summed counters, a histogram merged
// across entities in index order, a func-counter registered after the
// block, and an entity of another table skipped.
func TestPopulationMatchesPerCellRegistration(t *testing.T) {
	table := &Table{
		Counters: []string{"x.sent", "x.dropped", "x.idle"},
		Hists:    []string{"x.latency_s"},
	}
	type entity struct {
		cells [3]Counter32
		lat   [1]Histogram
	}
	ents := make([]entity, 5)
	latTable := &Table{Hists: table.Hists}
	ref := NewRegistry()
	for _, name := range table.Counters {
		ref.Func(name, func() uint64 { return 0 }) // fix the series order first
	}
	for i := range ents {
		e := &ents[i]
		e.cells[0].Add(uint32(10 * (i + 1)))
		e.cells[1].Add(uint32(i))
		ref.Population(latTable, 1, func(int) Block { return Block{Table: latTable, Hists: e.lat[:]} })
		for k := 0; k <= i; k++ { // entity 0 keeps one sample, entity 4 five
			e.lat[0].Observe(0.1*float64(i) + 0.03*float64(k))
		}
		for c, name := range table.Counters {
			cell := &e.cells[c]
			ref.Func(name, cell.Value)
		}
	}
	stranger := Block{Table: &Table{}, Counters: make([]Counter32, 3)}
	stranger.Counters[0].Add(99)

	// The population interleaves the stranger and an entity that does
	// not count; both must be skipped without disturbing the order.
	var blocks []Block
	for i := range ents {
		if i == 2 {
			blocks = append(blocks, stranger, Block{})
		}
		blocks = append(blocks, Block{Table: table, Counters: ents[i].cells[:], Hists: ents[i].lat[:]})
	}
	pop := NewRegistry()
	pop.Population(table, len(blocks), func(i int) Block { return blocks[i] })
	var backlog uint64 = 7
	for _, r := range []*Registry{ref, pop} {
		r.Func("x.backlog", func() uint64 { return backlog })
		r.Law("x-conservation", []string{"x.sent"}, []string{"x.dropped", "x.idle", "x.backlog"})
	}

	want, err := json.Marshal(ref.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(pop.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("population snapshot differs from per-cell registration:\n%s\n%s", got, want)
	}
	if n := pop.Snapshot().Count("x.sent"); n != 150 {
		t.Fatalf("x.sent = %d, want 150 (the stranger's 99 must not count)", n)
	}
	// Laws read the same refreshed sums: 150 != 10 + 0 + 7 on both.
	if g, w := fmt.Sprint(pop.Violations()), fmt.Sprint(ref.Violations()); g != w || g == "[]" {
		t.Fatalf("violations differ or are missing:\n%s\n%s", g, w)
	}
	ents[0].cells[2].Add(133)
	if vs := pop.Violations(); vs != nil {
		t.Fatalf("law should hold after the cells moved: %v", vs)
	}
}

func TestRegistryKindClashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind clash")
		}
	}()
	r := NewRegistry()
	r.Func("x", func() uint64 { return 0 })
	r.GaugeFunc("x", func() float64 { return 0 })
}

func TestConservationLaw(t *testing.T) {
	r := NewRegistry()
	var sent, delivered, dropped Counter
	r.Observe("sent", &sent)
	r.Observe("delivered", &delivered)
	r.Observe("dropped", &dropped)
	var inflight uint64
	r.Func("inflight", func() uint64 { return inflight })
	r.Law("conservation", []string{"sent"}, []string{"delivered", "dropped", "inflight"})

	sent.Add(10)
	delivered.Add(6)
	dropped.Add(3)
	inflight = 1
	if err := r.Check(); err != nil {
		t.Fatalf("law should hold: %v", err)
	}

	inflight = 0 // one packet vanishes without being accounted for
	err := r.Check()
	if err == nil {
		t.Fatal("law violation not detected")
	}
	if !strings.Contains(err.Error(), `law "conservation" violated: 10 != 9`) {
		t.Fatalf("unhelpful violation message: %v", err)
	}

	r.Law("bad", []string{"nope"}, []string{"sent"})
	inflight = 1
	if err := r.Check(); err == nil || !strings.Contains(err.Error(), `unknown metric "nope"`) {
		t.Fatalf("unknown metric not reported: %v", err)
	}
}

// buildTwin builds one of two identical registries with identical
// activity, for byte-level determinism comparison.
func buildTwin() *Registry {
	r := NewRegistry()
	for _, name := range []string{"phy.tx", "phy.rx", "mac.enqueued"} {
		c := &Counter{}
		r.Observe(name, c)
		c.Add(uint64(len(name)))
	}
	h := make([]Histogram, 1)
	table := &Table{Hists: []string{"delay"}}
	r.Population(table, 1, func(int) Block { return Block{Table: table, Hists: h} })
	for i := 0; i < 8; i++ {
		h[0].Observe(float64(i) * 0.125)
	}
	r.GaugeFunc("load", func() float64 { return 0.625 })
	return r
}

func TestSnapshotDeterministicEncoding(t *testing.T) {
	s1, s2 := buildTwin().Snapshot(), buildTwin().Snapshot()
	b1, err := json.Marshal(s1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(s2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("snapshot encodings differ:\n%s\n%s", b1, b2)
	}
}

func TestJournalWritesJSONL(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	snap := buildTwin().Snapshot()
	for i, label := range []string{"a", "b"} {
		if err := j.Write(Record{
			Experiment: "fig1", Label: label, Seed: int64(i + 1), Metrics: snap,
		}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	for _, ln := range lines {
		var rec Record
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line not valid JSON: %v\n%s", err, ln)
		}
		if rec.Experiment != "fig1" || rec.Metrics == nil {
			t.Fatalf("round-trip lost fields: %+v", rec)
		}
	}
}

func TestInvariant(t *testing.T) {
	r := NewRegistry()
	bound := errors.New("downtime exceeds sim time")
	violated := false
	r.Invariant("downtime", func() error {
		if violated {
			return bound
		}
		return nil
	})
	if err := r.Check(); err != nil {
		t.Fatalf("holding invariant reported: %v", err)
	}
	violated = true
	err := r.Check()
	if err == nil || !strings.Contains(err.Error(), `invariant "downtime" violated: downtime exceeds sim time`) {
		t.Fatalf("invariant violation not surfaced: %v", err)
	}
}

// TestViolationsStructured covers the structured oracle output the
// scenario fuzzer journals: one Violation per failed check, in
// registration order (laws before invariants), with kind telling a
// genuine imbalance apart from a law-declaration bug.
func TestViolationsStructured(t *testing.T) {
	r := NewRegistry()
	var sent, delivered Counter
	r.Observe("sent", &sent)
	r.Observe("delivered", &delivered)
	r.Law("conservation", []string{"sent"}, []string{"delivered"})
	broken := false
	r.Invariant("sanity", func() error {
		if broken {
			return fmt.Errorf("sanity lost")
		}
		return nil
	})

	sent.Add(4)
	delivered.Add(4)
	if vs := r.Violations(); vs != nil {
		t.Fatalf("clean registry reported violations: %v", vs)
	}

	sent.Inc()
	broken = true
	vs := r.Violations()
	if len(vs) != 2 {
		t.Fatalf("violations = %d, want 2: %v", len(vs), vs)
	}
	if vs[0].Name != "conservation" || vs[0].Kind != "law" {
		t.Errorf("first violation = %+v, want the law imbalance", vs[0])
	}
	if !strings.Contains(vs[0].Detail, "5 != 4") {
		t.Errorf("law detail %q lacks the imbalance", vs[0].Detail)
	}
	if vs[1].Name != "sanity" || vs[1].Kind != "invariant" {
		t.Errorf("second violation = %+v, want the invariant", vs[1])
	}

	r.Law("bad", []string{"nope"}, []string{"sent"})
	vs = r.Violations()
	var config *Violation
	for i := range vs {
		if vs[i].Kind == "config" {
			config = &vs[i]
		}
	}
	if config == nil || config.Name != "bad" {
		t.Errorf("law over an unknown metric not classified as config: %v", vs)
	}
}
