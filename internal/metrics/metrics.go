// Package metrics is the simulator's unified observability layer: a
// deterministic, allocation-light registry of counters, gauge
// functions, and Welford-backed per-entity histograms, with snapshots
// and conservation-law assertions.
//
// Design constraints, in order:
//
//   - Determinism. Entries live in a slice in fixed registration order;
//     the name index map is only ever used for point lookups, never
//     iterated. Snapshots and their JSON encodings are bit-for-bit
//     identical across same-seed runs.
//   - Hot-path cost. A counter is one integer behind an Inc/Add method;
//     each per-node layer holds its counters as one fixed-size block
//     indexed by constants, so counting is a constant-index increment
//     with no map lookup, interface call, or allocation. Registration
//     happens once at network construction.
//   - One spelling. A layer names its per-node series once, in a Table;
//     Registry.Population registers every entity's Block under those
//     names as one summing source, so the registry stays O(series) at
//     any node count.
//   - Mutation discipline. Counter values are unexported; the only
//     way to change them is through the typed methods.
//
// Conservation laws make drop/abort accounting self-checking: a law
// states that the sum of one set of counter names equals the sum of
// another at any instant (in-flight populations are registered as
// func-counters so both sides are exact integers). Check evaluates every
// law and reports violations — the instrument that keeps the failure
// paths (dropped-no-route, aborted-by-off, queue overflow) honest.
package metrics

import (
	"fmt"
	"strings"

	"routeless/internal/stats"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use. The value is unexported on purpose: mutation goes
// through Inc/Add only, so every counting site is grep-able and the
// lint rule can enforce the discipline at the boundary.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Counter32 is the 4-byte cell of a per-entity Block (per-radio,
// per-MAC, per-protocol-instance), where a million instances exist and
// every cell is paid N times. Value widens to uint64, and the registry
// sums sources in uint64, so aggregate series stay exact as long as
// each individual entity's count stays below 2^32 — per-node event
// counts in any feasible run are orders of magnitude smaller. Network-
// global series should keep the 8-byte Counter.
type Counter32 struct{ v uint32 }

// Inc adds one.
func (c *Counter32) Inc() { c.v++ }

// Add adds n.
func (c *Counter32) Add(n uint32) { c.v += n }

// Value returns the current count, widened.
func (c *Counter32) Value() uint64 { return uint64(c.v) }

// Histogram accumulates a sample distribution with streaming moments
// (mean/var/min/max) via stats.Welford. The zero value is ready to use.
type Histogram struct{ w stats.Welford }

// Observe folds one sample in.
func (h *Histogram) Observe(x float64) { h.w.Add(x) }

// Kind discriminates registry entries.
type Kind uint8

// Entry kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

var kindNames = [...]string{"counter", "gauge", "histogram"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// entry is one named metric. Registering the same name again appends to
// the entry's source list: per-process counters and per-node populations
// sum into one network-wide series, which is what the experiments
// report. Registration order of the FIRST appearance fixes the entry's
// position forever.
type entry struct {
	name     string
	kind     Kind
	counters []*Counter
	cfuncs   []func() uint64
	gfuncs   []func() float64
	// popSums and popHists point at the column of each registered
	// population that carries this name; Registry.refresh fills them.
	popSums  []*uint64
	popHists []*stats.Welford
}

func (e *entry) total() uint64 {
	var t uint64
	for _, c := range e.counters {
		t += c.v
	}
	for _, p := range e.popSums {
		t += *p
	}
	for _, f := range e.cfuncs {
		t += f()
	}
	return t
}

func (e *entry) gaugeValue() float64 {
	var t float64
	for _, f := range e.gfuncs {
		t += f()
	}
	return t
}

func (e *entry) welford() stats.Welford {
	var w stats.Welford
	for _, p := range e.popHists {
		w.Merge(*p)
	}
	return w
}

// Table declares one layer's per-entity series in journal order: the
// counter names, position i naming cell i of every entity's block, then
// the histogram names. A layer declares its table once, as a package-
// level literal it never assigns; the table's address is its identity.
type Table struct {
	Counters []string
	Hists    []string
}

// Block is one entity's live cells for its layer's Table: Counters[i]
// counts Table.Counters[i] and Hists[i] samples Table.Hists[i]. The
// zero Block belongs to no table.
type Block struct {
	Table    *Table
	Counters []Counter32
	Hists    []Histogram
}

// Source is implemented by protocol layers that count; the network
// collects the blocks of the protocols it installs into one population
// per table.
type Source interface {
	MetricBlock() Block
}

// population is n entities sharing one table, summed column-wise by
// refresh into the cells the table's entries point at.
type population struct {
	table *Table
	n     int
	at    func(i int) Block
	sums  []uint64
	hists []stats.Welford
}

// law is one conservation assertion: sum(left) == sum(right), exact in
// uint64 arithmetic, at any instant.
type law struct {
	name        string
	left, right []string
}

// invariant is one named custom predicate evaluated by Check alongside
// the conservation laws — the hook for assertions that are not exact
// equalities of counter sums (e.g. the fault plane's "downtime accrued
// cannot exceed sim time × N" bound).
type invariant struct {
	name string
	fn   func() error
}

// Registry holds the metric set of one simulation. It is not safe for
// concurrent use — the simulation is single-threaded per kernel, and
// parallel experiment sweeps build one registry per network. A
// Registry captured into a sweep worker closure from the enclosing
// scope is flagged by the sharedcap lint rule: every worker would
// mutate one shared metric set concurrently.
type Registry struct {
	entries    []*entry
	index      map[string]int
	pops       []*population
	laws       []law
	invariants []invariant
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]int)}
}

// lookup finds or creates the entry for name with the given kind,
// panicking on a kind clash — registering "x" as both a counter and a
// gauge is a programming error, not a runtime condition.
func (r *Registry) lookup(name string, k Kind) *entry {
	if i, ok := r.index[name]; ok {
		e := r.entries[i]
		if e.kind != k {
			panic(fmt.Sprintf("metrics: %q registered as %v and %v", name, e.kind, k))
		}
		return e
	}
	e := &entry{name: name, kind: k}
	r.index[name] = len(r.entries)
	r.entries = append(r.entries, e)
	return e
}

// Observe registers an existing counter under name. Multiple sources
// registered under one name are summed (per-node counters roll up into
// one network series).
func (r *Registry) Observe(name string, c *Counter) {
	e := r.lookup(name, KindCounter)
	e.counters = append(e.counters, c)
}

// Population registers the blocks at(0) … at(n-1) as one summing source
// under t's names, in t's order: counters add, widened to uint64, and
// histograms Welford-merge in index order. Blocks of another table
// (including the zero Block of an entity that does not count) are
// skipped, so one at may serve every table of a mixed population. The
// registry holds one entry per series whatever n is, and a snapshot
// visits each entity once.
func (r *Registry) Population(t *Table, n int, at func(i int) Block) {
	p := &population{table: t, n: n, at: at,
		sums:  make([]uint64, len(t.Counters)),
		hists: make([]stats.Welford, len(t.Hists))}
	r.pops = append(r.pops, p)
	for i, name := range t.Counters {
		e := r.lookup(name, KindCounter)
		e.popSums = append(e.popSums, &p.sums[i])
	}
	for i, name := range t.Hists {
		e := r.lookup(name, KindHistogram)
		e.popHists = append(e.popHists, &p.hists[i])
	}
}

// refresh re-sums every population, one pass per entity; Snapshot and
// Violations call it before reading any entry.
func (r *Registry) refresh() {
	for _, p := range r.pops {
		clear(p.sums)
		clear(p.hists)
		for i := 0; i < p.n; i++ {
			b := p.at(i)
			if b.Table != p.table {
				continue
			}
			for c := range b.Counters {
				p.sums[c] += uint64(b.Counters[c].v)
			}
			for h := range b.Hists {
				p.hists[h].Merge(b.Hists[h].w)
			}
		}
	}
}

// Func registers an integer-valued function under name; it is summed
// with any counters of the same name. Func counters are how in-flight
// populations (queue depths, signals on the air) enter conservation
// laws exactly, without float arithmetic.
func (r *Registry) Func(name string, fn func() uint64) {
	e := r.lookup(name, KindCounter)
	e.cfuncs = append(e.cfuncs, fn)
}

// GaugeFunc registers a float-valued function under name (summed with
// any other function of the same name).
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	e := r.lookup(name, KindGauge)
	e.gfuncs = append(e.gfuncs, fn)
}

// Law registers the conservation assertion sum(left) == sum(right).
// Every referenced name must be (or become) a counter-kind entry;
// unknown or non-counter names are reported by Check, not here, so laws
// may be declared before late-registering layers attach their counters.
func (r *Registry) Law(name string, left, right []string) {
	r.laws = append(r.laws, law{name: name, left: left, right: right})
}

// Invariant registers a custom predicate evaluated by Check after the
// conservation laws. fn returns nil when the invariant holds and a
// descriptive error otherwise.
func (r *Registry) Invariant(name string, fn func() error) {
	r.invariants = append(r.invariants, invariant{name: name, fn: fn})
}

// sum adds up the counter totals behind names.
func (r *Registry) sum(names []string) (uint64, error) {
	var t uint64
	for _, n := range names {
		i, ok := r.index[n]
		if !ok {
			return 0, fmt.Errorf("unknown metric %q", n)
		}
		e := r.entries[i]
		if e.kind != KindCounter {
			return 0, fmt.Errorf("metric %q is a %v, not a counter", n, e.kind)
		}
		t += e.total()
	}
	return t, nil
}

// term renders one side of a law with per-name values, for violation
// messages.
func (r *Registry) term(names []string) string {
	parts := make([]string, 0, len(names))
	for _, n := range names {
		if i, ok := r.index[n]; ok && r.entries[i].kind == KindCounter {
			parts = append(parts, fmt.Sprintf("%s=%d", n, r.entries[i].total()))
		} else {
			parts = append(parts, n+"=?")
		}
	}
	return strings.Join(parts, " + ")
}

// Violation is one failed oracle check in structured form: which law
// or invariant failed and a human-readable account of the imbalance.
// The scenario fuzzer journals violations as values (its verdict
// plumbing); Check folds them into one error for the panic paths.
type Violation struct {
	// Name is the registered law or invariant name.
	Name string `json:"name"`
	// Kind is "law" for a conservation-law imbalance, "invariant" for a
	// custom predicate, or "config" when a law references an unknown or
	// non-counter metric (a registration bug, not a runtime condition).
	Kind string `json:"kind"`
	// Detail describes the violation with the per-term values.
	Detail string `json:"detail"`
}

// String renders the violation the way Check's error message does.
func (v Violation) String() string {
	return fmt.Sprintf("%s %q %s", v.Kind, v.Name, v.Detail)
}

// Violations evaluates every registered law and invariant and returns
// the failures in registration order (laws first, then invariants), or
// nil when every check holds. Both law sides are exact uint64 sums, so
// the comparison is precise at any instant.
func (r *Registry) Violations() []Violation {
	r.refresh()
	var out []Violation
	for _, l := range r.laws {
		lhs, err := r.sum(l.left)
		if err != nil {
			out = append(out, Violation{Name: l.name, Kind: "config", Detail: err.Error()})
			continue
		}
		rhs, err := r.sum(l.right)
		if err != nil {
			out = append(out, Violation{Name: l.name, Kind: "config", Detail: err.Error()})
			continue
		}
		if lhs != rhs {
			out = append(out, Violation{Name: l.name, Kind: "law",
				Detail: fmt.Sprintf("violated: %d != %d (%s | %s)",
					lhs, rhs, r.term(l.left), r.term(l.right))})
		}
	}
	for _, iv := range r.invariants {
		if err := iv.fn(); err != nil {
			out = append(out, Violation{Name: iv.name, Kind: "invariant",
				Detail: fmt.Sprintf("violated: %v", err)})
		}
	}
	return out
}

// Check evaluates every registered law and invariant and returns an
// error describing all violations (nil when every check holds).
func (r *Registry) Check() error {
	vs := r.Violations()
	if len(vs) == 0 {
		return nil
	}
	msgs := make([]string, len(vs))
	for i, v := range vs {
		msgs[i] = v.String()
	}
	return fmt.Errorf("metrics: %s", strings.Join(msgs, "; "))
}

// Sample is one metric's value in a snapshot. For counters, Count holds
// the total; for gauges, Value holds the sum; for histograms, Count is
// the sample count and Value/Std/Min/Max the merged moments.
type Sample struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Count uint64  `json:"count,omitempty"`
	Value float64 `json:"value,omitempty"`
	Std   float64 `json:"std,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// Snapshot is a point-in-time copy of every registered metric, in
// registration order. Snapshots from same-seed runs are bit-for-bit
// identical, including their JSON encoding (no maps anywhere).
type Snapshot struct {
	Samples []Sample `json:"samples"`
}

// Snapshot captures the registry's current values.
func (r *Registry) Snapshot() *Snapshot {
	r.refresh()
	s := &Snapshot{Samples: make([]Sample, 0, len(r.entries))}
	for _, e := range r.entries {
		smp := Sample{Name: e.name, Kind: e.kind.String()}
		switch e.kind {
		case KindCounter:
			smp.Count = e.total()
		case KindGauge:
			smp.Value = e.gaugeValue()
		case KindHistogram:
			w := e.welford()
			smp.Count = w.N()
			smp.Value = w.Mean()
			smp.Std = w.Std()
			smp.Min = w.Min()
			smp.Max = w.Max()
		}
		s.Samples = append(s.Samples, smp)
	}
	return s
}

// Get returns the sample for name, if present.
func (s *Snapshot) Get(name string) (Sample, bool) {
	for _, smp := range s.Samples {
		if smp.Name == name {
			return smp, true
		}
	}
	return Sample{}, false
}

// Count returns the counter total for name (0 when absent) — the
// common lookup in tests and assertions.
func (s *Snapshot) Count(name string) uint64 {
	smp, _ := s.Get(name)
	return smp.Count
}
