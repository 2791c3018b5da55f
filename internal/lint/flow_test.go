package lint

import (
	"strings"
	"testing"
)

// flowProg caches the flowmod fixture program: one load serves every
// flow-level test.
var flowProg *Program

// flowmodProgram loads the self-contained fixture module under
// testdata/flowmod and builds its whole-program view.
func flowmodProgram(t *testing.T) *Program {
	t.Helper()
	if flowProg != nil {
		return flowProg
	}
	l, err := NewLoader("testdata/flowmod", "")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := Walk("testdata/flowmod")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		units = append(units, us...)
	}
	if len(units) == 0 {
		t.Fatal("flowmod fixture loaded no units")
	}
	flowProg = BuildProgram(units)
	return flowProg
}

// TestCallGraphTopology pins the structural facts of the flowmod call
// graph that the flow-aware rules depend on: edges, entry points,
// reachability, sink summaries, and provenance summaries.
func TestCallGraphTopology(t *testing.T) {
	prog := flowmodProgram(t)

	for _, id := range []FuncID{
		"flowmod/internal/proto.mapKeys",
		"flowmod/internal/proto.FlushBad",
		"flowmod/internal/proto.write",
		"flowmod/internal/proto.relay",
		"flowmod/internal/proto.(Listener).OnReceive",
		"flowmod/internal/proto.(Beacon).emit",
		"flowmod/internal/metrics.(Journal).Write",
		"flowmod/internal/metrics.(Gauge).Set",
		"flowmod/internal/sim.(Kernel).Schedule",
		"flowmod/internal/clean.sortedKeys",
	} {
		if prog.Funcs[id] == nil {
			t.Errorf("call graph is missing node %s", id)
		}
	}

	// One resolved caller edge: relay → write.
	var callers []FuncID
	for _, id := range prog.IDs {
		for _, c := range prog.Funcs[id].Calls {
			if c.Callee == "flowmod/internal/proto.write" {
				callers = append(callers, id)
			}
		}
	}
	if len(callers) != 1 || callers[0] != "flowmod/internal/proto.relay" {
		t.Errorf("callers of proto.write = %v, want [flowmod/internal/proto.relay]", callers)
	}

	// Dispatch entry points: every handler-named concrete method, and
	// every Fire() method — a sim.Handler the kernel calls through the
	// interface.
	kinds := map[FuncID]string{}
	for _, ep := range prog.EntryPoints {
		kinds[ep.Fn] = ep.Kind
	}
	for _, want := range []FuncID{
		"flowmod/internal/proto.(Listener).OnReceive",
		"flowmod/internal/proto.(Meter).OnSent",
		"flowmod/internal/proto.(Beacon).OnDeliver",
		"flowmod/internal/proto.(Bid).Fire",
	} {
		if kinds[want] != "dispatch" {
			t.Errorf("entry point %s: kind = %q, want dispatch", want, kinds[want])
		}
	}
	// Scheduled closures (Arm, Beacon.OnDeliver, and ArmWrapped's and
	// ArmAfter's through sim.Func) register too.
	scheduled := 0
	for fn, kind := range kinds {
		if kind == "schedule" && strings.HasPrefix(string(fn), "closure@") {
			scheduled++
		}
	}
	if scheduled < 4 {
		t.Errorf("schedule closures registered = %d, want >= 4 (Arm, Beacon.OnDeliver, ArmWrapped, ArmAfter)", scheduled)
	}

	// Handler reachability: the gauge write and the re-armed emit are
	// inside event context; a plain flush helper is not.
	reach := prog.HandlerReachable()
	if !reach["flowmod/internal/metrics.(Gauge).Set"] {
		t.Error("(Gauge).Set should be handler-reachable via Listener.OnReceive")
	}
	if !reach["flowmod/internal/proto.(Beacon).emit"] {
		t.Error("(Beacon).emit should be handler-reachable via the rescheduled closure")
	}
	if reach["flowmod/internal/proto.FlushBad"] {
		t.Error("FlushBad is never scheduled or dispatched; it must not be handler-reachable")
	}

	// An example chain proves the reachability claim and names the entry.
	path := prog.EntryPathTo("flowmod/internal/metrics.(Gauge).Set")
	if len(path) < 2 || !strings.Contains(path[0], "OnReceive") {
		t.Errorf("EntryPathTo((Gauge).Set) = %v, want a chain starting at OnReceive", path)
	}

	// Sink summaries cross function boundaries: relay reaches the
	// journal two hops deep; sortedKeys reaches nothing.
	if r := prog.SinkReach("flowmod/internal/proto.relay"); r&sinkJournal == 0 {
		t.Errorf("SinkReach(relay) = %s, want journal", r.Describe())
	}
	if r := prog.SinkReach("flowmod/internal/clean.sortedKeys"); r != 0 {
		t.Errorf("SinkReach(sortedKeys) = %s, want none", r.Describe())
	}

	// Map-order return summaries: unsorted collector taints, sorted
	// collector does not.
	if !prog.ReturnsMapOrdered("flowmod/internal/proto.mapKeys") {
		t.Error("ReturnsMapOrdered(mapKeys) = false, want true")
	}
	if prog.ReturnsMapOrdered("flowmod/internal/clean.sortedKeys") {
		t.Error("ReturnsMapOrdered(sortedKeys) = true, want false")
	}

	// The write index sharedstate judges: OnReceive's hits++ is recorded
	// as an unguarded write.
	found := false
	for _, w := range prog.Funcs["flowmod/internal/proto.(Listener).OnReceive"].Writes {
		if w.Key == "flowmod/internal/proto.hits" && !w.Guarded {
			found = true
		}
	}
	if !found {
		t.Error("(Listener).OnReceive should record an unguarded write to proto.hits")
	}
}

// TestIDHasSuffix pins the segment-boundary matching that keeps ID
// patterns module-path agnostic.
func TestIDHasSuffix(t *testing.T) {
	cases := []struct {
		id      FuncID
		pattern string
		want    bool
	}{
		{"routeless/internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"flowmod/internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"myinternal/sim.(Kernel).At", "internal/sim.(Kernel).At", false},
		{"internal/sim.(Kernel).At", "internal/sim.(Kernel).At", true},
		{"routeless/internal/rng.New", "internal/rng.New", true},
		{"routeless/internal/rng.NewThing", "internal/rng.New", false},
	}
	for _, c := range cases {
		if got := idHasSuffix(c.id, c.pattern); got != c.want {
			t.Errorf("idHasSuffix(%q, %q) = %v, want %v", c.id, c.pattern, got, c.want)
		}
	}
	if got := shortID("flowmod/internal/proto.(Listener).OnReceive"); got != "proto.(Listener).OnReceive" {
		t.Errorf("shortID = %q", got)
	}
}

// TestFlowmodFindings runs the full rule set over the fixture module
// and pins every finding, so each clean shape stays clean and each
// violation is caught by the rule that owns it.
func TestFlowmodFindings(t *testing.T) {
	prog := flowmodProgram(t)
	res := Analyze(prog, All())

	want := []struct {
		rule string
		sub  string
	}{
		{"globalrand", "raw rand.New builds a stream outside internal/rng"},    // fault.stream's fixed-seed ctor
		{"maporder", "map-iteration order by proto.mapKeys"},                   // FlushBad's slice range
		{"maporder", "calls relay, which reaches"},                             // JournalBad, two hops to the journal
		{"globalrand", "raw rand.New builds a stream outside internal/rng"},    // mkStream, whatever its callers feed it
		{"sharedstate", "package-level var flowmod/internal/proto.hits"},       // OnReceive write
		{"sharedstate", "package-level var flowmod/internal/proto.pending"},    // scheduled-closure write
		{"sharedstate", "package-level var flowmod/internal/proto.deliveries"}, // OnSent write, not waived
		{"goroutine", "go statement"},                                          // SpawnBad, outside the exempt engines
		{"sharedstate", "package-level var flowmod/internal/proto.fired"},      // a sim.Handler's Fire
		{"sharedstate", "package-level var flowmod/internal/proto.wrapped"},    // a sim.Func-wrapped scheduled closure
		{"sharedstate", "package-level var flowmod/internal/proto.later"},      // a closure queued through After
	}

	if len(res.Diags) != len(want) {
		for _, d := range res.Diags {
			t.Logf("finding: %s", d)
		}
		t.Fatalf("findings = %d, want %d", len(res.Diags), len(want))
	}
	for i, w := range want {
		d := res.Diags[i]
		if d.Rule != w.rule || !strings.Contains(d.Message, w.sub) {
			t.Errorf("finding %d = %s: %s: %s\n  want rule %s containing %q", i, d.Pos, d.Rule, d.Message, w.rule, w.sub)
		}
	}
	if res.Suppressed != 0 {
		t.Errorf("suppressed = %d, want 0 (sharedstate cannot be waived)", res.Suppressed)
	}
	// The directive above deliveries++ cannot waive sharedstate, so it
	// silences nothing.
	if len(res.Stale) != 1 || res.Stale[0].Rule != "sharedstate" {
		t.Errorf("stale directives = %v, want the one above deliveries++", res.Stale)
	}
}

// TestModuleCorpus runs the full flow-aware rule set over the real
// module, pinning the current clean state: zero findings, zero stale
// directives, and the exact count of reasoned suppressions. A change
// that introduces a finding, orphans a directive, or adds an
// unreviewed suppression moves these numbers and fails here before CI.
func TestModuleCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module type check is slow")
	}
	l := fixtureLoader(t)
	dirs, err := Walk("../..")
	if err != nil {
		t.Fatalf("Walk: %v", err)
	}
	var units []*Unit
	for _, dir := range dirs {
		us, err := l.LoadDir(dir)
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		units = append(units, us...)
	}
	prog := BuildProgram(units)
	res := Analyze(prog, All())

	for _, d := range res.Diags {
		t.Errorf("unexpected finding: %s", d)
	}
	for _, s := range res.Stale {
		t.Errorf("stale directive: %s", s)
	}
	if res.Suppressed != 8 {
		t.Errorf("suppressed findings = %d, want 8; if a suppression was added or removed deliberately, update this pin", res.Suppressed)
	}

	// sharedstate, the shard-safety gate, is silent only if it has
	// entry points to start from.
	if len(prog.EntryPoints) == 0 {
		t.Error("no event-handler entry points; entry-point detection regressed")
	}
}
