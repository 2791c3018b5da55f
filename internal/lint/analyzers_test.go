package lint

import (
	"go/ast"
	"go/parser"
	"strings"
	"testing"
)

// sharedLoader is built once: the source importer caches type-checked
// stdlib packages, so every fixture after the first is nearly free.
var sharedLoader *Loader

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader("../..", "")
		if err != nil {
			t.Fatalf("NewLoader: %v", err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// analyze type-checks one fixture file and runs a single analyzer over
// it. filename controls the _test.go exemptions, path the package-scope
// ones.
func analyze(t *testing.T, a *Analyzer, path, filename, src string) []Diagnostic {
	t.Helper()
	l := fixtureLoader(t)
	f, err := parser.ParseFile(l.Fset, t.Name()+"/"+filename, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse fixture: %v", err)
	}
	info := newInfo()
	pkg := l.typeCheck(path, []*ast.File{f}, info)
	u := &Unit{Fset: l.Fset, Files: []*ast.File{f}, Pkg: pkg, Info: info, Path: path}
	return Run(u, []*Analyzer{a})
}

type fixtureCase struct {
	name     string
	analyzer *Analyzer
	path     string // import path the fixture pretends to live at
	filename string
	src      string
	want     []string // one substring per expected diagnostic, in order
}

func runFixtures(t *testing.T, cases []fixtureCase) {
	t.Helper()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := analyze(t, tc.analyzer, tc.path, tc.filename, tc.src)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d diagnostics, want %d:\n%v", len(got), len(tc.want), got)
			}
			for i, w := range tc.want {
				if !strings.Contains(got[i].Message, w) {
					t.Errorf("diagnostic %d = %q, want substring %q", i, got[i].Message, w)
				}
			}
		})
	}
}

func TestGlobalRand(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches global source draws and Seed", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
func bad() float64 {
	rand.Seed(42)
	return rand.Float64()
}`,
			want: []string{"rand.Seed", "rand.Float64"},
		},
		{
			name: "catches function value references", analyzer: GlobalRand,
			path: "routeless/examples/demo", filename: "main.go",
			src: `package main
import "math/rand"
func main() { _ = rand.Int }`,
			want: []string{"rand.Int"},
		},
		{
			name: "catches draws in test files too", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix_test.go",
			src: `package fix
import "math/rand"
func helper() int { return rand.Intn(10) }`,
			want: []string{"rand.Intn"},
		},
		{
			name: "clean: seeded constructor and methods", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
func good(seed int64) float64 {
	r := rand.New(rand.NewSource(seed))
	return r.Float64()
}`,
		},
		{
			name: "flow: catches fixed seed laundered through a helper", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func bad() float64 { return mk(42).Float64() }`,
			want: []string{"supplies a fixed seed"},
		},
		{
			name: "flow: catches raw constructor over a literal seed", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
func bad() float64 { return rand.New(rand.NewSource(7)).Float64() }`,
			want: []string{"constructed from a fixed seed"},
		},
		{
			name: "flow: catches package-level stream and draws from it", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
var stream *rand.Rand
func bad() float64 { return stream.Float64() }`,
			want: []string{"process-shared stream", "draws from package-level stream"},
		},
		{
			name: "flow: clean, helper fed a derived seed", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"math/rand"
	"routeless/internal/rng"
)
func mk(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
func good(seed int64) float64 { return mk(rng.Derive(seed, "fix")).Float64() }`,
		},
		{
			name: "flow: suppressed with a reasoned directive", analyzer: GlobalRand,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "math/rand"
func bad() float64 {
	//lint:ignore globalrand fixed corpus for a statistics self-test, order-independent
	return rand.New(rand.NewSource(7)).Float64()
}`,
		},
	})
}

func TestWallClock(t *testing.T) {
	const clockSrc = `package fix
import "time"
func bad() time.Time {
	time.Sleep(time.Millisecond)
	return time.Now()
}`
	runFixtures(t, []fixtureCase{
		{
			name: "catches host clock in internal", analyzer: WallClock,
			path: "routeless/internal/fix", filename: "fix.go", src: clockSrc,
			want: []string{"time.Sleep", "time.Now"},
		},
		{
			name: "catches host clock in cmd", analyzer: WallClock,
			path: "routeless/cmd/fix", filename: "main.go", src: clockSrc,
			want: []string{"time.Sleep", "time.Now"},
		},
		{
			name: "clean: examples may touch the host clock", analyzer: WallClock,
			path: "routeless/examples/demo", filename: "main.go", src: clockSrc,
		},
		{
			name: "clean: test files are exempt", analyzer: WallClock,
			path: "routeless/internal/fix", filename: "fix_test.go", src: clockSrc,
		},
		{
			name: "clean: duration arithmetic without clock reads", analyzer: WallClock,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "time"
func good(n int) time.Duration { return time.Duration(n) * time.Second }`,
		},
	})
}

func TestMapOrder(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches channel send under map range", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func bad(m map[int]int, sink chan int) {
	for k := range m {
		sink <- k
	}
}`,
			want: []string{"sends on a channel"},
		},
		{
			name: "catches scheduling under map range", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
type kernel struct{ q chan func() }
func (k kernel) Schedule(d float64, f func()) { k.q <- f }
func bad(m map[int]func(), k kernel) {
	for _, f := range m {
		k.Schedule(0, f)
	}
}`,
			want: []string{"calls Schedule"},
		},
		{
			name: "clean: resolved callee provably reaches no sink", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
type reg struct{ n int }
func (r *reg) Schedule(d float64, f func()) { r.n++ }
func good(m map[int]func(), r *reg) {
	for _, f := range m {
		r.Schedule(0, f)
	}
}`,
		},
		{
			name: "catches unsorted result accumulation", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func bad(m map[int]int) []int {
	var out []int
	for k, v := range m {
		out = append(out, k*v)
	}
	return out
}`,
			want: []string{"appends to a slice"},
		},
		{
			name: "clean: key collection idiom", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(m map[int]int) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}`,
		},
		{
			name: "clean: filter then sort", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "sort"
func good(m map[int]int) []int {
	var out []int
	for k, v := range m {
		if v > 0 {
			out = append(out, k)
		}
	}
	sort.Ints(out)
	return out
}`,
		},
		{
			name: "clean: purely local accumulation", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(m map[int][]int) int {
	total := 0
	for _, vs := range m {
		tmp := []int{}
		tmp = append(tmp, vs...)
		total += len(tmp)
	}
	return total
}`,
		},
		{
			name: "flow: catches a sink two calls away under an innocent name", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "fmt"
func emit(s string)  { report(s) }
func report(s string) { fmt.Println(s) }
func bad(m map[string]int) {
	for k := range m {
		emit(k)
	}
}`,
			want: []string{"calls emit, which reaches process output"},
		},
		{
			name: "flow: catches ranging over a map-ordered helper result", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "fmt"
func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
func bad(m map[string]int) {
	for _, k := range keys(m) {
		fmt.Println(k)
	}
}`,
			want: []string{"built in map-iteration order by fix.keys"},
		},
		{
			name: "flow: clean, helper result assigned then sorted", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"fmt"
	"slices"
)
func keys(m map[string]int) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}
func good(m map[string]int) {
	ks := keys(m)
	slices.Sort(ks)
	for _, k := range ks {
		fmt.Println(k)
	}
}`,
		},
		{
			name: "flow: suppressed cross-function leak", analyzer: MapOrder,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "fmt"
func emit(s string) { fmt.Println(s) }
func tolerated(m map[string]int) {
	for k := range m {
		//lint:ignore maporder debug dump, order intentionally irrelevant
		emit(k)
	}
}`,
		},
	})
}

func TestGoroutine(t *testing.T) {
	const concSrc = `package fix
import "sync"
var mu sync.Mutex
func bad() {
	go func() {}()
}`
	runFixtures(t, []fixtureCase{
		{
			name: "catches sync import and go statement in internal", analyzer: Goroutine,
			path: "routeless/internal/fix", filename: "fix.go", src: concSrc,
			want: []string{`import "sync"`, "go statement"},
		},
		{
			name: "clean: internal/sweep owns concurrency", analyzer: Goroutine,
			path: "routeless/internal/sweep", filename: "pool.go", src: concSrc,
		},
		{
			name: "clean: cmd may use goroutines", analyzer: Goroutine,
			path: "routeless/cmd/fix", filename: "main.go", src: concSrc,
		},
	})
}

func TestSortPkg(t *testing.T) {
	const sortSrc = `package fix
import "sort"
func f(xs []int) { sort.Ints(xs) }`
	runFixtures(t, []fixtureCase{
		{
			name: "catches sort import in internal", analyzer: SortPkg,
			path: "routeless/internal/fix", filename: "fix.go", src: sortSrc,
			want: []string{`import "sort"`},
		},
		{
			name: "catches sort import in cmd", analyzer: SortPkg,
			path: "routeless/cmd/fix", filename: "main.go", src: sortSrc,
			want: []string{`import "sort"`},
		},
		{
			name: "clean: test files may use sort", analyzer: SortPkg,
			path: "routeless/internal/fix", filename: "fix_test.go", src: sortSrc,
		},
		{
			name: "clean: slices is the sanctioned spelling", analyzer: SortPkg,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "slices"
func f(xs []int) { slices.Sort(xs) }`,
		},
	})
}

func TestFloatEq(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches computed float equality", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func bad(a, b float64) bool { return a == b }`,
			want: []string{"=="},
		},
		{
			name: "catches defined float types", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
type seconds float64
func bad(a, b seconds) bool { return a != b }`,
			want: []string{"!="},
		},
		{
			name: "clean: constant sentinel comparison", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
const infinity = 1e300
func good(a float64) bool { return a == 0 || a != infinity }`,
		},
		{
			name: "clean: NaN self-test", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(a float64) bool { return a != a }`,
		},
		{
			name: "clean: integers compare exactly", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(a, b int) bool { return a == b }`,
		},
		{
			name: "clean: test files are exempt", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix_test.go",
			src: `package fix
func helper(a, b float64) bool { return a == b }`,
		},
	})
}

func TestIgnoreDirectives(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "directive on previous line suppresses", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(a, b float64) bool {
	//lint:ignore floateq fixture demonstrating suppression
	return a == b
}`,
		},
		{
			name: "wildcard directive suppresses any rule", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(a, b float64) bool {
	//lint:ignore * fixture demonstrating suppression
	return a == b
}`,
		},
		{
			name: "directive for another rule does not suppress", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func bad(a, b float64) bool {
	//lint:ignore wallclock wrong rule
	return a == b
}`,
			want: []string{"=="},
		},
		{
			name: "directive for a nonexistent rule is reported", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func good(a, b int) bool {
	//lint:ignore notarule stale suppression
	return a == b
}`,
			want: []string{`unknown rule "notarule"`},
		},
		{
			name: "reasonless directive is itself reported", analyzer: FloatEq,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
func bad(a, b float64) bool {
	//lint:ignore floateq
	return a == b
}`,
			want: []string{"malformed directive", "=="},
		},
	})
}

func TestSharedCap(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches package-level var in sweep.Run closure", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "routeless/internal/sweep"
var total int
func bad() {
	sweep.Run(4, sweep.Cells("f", 10, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		total += i
		return i
	})
}`,
			want: []string{"package-level var total"},
		},
		{
			name: "catches package-level var in sweep.Run, once per var", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "routeless/internal/sweep"
var hits [8]int
func bad() {
	sweep.Run(4, sweep.Cells("f", 8, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		hits[i]++
		return hits[i]
	})
}`,
			want: []string{"package-level var hits"},
		},
		{
			name: "catches captured runtime pool in sweep.Run closure", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"routeless/internal/node"
	"routeless/internal/sweep"
)
func bad() {
	shared := node.NewRuntime()
	sweep.Run(4, sweep.Cells("f", 1, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		_ = shared
		return i
	})
}`,
			want: []string{"captures *node.Runtime shared"},
		},
		{
			name: "catches captured event pool under explicit instantiation", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"routeless/internal/sim"
	"routeless/internal/sweep"
)
func bad() {
	pool := sim.NewEventPool()
	sweep.Run[int](4, sweep.Cells("f", 1, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		_ = pool
		return i
	})
}`,
			want: []string{"captures *sim.EventPool pool"},
		},
		{
			name: "catches captured journal in sweep.Run closure", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"io"
	"routeless/internal/metrics"
	"routeless/internal/sweep"
)
func bad(w io.Writer) {
	j := metrics.NewJournal(w)
	sweep.Run(4, sweep.Cells("f", 1, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		j.Write(metrics.Record{Experiment: "f"})
		return i
	})
}`,
			want: []string{"captures *metrics.Journal j"},
		},
		{
			name: "catches package-level var in a closure nested in a sweep.Run argument", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "routeless/internal/sweep"
var moved int
func each(f func(i int) int) func(*sweep.Context, int, sweep.Cell) int {
	return func(ctx *sweep.Context, i int, c sweep.Cell) int { return f(i) }
}
func bad() {
	sweep.Run(4, sweep.Cells("f", 1, []int64{1}), each(func(i int) int { moved++; return moved }))
}`,
			want: []string{"package-level var moved"},
		},
		{
			name: "clean: per-worker runtime from the context", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "routeless/internal/sweep"
func good() {
	sweep.Run(4, sweep.Cells("f", 1, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		rt := ctx.Runtime()
		_ = rt
		return i
	})
}`,
		},
		{
			name: "clean: sync and atomic values exist to be shared", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import (
	"sync/atomic"
	"routeless/internal/sweep"
)
var counter atomic.Uint64
func good() {
	sweep.Run(4, sweep.Cells("f", 10, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) uint64 {
		return counter.Add(1)
	})
}`,
		},
		{
			name: "clean: locals and parameters are worker-scoped work", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "routeless/internal/sweep"
func good(inputs []int) []int {
	return sweep.Run(4, sweep.Cells("f", len(inputs), []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		return inputs[i] * 2
	})
}`,
		},
		{
			name: "test files may capture freely", analyzer: SharedCap,
			path: "routeless/internal/fix", filename: "fix_test.go",
			src: `package fix
import "routeless/internal/sweep"
var total int
func helper() {
	sweep.Run(4, sweep.Cells("f", 10, []int64{1}), func(ctx *sweep.Context, i int, c sweep.Cell) int {
		total += i
		return i
	})
}`,
		},
	})
}

func TestFaultRand(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches raw rand parameters in the fault plane", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import "math/rand"
type spec struct{}
func (s spec) install(r *rand.Rand) { _ = r }
func helper(n int, r *rand.Rand) {}`,
			want: []string{"install takes a raw *rand.Rand", "helper takes a raw *rand.Rand"},
		},
		{
			name: "clean: returning a derived stream is the sanctioned doorway", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import "math/rand"
func stream(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`,
		},
		{
			name: "other packages may plumb generators", analyzer: FaultRand,
			path: "routeless/internal/node", filename: "fix.go",
			src: `package node
import "math/rand"
func NewFailureProcess(r *rand.Rand) { _ = r }`,
		},
		{
			name: "flow: catches a draw from a fixed-seed stream laundered through a helper", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import "math/rand"
func stream() *rand.Rand { return rand.New(rand.NewSource(7)) }
func jitter() float64 { return stream().Float64() }`,
			want: []string{"fixed-seed stream"},
		},
		{
			name: "flow: catches a draw from a package-level stream", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import "math/rand"
var shared *rand.Rand
func jitter() float64 { return shared.Float64() }`,
			want: []string{"package-level stream"},
		},
		{
			name: "flow: clean, stream derived from the network seed", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import (
	"math/rand"
	"routeless/internal/rng"
)
func stream(seed int64) *rand.Rand { return rand.New(rand.NewSource(rng.Derive(seed, "fault"))) }
func jitter(seed int64) float64 { return stream(seed).Float64() }`,
		},
		{
			name: "flow: suppressed fixed-seed draw", analyzer: FaultRand,
			path: "routeless/internal/fault", filename: "fix.go",
			src: `package fault
import "math/rand"
func stream() *rand.Rand { return rand.New(rand.NewSource(7)) }
func jitter() float64 {
	//lint:ignore faultrand self-test of the injector math, never reaches a run
	return stream().Float64()
}`,
		},
	})
}

func TestSharedState(t *testing.T) {
	runFixtures(t, []fixtureCase{
		{
			name: "catches a handler method writing package state", analyzer: SharedState,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
var hits int
type listener struct{}
func (listener) OnReceive(rssi float64) { hits++ }`,
			want: []string{"writes package-level var routeless/internal/fix.hits"},
		},
		{
			name: "catches a write reached through a helper chain", analyzer: SharedState,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
var count int
func bump() { count = count + 1 }
func note() { bump() }
type listener struct{}
func (listener) OnDeliver(v float64) { note() }`,
			want: []string{"writes package-level var routeless/internal/fix.count"},
		},
		{
			name: "clean: sync-guarded state is shard-visible but race-free", analyzer: SharedState,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
import "sync/atomic"
var hits atomic.Uint64
type listener struct{}
func (listener) OnReceive(rssi float64) { hits = hits }`,
		},
		{
			name: "clean: writes outside handler reach", analyzer: SharedState,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
var setupDone bool
func Setup() { setupDone = true }
type listener struct{}
func (listener) OnReceive(rssi float64) {}`,
		},
		{
			name: "suppressed with a reasoned directive", analyzer: SharedState,
			path: "routeless/internal/fix", filename: "fix.go",
			src: `package fix
var hits int
type listener struct{}
func (listener) OnReceive(rssi float64) {
	//lint:ignore sharedstate run-scoped counter, merged after the run
	hits++
}`,
		},
	})
}
