package sweep

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// mapN runs fn over the indices [0, n) as one Run of n cells, so the
// index-level contracts below read without building cells by hand.
func mapN[T any](workers, n int, fn func(i int) T) []T {
	cells := Cells("map", max(n, 0), []int64{0})
	return Run(workers, cells, func(_ *Context, i int, _ Cell) T { return fn(i) })
}

func TestMapOrderPreserved(t *testing.T) {
	out := mapN(4, 100, func(i int) int { return i * i })
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

func TestMapSingleWorkerSerial(t *testing.T) {
	var order []int
	mapN(1, 10, func(i int) int {
		order = append(order, i)
		return i
	})
	for i, v := range order {
		if v != i {
			t.Fatal("single worker should run in order")
		}
	}
}

func TestMapZeroN(t *testing.T) {
	if out := mapN(4, 0, func(i int) int { return i }); out != nil {
		t.Fatal("n=0 should return nil")
	}
}

func TestMapDefaultWorkers(t *testing.T) {
	out := mapN(0, 50, func(i int) int { return i })
	if len(out) != 50 {
		t.Fatal("default worker count failed")
	}
}

func TestMapEachIndexOnce(t *testing.T) {
	var counts [200]int32
	mapN(8, 200, func(i int) struct{} {
		atomic.AddInt32(&counts[i], 1)
		return struct{}{}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestForEach(t *testing.T) {
	var sum int64
	mapN(4, 100, func(i int) struct{} {
		atomic.AddInt64(&sum, int64(i))
		return struct{}{}
	})
	if sum != 4950 {
		t.Fatalf("sum = %d", sum)
	}
}

func TestMapPanicPropagates(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("worker panic was swallowed")
		}
		if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("re-raised panic = %v, want \"boom\"", r)
		}
	}()
	mapN(4, 100, func(i int) int {
		if i == 37 {
			panic("boom")
		}
		return i
	})
	t.Fatal("Run returned normally despite a cell panic")
}

func TestMapPanicDoesNotAbandonWork(t *testing.T) {
	// The first cell panics; every other cell must still run exactly
	// once rather than deadlock or be dropped.
	var ran [64]int32
	func() {
		defer func() { _ = recover() }()
		mapN(4, 64, func(i int) int {
			if i == 0 {
				panic("first item")
			}
			atomic.AddInt32(&ran[i], 1)
			return i
		})
	}()
	for i := 1; i < 64; i++ {
		if atomic.LoadInt32(&ran[i]) != 1 {
			t.Fatalf("index %d ran %d times after a cell panic", i, ran[i])
		}
	}
}

// The clamp rule Run sizes its pool with: 0 or negative means
// GOMAXPROCS, never more than n, never below 1.
func TestWorkersClamp(t *testing.T) {
	cases := []struct {
		name        string
		workers, n  int
		want        int
		wantAtMost  int  // when >0, bound instead of exact (GOMAXPROCS cases)
		wantAtLeast int  // paired lower bound
		exact       bool // compare against want
	}{
		{name: "more workers than items", workers: 16, n: 3, want: 3, exact: true},
		{name: "equal", workers: 4, n: 4, want: 4, exact: true},
		{name: "fewer workers than items", workers: 2, n: 100, want: 2, exact: true},
		{name: "zero items still yields one worker", workers: 8, n: 0, want: 1, exact: true},
		{name: "negative items still yields one worker", workers: 8, n: -5, want: 1, exact: true},
		{name: "zero workers means GOMAXPROCS clamped to n", workers: 0, n: 2, wantAtMost: 2, wantAtLeast: 1},
		{name: "negative workers means GOMAXPROCS clamped to n", workers: -3, n: 2, wantAtMost: 2, wantAtLeast: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := workersFor(tc.workers, tc.n)
			if tc.exact {
				if got != tc.want {
					t.Fatalf("workersFor(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
				}
				return
			}
			if got < tc.wantAtLeast || got > tc.wantAtMost {
				t.Fatalf("workersFor(%d, %d) = %d, want in [%d, %d]", tc.workers, tc.n, got, tc.wantAtLeast, tc.wantAtMost)
			}
		})
	}
}

// Edge cases through Run, table-driven: empty inputs, worker counts
// past n, and panicking cells must behave the same whether the cells
// return values or nothing.
func TestEdgeCases(t *testing.T) {
	cases := []struct {
		name       string
		workers, n int
		panicAt    int // index that panics; -1 for none
	}{
		{name: "n=0", workers: 4, n: 0, panicAt: -1},
		{name: "n negative", workers: 4, n: -7, panicAt: -1},
		{name: "workers>n", workers: 32, n: 5, panicAt: -1},
		{name: "workers negative", workers: -1, n: 9, panicAt: -1},
		{name: "panicking fn", workers: 4, n: 20, panicAt: 11},
		{name: "panicking fn serial", workers: 1, n: 20, panicAt: 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, results := range []string{"int", "struct{}"} {
				var ran int32
				var recovered any
				func() {
					defer func() { recovered = recover() }()
					fn := func(i int) {
						if i == tc.panicAt {
							panic("edge boom")
						}
						atomic.AddInt32(&ran, 1)
					}
					if results == "int" {
						mapN(tc.workers, tc.n, func(i int) int { fn(i); return i })
					} else {
						mapN(tc.workers, tc.n, func(i int) struct{} { fn(i); return struct{}{} })
					}
				}()
				if tc.panicAt >= 0 {
					if recovered == nil {
						t.Fatalf("%s: panic at index %d was swallowed", results, tc.panicAt)
					}
				} else {
					if recovered != nil {
						t.Fatalf("%s: unexpected panic %v", results, recovered)
					}
					want := int32(0)
					if tc.n > 0 {
						want = int32(tc.n)
					}
					if ran != want {
						t.Fatalf("%s: ran %d of %d indices", results, ran, want)
					}
				}
			}
		})
	}
}

// Cells without results must also run to the end after a panic.
func TestForEachPanicDoesNotAbandonWork(t *testing.T) {
	var ran [64]int32
	func() {
		defer func() { _ = recover() }()
		mapN(4, 64, func(i int) struct{} {
			if i == 0 {
				panic("first item")
			}
			atomic.AddInt32(&ran[i], 1)
			return struct{}{}
		})
	}()
	for i := 1; i < 64; i++ {
		if atomic.LoadInt32(&ran[i]) != 1 {
			t.Fatalf("index %d ran %d times after a cell panic", i, ran[i])
		}
	}
}

// Property: a multi-worker result equals the serial result for any
// worker count.
func TestQuickParallelEqualsSerial(t *testing.T) {
	f := func(workers uint8, n uint8) bool {
		w := int(workers%16) + 1
		size := int(n)
		fn := func(i int) int { return i*31 + 7 }
		par := mapN(w, size, fn)
		ser := mapN(1, size, fn)
		if len(par) != len(ser) {
			return false
		}
		for i := range par {
			if par[i] != ser[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
