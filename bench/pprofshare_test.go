package main

import (
	"bytes"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"
)

//go:noinline
func spin(until time.Time) (n uint64) {
	for x := uint64(1); ; n++ {
		x = x*6364136223846793005 + 1442695040888963407
		if n&0xffff == 0 && x != 0 && time.Now().After(until) {
			return n
		}
	}
}

// TestReadProfileBusyLoop: a profile of a busy loop in this package
// decodes, and its leaf samples land in this package.
func TestReadProfileBusyLoop(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(time.Now().Add(600 * time.Millisecond))
	pprof.StopCPUProfile()

	samples, err := readProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	own := funcPackage(runtime.FuncForPC(reflect.ValueOf(spin).Pointer()).Name())
	var total, mine int64
	for _, s := range samples {
		if len(s.stack) == 0 {
			t.Fatal("sample without a stack")
		}
		total += s.count
		if funcPackage(s.stack[0]) == own {
			mine += s.count
		}
	}
	if total < 20 {
		t.Skipf("only %d samples in 600 ms; the profiler is not ticking here", total)
	}
	if float64(mine) < 0.9*float64(total) {
		t.Errorf("%d of %d leaf samples in %s, want at least 90 %%", mine, total, own)
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"routeless/internal/sim.(*Kernel).Step":                                       "routeless/internal/sim",
		"routeless/internal/phy.(*Channel).transmit.func1":                            "routeless/internal/phy",
		"runtime.mallocgc":                                                            "runtime",
		"slices.SortFunc[go.shape.[]routeless/internal/geo.Point,go.shape.struct {}]": "slices",
		"main.main": "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCPUShares(t *testing.T) {
	shares := cpuShares([]cpuSample{
		{stack: []string{"routeless/internal/sim.(*Kernel).Step", "main.main"}, count: 6},
		{stack: []string{"routeless/internal/node.(*Network).Run", "main.main"}, count: 1},
		{stack: []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, count: 2},
		{stack: []string{"runtime.mallocgc", "routeless/internal/phy.(*Channel).transmit"}, count: 1},
	}, []string{"sim", "phy"})
	want := map[string]float64{"sim": 60, "gc": 20, "other": 20}
	if !reflect.DeepEqual(shares, want) {
		t.Errorf("shares = %v, want %v", shares, want)
	}
}

func TestReadProfileRejectsGarbage(t *testing.T) {
	if _, err := readProfile([]byte("not a profile")); err == nil {
		t.Error("garbage decoded")
	}
}
