package fault_test

import (
	"testing"

	"routeless/internal/fault"
	"routeless/internal/geo"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/rng"
	"routeless/internal/sim"
)

// Regression for a scenario-fuzzer find (simfuzz seed 78, shrunken to
// internal/fuzz/testdata/crash_double_count.json): a plan with two
// crash specs installs two duty-cycle processes per node, each
// legitimately accruing up to the elapsed sim time, but the
// fault-downtime bound multiplied by the node count — so a perfectly
// healthy two-crash run reported a conservation violation. Pre-fix this
// test failed at CheckInvariants.
func TestDowntimeBoundWithTwoCrashSpecs(t *testing.T) {
	c1 := fault.Crash(0.34)
	c1.Cycle = 1
	c2 := fault.Crash(0.35)
	c2.Cycle = 0.9
	c2.Sleep = true
	nw := scenario(t, 78, 12, func(nw *node.Network) {
		node.Must(fault.Install(nw, fault.Plan{c1, c2}))
	})
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("two-crash plan violated invariants: %v", err)
	}
}

// Regression for the companion fuzzer find (simfuzz seed 76, shrunken
// to internal/fuzz/testdata/crash_shared_state.json): a crash duty
// cycle sharing nodes with a battery drain keyed its phase machine off
// shared node.Up() state. When the drain failed a node mid-up-phase,
// the crash process's next flip saw "down", took the recovery branch,
// and accrued downtime from a downSince it never set — orders of
// magnitude over the elapsed time. Pre-fix this test failed with
// downtime far above sim time × processes.
func TestDowntimeAccrualWithDrainInterference(t *testing.T) {
	crash := fault.Crash(0.08)
	crash.Cycle = 2.3
	crash.Sleep = true
	drain := fault.Drain(0.13)
	drain.Period = sim.Time(0.26)
	nw := scenario(t, 76, 12, func(nw *node.Network) {
		node.Must(fault.Install(nw, fault.Plan{crash, drain}))
	})
	if err := nw.CheckInvariants(); err != nil {
		t.Fatalf("crash+drain plan violated invariants: %v", err)
	}
}

// The unit-level form of the shared-state bug, with the drain replaced
// by a bare saboteur ticker that keeps failing the node from outside
// the process. The process must accrue downtime only for phases it
// owns — bounded by elapsed sim time — no matter what anyone else does
// to the node. Pre-fix, every flip on the externally-failed node took
// the recovery branch with a stale downSince and DownTime() compounded
// to many times the elapsed clock.
func TestFailureProcessOwnsItsPhases(t *testing.T) {
	nw := node.Must(node.New(node.Config{
		N: 4, Rect: geo.NewRect(300, 300), Seed: 5, EnsureConnected: true,
	}))
	n := nw.Nodes[3]
	fp := node.NewFailureProcess(n, rng.ForNode(5, rng.StreamFailure, 3))
	fp.OffFraction = 0.3
	fp.Cycle = 1
	fp.Start()

	saboteur := sim.NewTicker(nw.Kernel, 0.26, func() { n.Fail() })
	saboteur.Start()
	nw.Run(30)

	elapsed := float64(nw.Kernel.Now())
	if got := fp.DownTime(); got > elapsed {
		t.Fatalf("process downtime %.3f s exceeds elapsed %.3f s — counted phases it does not own",
			got, elapsed)
	}
	if fp.Failures() == 0 {
		t.Fatal("process never entered a down phase of its own")
	}
}

// Two crash specs covering the same node are two independent duty
// cycles: each draws from its own (StreamFailure, spec index, id)
// stream. When the spec index was ignored both consumed identical
// exponential variates and flipped in lock-step, so their schedules —
// and therefore their accrued downtimes — were bit-equal.
func TestTwoCrashSpecsOnOneNodeAreIndependent(t *testing.T) {
	nw := node.Must(node.New(node.Config{
		N: 4, Rect: geo.NewRect(300, 300), Seed: 5, EnsureConnected: true,
	}))
	crash := fault.Crash(0.3)
	crash.Cycle = 1
	crash.Nodes = []packet.NodeID{2}
	inj := node.Must(fault.Install(nw, fault.Plan{crash, crash}))
	nw.Run(30)

	procs := inj.Crashes()
	if len(procs) != 2 {
		t.Fatalf("installed %d crash processes, want 2", len(procs))
	}
	a, b := procs[0], procs[1]
	if a.Failures() == 0 || b.Failures() == 0 {
		t.Fatalf("a process never cycled: %d and %d failures", a.Failures(), b.Failures())
	}
	if a.Failures() == b.Failures() && a.DownTime() == b.DownTime() {
		t.Fatalf("both specs ran the same schedule: %d failures, %.6f s down each",
			a.Failures(), a.DownTime())
	}
}
