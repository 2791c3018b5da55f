package flood

import (
	"slices"
	"testing"

	"routeless/internal/core"
	"routeless/internal/mac"
	"routeless/internal/node"
	"routeless/internal/packet"
	"routeless/internal/sim"
)

// copyOf is a flood packet from node 5 toward target, as a node hears it
// from node 0 one hop out.
func copyOf(seq uint32, target packet.NodeID) *packet.Packet {
	return &packet.Packet{
		Kind: packet.KindFlood, To: packet.Broadcast, From: 0,
		Origin: 5, Target: target, Seq: seq, HopCount: 1, TTL: 4,
		Size: packet.SizeData,
	}
}

// pendingLen counts the forwards f lists in pending.
func (f *Flooding) pendingLen() int {
	n := 0
	for pf := f.pending; pf != nil; pf = pf.next {
		n++
	}
	return n
}

// forwardView is what a forward carries besides its timer.
type forwardView struct {
	phase   core.Phase
	backoff sim.Time
	f       *Flooding
	fwd     packet.Packet
}

func viewForward(pf *pendingForward) forwardView {
	return forwardView{phase: pf.Phase, backoff: pf.Backoff, f: pf.f, fwd: pf.fwd}
}

// TestRecycledForwardStartsClean runs two identical networks of two
// nodes out of each other's range. In both, node 0 arms a forward that
// goes on the air and is released; then node 1 arms one. In network A
// node 1 takes node 0's object off the free list; in network B the
// list is emptied first, so node 1's object is fresh. The pool draws no
// randomness, so the two must agree field for field, when armed and
// after transmitting.
func TestRecycledForwardStartsClean(t *testing.T) {
	var armed, sent [2]forwardView
	for i := range armed {
		nw := node.Must(node.New(node.Config{Positions: chain(2, 1000), Seed: 13}))
		floods := install(nw, SSAFConfig(10e-3, -55.1, -33.2))
		floods[0].OnDeliver(copyOf(1, packet.None), -40)
		first := floods[0].find(copyOf(1, packet.None).Key())
		nw.Run(1)
		if floods[0].pendingLen() != 0 || first.Phase != core.Queued || first.fwd.UID == 0 {
			t.Fatalf("run %d: the first forward was not sent and released: %+v", i, viewForward(first))
		}
		if i == 1 {
			floods[0].cfg.free = nil
		}
		floods[1].OnDeliver(copyOf(2, packet.None), -50)
		next := floods[1].find(copyOf(2, packet.None).Key())
		if (next == first) != (i == 0) {
			t.Fatalf("run %d: second forward reused the first: %v", i, next == first)
		}
		armed[i] = viewForward(next)
		nw.Run(2)
		sent[i] = viewForward(next)
		// Node identity, not the pointer, is what the networks share.
		if armed[i].f != floods[1] || sent[i].f != floods[1] {
			t.Fatalf("run %d: the forward belongs to another node", i)
		}
		armed[i].f, sent[i].f = nil, nil
	}
	if armed[0] != armed[1] {
		t.Fatalf("recycled forward differs from a fresh one when armed:\n got  %+v\n want %+v", armed[0], armed[1])
	}
	if sent[0] != sent[1] || sent[0].phase != core.Queued || sent[0].fwd.UID == 0 {
		t.Fatalf("after transmitting, recycled forward differs from a fresh one:\n got  %+v\n want %+v", sent[0], sent[1])
	}
}

// TestPausedMACForwardNotRecycled queues a forward at a failed node: its
// paused MAC keeps &pf.fwd while node 0 arms, sends and releases other
// forwards through the same pool. None of them may reuse that memory,
// or the frame node 1 sends on recovery is theirs; node 0 must hear
// node 1's forward with its original fields.
func TestPausedMACForwardNotRecycled(t *testing.T) {
	nw, floods := build(t, Counter1Config(5e-3), 14, chain(2, 200)...)
	var heard []packet.Packet
	nw.Nodes[0].OnAppReceive = func(p *packet.Packet) { heard = append(heard, *p) }
	nw.Nodes[1].Fail()
	floods[1].OnDeliver(copyOf(1, 0), -50)
	held := floods[1].find(copyOf(1, 0).Key())
	nw.Run(1)
	if held.Phase != core.Queued || !nw.Nodes[1].MAC.Holds(&held.fwd) {
		t.Fatal("the forward is not queued at the failed node")
	}
	for seq := uint32(2); seq < 6; seq++ {
		floods[0].OnDeliver(copyOf(seq, 9), -50)
		nw.Run(nw.Kernel.Now() + 1)
	}
	if floods[0].Count(Forwards) != 4 || len(floods[0].cfg.free) == 0 {
		t.Fatalf("node 0 made %d forwards and left %d free; want 4 through the pool",
			floods[0].Count(Forwards), len(floods[0].cfg.free))
	}
	if slices.Contains(floods[0].cfg.free, held) {
		t.Fatal("a forward the paused MAC holds is on the free list")
	}
	nw.Nodes[1].Recover()
	nw.Run(nw.Kernel.Now() + 1)

	want := forwardOf(copyOf(1, 0))
	want.From = 1
	if len(heard) != 1 {
		t.Fatalf("node 0 delivered %d packets, want node 1's one forward: %+v", len(heard), heard)
	}
	got := heard[0]
	got.UID = 0
	if got != want {
		t.Fatalf("node 1's queued forward was rewritten:\n got  %+v\n want %+v", got, want)
	}
}

// TestPausedMACForwardReleased fails node 1 while its forward is the
// MAC's frame under contention and 64 fillers fill the queue behind it.
// The paused MAC keeps the forward past QueueCap, so it airs after
// Recover and is released at OnSent: nothing is left in pending, the
// object is back on the free list, and no frame was dropped.
func TestPausedMACForwardReleased(t *testing.T) {
	nw, floods := build(t, Counter1Config(5e-3), 16, chain(2, 200)...)
	f, m := floods[1], nw.Nodes[1].MAC
	f.OnDeliver(copyOf(1, 0), -50)
	held := f.find(copyOf(1, 0).Key())
	nw.Kernel.SetHorizon(1)
	for held.Phase != core.Queued && nw.Kernel.Step() {
	}
	if !m.Holds(&held.fwd) {
		t.Fatal("the forward is not the MAC's frame")
	}
	filler := &packet.Packet{Kind: packet.KindData, To: packet.Broadcast, Size: packet.SizeData}
	for range mac.DefaultConfig().QueueCap {
		if !m.Enqueue(filler.Clone(), 0) {
			t.Fatal("queue full early")
		}
	}
	nw.Nodes[1].Fail()
	nw.Nodes[1].Recover()
	nw.Run(5)

	if f.pendingLen() != 0 || !slices.Contains(f.cfg.free, held) {
		t.Fatalf("%d forwards pending, forward on the free list: %v; want 0 and true",
			f.pendingLen(), slices.Contains(f.cfg.free, held))
	}
	if got := nw.Metrics.Snapshot().Count("mac.dropped_paused"); got != 0 {
		t.Fatalf("mac.dropped_paused = %d, want 0", got)
	}
	if err := nw.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardCyclesAllocateNothing pins the pooled forward: on a warmed
// node, a forward armed, fired and sent (released at OnSent), an
// origination sent and released the same way, and, for the Cancel
// variant, a forward armed and withdrawn by an overheard duplicate,
// allocate nothing. Blind flooding arms its rebroadcasts through the
// same pool. Node 0 is out of range, so each cycle is node 1's one
// frame.
func TestForwardCyclesAllocateNothing(t *testing.T) {
	cancelCfg := Counter1Config(5e-3)
	cancelCfg.Cancel = true
	for _, v := range []struct {
		name string
		cfg  Config
	}{
		{"counter-1", Counter1Config(5e-3)},
		{"cancel", cancelCfg},
		{"blind", Config{Blind: true}},
	} {
		nw, floods := build(t, v.cfg, 15, chain(2, 1000)...)
		f := floods[1]
		pkt := &packet.Packet{}
		seq := uint32(0)
		send := func() {
			seq++
			*pkt = *copyOf(seq, packet.None)
			f.OnDeliver(pkt, -50)
			nw.Run(nw.Kernel.Now() + 0.1)
		}
		originate := func() {
			f.Send(packet.None, packet.SizeData)
			nw.Run(nw.Kernel.Now() + 0.1)
		}
		withdraw := func() {
			seq++
			*pkt = *copyOf(seq, packet.None)
			f.OnDeliver(pkt, -50) // arms
			f.OnDeliver(pkt, -50) // the duplicate withdraws
		}
		type cycle struct {
			name    string
			run     func()
			counter Series
		}
		cycles := []cycle{{"send", send, Forwards}, {"originate", originate, Originated}}
		if v.cfg.Cancel {
			cycles = append(cycles, cycle{"withdraw", withdraw, Cancelled})
		}
		// Past the dedup cache's capacity, so it evicts as it records.
		for range dedupCap + 500 {
			send()
		}
		for _, tc := range cycles {
			const runs = 100
			before := f.Count(tc.counter)
			if allocs := testing.AllocsPerRun(runs, tc.run); allocs != 0 {
				t.Errorf("%s, %s cycle: %v allocations per cycle, want 0", v.name, tc.name, allocs)
			}
			if got := f.Count(tc.counter) - before; got != runs+1 { // AllocsPerRun warms up once
				t.Errorf("%s, %s cycle: counter moved %d in %d cycles", v.name, tc.name, got, runs+1)
			}
			if f.pendingLen() != 0 {
				t.Errorf("%s, %s cycle: %d frames left pending, want every one released", v.name, tc.name, f.pendingLen())
			}
		}
	}
}

// TestCancelWithdrawsItsOwnForward arms three forwards at one node of
// the Cancel variant, then overhears a duplicate of the middle one, the
// newest and the oldest in turn: each withdraws its own forward,
// wherever it sits in pending, which goes back on the free list while
// the others stay armed.
func TestCancelWithdrawsItsOwnForward(t *testing.T) {
	cfg := Counter1Config(5e-3)
	cfg.Cancel = true
	_, floods := build(t, cfg, 17, chain(2, 1000)...)
	f := floods[1]
	for seq := uint32(1); seq <= 3; seq++ {
		f.OnDeliver(copyOf(seq, packet.None), -50)
	}
	for i, seq := range []uint32{2, 3, 1} {
		key := copyOf(seq, packet.None).Key()
		pf := f.find(key)
		if pf == nil || pf.Phase != core.Pending {
			t.Fatalf("seq %d: no armed forward before its duplicate", seq)
		}
		f.OnDeliver(copyOf(seq, packet.None), -50)
		if f.find(key) != nil || !slices.Contains(f.cfg.free, pf) {
			t.Fatalf("seq %d: the duplicate did not withdraw and release its forward", seq)
		}
		if got := f.Count(Cancelled); got != uint64(i+1) || f.pendingLen() != 2-i {
			t.Fatalf("seq %d: %d cancelled, %d pending; want %d and %d", seq, got, f.pendingLen(), i+1, 2-i)
		}
	}
}
