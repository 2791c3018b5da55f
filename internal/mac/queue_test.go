package mac

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"routeless/internal/packet"
)

func TestPrioQueueOrdering(t *testing.T) {
	var q prioQueue
	for _, p := range []float64{3, 1, 2, 1, 0} {
		q.push(&packet.Packet{Payload: p}, p)
	}
	var got []float64
	for q.len() > 0 {
		got = append(got, q.pop().priority)
	}
	if !slices.IsSorted(got) {
		t.Fatalf("pop order %v not ascending", got)
	}
}

func TestPrioQueueFIFOWithinPriority(t *testing.T) {
	var q prioQueue
	pkts := make([]*packet.Packet, 6)
	for i := range pkts {
		pkts[i] = &packet.Packet{Seq: uint32(i)}
		q.push(pkts[i], 1.0)
	}
	for i := range pkts {
		if e := q.pop(); e.pkt != pkts[i] {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

// TestPrioQueueCapacity: capacity is Enqueue's admission rule. The
// frame under contention leaves the queue, so QueueCap more are
// accepted; the next is refused, and a withdrawn frame makes room.
func TestPrioQueueCapacity(t *testing.T) {
	_, _, macs, _ := rig(t, pts(0, 0, 100, 0))
	m := macs[0]
	queueCap := DefaultConfig().QueueCap
	frames := make([]*packet.Packet, queueCap+1)
	for i := range frames {
		frames[i] = bcast(uint32(i))
		if !m.Enqueue(frames[i], 0) {
			t.Fatalf("frame %d refused under capacity", i)
		}
	}
	if m.Enqueue(bcast(0), 0) {
		t.Fatal("enqueue over capacity must fail")
	}
	if m.queue.len() != queueCap || m.Count(DroppedFull) != 1 {
		t.Fatalf("queue len %d, dropped_full %d; want %d and 1", m.queue.len(), m.Count(DroppedFull), queueCap)
	}
	if !m.Dequeue(frames[queueCap]) || !m.Enqueue(bcast(0), 0) {
		t.Fatal("a withdrawn frame did not make room")
	}
}

func TestPrioQueueRemove(t *testing.T) {
	var q prioQueue
	a := &packet.Packet{Seq: 1}
	b := &packet.Packet{Seq: 2}
	c := &packet.Packet{Seq: 3}
	q.push(a, 1)
	q.push(b, 2)
	q.push(c, 3)
	if !q.remove(b) {
		t.Fatal("remove failed")
	}
	if q.remove(b) {
		t.Fatal("double remove succeeded")
	}
	if q.remove(&packet.Packet{}) {
		t.Fatal("removing foreign packet succeeded")
	}
	if q.pop().pkt != a || q.pop().pkt != c {
		t.Fatal("remove disturbed heap order")
	}
}

func TestPrioQueueEmptyPop(t *testing.T) {
	var q prioQueue
	if q.pop().pkt != nil {
		t.Fatal("pop on empty should be nil")
	}
}

// Property: for any priorities and removal pattern, pops come out in
// (priority, insertion) order over the surviving entries.
func TestQuickPrioQueueSemantics(t *testing.T) {
	type op struct {
		Prio   uint8
		Remove bool
	}
	f := func(ops []op) bool {
		var q prioQueue
		type rec struct {
			pkt  *packet.Packet
			prio float64
			seq  int
		}
		var live []rec
		seq := 0
		for _, o := range ops {
			if o.Remove && len(live) > 0 {
				victim := int(o.Prio) % len(live)
				if !q.remove(live[victim].pkt) {
					return false
				}
				live = append(live[:victim], live[victim+1:]...)
				continue
			}
			p := &packet.Packet{}
			prio := float64(o.Prio % 8)
			q.push(p, prio)
			live = append(live, rec{p, prio, seq})
			seq++
		}
		slices.SortStableFunc(live, func(a, b rec) int {
			if c := cmp.Compare(a.prio, b.prio); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, want := range live {
			if e := q.pop(); e.pkt == nil || e.pkt != want.pkt {
				return false
			}
		}
		return q.pop().pkt == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestMACSize pins the per-node MAC at 248 B, the arena weight every
// node of a run pays: the frame under contention is held by value, and
// the int32 contention counters packed beside the state pay for it.
// The 8 B left below the 256-B size class are the room for a MAC's own
// ACK frame slot (ROADMAP item 19b).
func TestMACSize(t *testing.T) {
	if got := unsafe.Sizeof(MAC{}); got != 248 {
		t.Fatalf("MAC is %d B, want 248", got)
	}
}

// TestQueueAllocatesNothing checks that once the queue's slice has
// grown, pushing, removing and popping frames allocates nothing: the
// entries are held by value.
func TestQueueAllocatesNothing(t *testing.T) {
	var q prioQueue
	pkts := make([]*packet.Packet, 8)
	for i := range pkts {
		pkts[i] = &packet.Packet{}
	}
	cycle := func() {
		for i, p := range pkts {
			q.push(p, float64(i%3))
		}
		q.remove(pkts[3])
		for q.len() > 0 {
			q.pop()
		}
	}
	if allocs := testing.AllocsPerRun(10, cycle); allocs != 0 {
		t.Fatalf("%v allocations per fill and drain, want 0", allocs)
	}
}
