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
	q.init(16)
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
	q.init(16)
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

func TestPrioQueueCapacity(t *testing.T) {
	var q prioQueue
	q.init(2)
	if !q.push(&packet.Packet{}, 0) || !q.push(&packet.Packet{}, 0) {
		t.Fatal("pushes under capacity must succeed")
	}
	if q.push(&packet.Packet{}, 0) {
		t.Fatal("push over capacity must fail")
	}
	if q.len() != 2 {
		t.Fatalf("len = %d", q.len())
	}
}

func TestPrioQueueRemove(t *testing.T) {
	var q prioQueue
	q.init(16)
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
	q.init(4)
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
		q.init(1024)
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
			if !q.push(p, prio) {
				return false
			}
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

// TestMACSize pins the per-node MAC at 256 B, the arena weight every
// node of a run pays: the frame under contention is held by value, and
// the int32 contention counters packed beside the state pay for it.
func TestMACSize(t *testing.T) {
	if got := unsafe.Sizeof(MAC{}); got != 256 {
		t.Fatalf("MAC is %d B, want 256", got)
	}
}

// TestQueueAllocatesNothing checks that once the queue's slice has
// grown, pushing, removing and popping frames allocates nothing: the
// entries are held by value.
func TestQueueAllocatesNothing(t *testing.T) {
	var q prioQueue
	q.init(16)
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
