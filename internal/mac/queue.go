package mac

import (
	"container/heap"

	"routeless/internal/packet"
)

// entry is one queued frame with its network-layer priority.
type entry struct {
	pkt      *packet.Packet
	priority float64
	seq      uint64
}

// prioQueue orders frames by ascending priority, FIFO within equal
// priorities. The paper leans on this queue in §3: "A priority queue
// favors those packets with a shorter backoff delay. Therefore, the
// prioritization takes effect not only among packets in different
// nodes, but also among packets in the same node."
//
// Entries are held by value, so push and pop allocate nothing once the
// slice has grown. container/heap still lays them out: MAC.DigestState
// hashes the storage order.
//
// The queue has no capacity of its own: MAC.Enqueue is the one place a
// frame can be refused.
type prioQueue struct {
	items []entry
	seq   uint64
}

// push enqueues a frame.
func (q *prioQueue) push(pkt *packet.Packet, priority float64) {
	// heap.Push's sift, without boxing the entry into an any.
	q.items = append(q.items, entry{pkt: pkt, priority: priority, seq: q.seq})
	q.seq++
	heap.Fix((*entryHeap)(q), len(q.items)-1)
}

// pop dequeues the highest-priority (lowest value) frame; the zero
// entry (nil pkt) if empty.
func (q *prioQueue) pop() entry {
	if len(q.items) == 0 {
		return entry{}
	}
	e := q.items[0]
	heap.Pop((*entryHeap)(q))
	return e
}

// len returns the number of queued frames.
func (q *prioQueue) len() int { return len(q.items) }

// index returns the position of the entry holding exactly pkt (pointer
// identity), or -1.
func (q *prioQueue) index(pkt *packet.Packet) int {
	for i := range q.items {
		if q.items[i].pkt == pkt {
			return i
		}
	}
	return -1
}

// remove deletes the entry holding exactly pkt; it reports whether
// anything was removed.
func (q *prioQueue) remove(pkt *packet.Packet) bool {
	i := q.index(pkt)
	if i < 0 {
		return false
	}
	heap.Remove((*entryHeap)(q), i)
	return true
}

// entryHeap adapts prioQueue to container/heap.
type entryHeap prioQueue

func (h *entryHeap) Len() int { return len(h.items) }

func (h *entryHeap) Less(i, j int) bool {
	a, b := &h.items[i], &h.items[j]
	//lint:ignore floateq stored priorities are compared verbatim for tie-breaking, never recomputed
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (h *entryHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

// Push is never called: push appends and sifts with heap.Fix.
func (h *entryHeap) Push(any) {}

// Pop drops the last entry, where heap.Pop and heap.Remove have moved
// the one they take out; pop has read it already, so nothing is boxed.
func (h *entryHeap) Pop() any {
	n := len(h.items) - 1
	h.items[n] = entry{}
	h.items = h.items[:n]
	return nil
}
