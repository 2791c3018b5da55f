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
type prioQueue struct {
	items []*entry
	seq   uint64
	cap   int
}

// init prepares an embedded queue in place (see MAC.queue).
func (q *prioQueue) init(capacity int) {
	if capacity <= 0 {
		panic("mac: queue capacity must be positive")
	}
	*q = prioQueue{cap: capacity}
}

// push enqueues a frame; it reports false (and drops) when full.
func (q *prioQueue) push(pkt *packet.Packet, priority float64) bool {
	if len(q.items) >= q.cap {
		return false
	}
	e := &entry{pkt: pkt, priority: priority, seq: q.seq}
	q.seq++
	heap.Push((*entryHeap)(q), e)
	return true
}

// pop dequeues the highest-priority (lowest value) frame, nil if empty.
func (q *prioQueue) pop() *entry {
	if len(q.items) == 0 {
		return nil
	}
	return heap.Pop((*entryHeap)(q)).(*entry)
}

// len returns the number of queued frames.
func (q *prioQueue) len() int { return len(q.items) }

// remove deletes the entry holding exactly pkt (pointer identity); it
// reports whether anything was removed.
func (q *prioQueue) remove(pkt *packet.Packet) bool {
	for i, e := range q.items {
		if e.pkt == pkt {
			heap.Remove((*entryHeap)(q), i)
			return true
		}
	}
	return false
}

// entryHeap adapts prioQueue to container/heap.
type entryHeap prioQueue

func (h *entryHeap) Len() int { return len(h.items) }

func (h *entryHeap) Less(i, j int) bool {
	a, b := h.items[i], h.items[j]
	//lint:ignore floateq stored priorities are compared verbatim for tie-breaking, never recomputed
	if a.priority != b.priority {
		return a.priority < b.priority
	}
	return a.seq < b.seq
}

func (h *entryHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }

func (h *entryHeap) Push(x any) { h.items = append(h.items, x.(*entry)) }

func (h *entryHeap) Pop() any {
	old := h.items
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	h.items = old[:n-1]
	return e
}
