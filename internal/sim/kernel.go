// Package sim provides a sequential discrete-event simulation kernel:
// a virtual clock, an event heap with deterministic tie-breaking, and
// cancellable timers. It is the substrate every other package in this
// repository runs on.
//
// The kernel is deliberately single-threaded, and it is the only
// engine: every run, batch or served, executes on one Kernel from build
// to finish. Wireless protocol simulations are causally ordered by the
// event heap, and determinism (same seed, same schedule, same results)
// matters more than intra-run parallelism. Parallelism belongs one level
// up, across runs (see internal/sweep), which is why Step offers its
// processor to other goroutines every 1024 events.
//
// Execution order is the total order of (time, sequence number) keys.
// Most events take the next sequence number when they are scheduled. A
// producer that knows a whole run of future keys at once — the channel
// knows every edge of a transmission when it starts — may instead
// reserve the numbers (ReserveSeq) and walk the run with one cursor
// event (AtCursor, Rekey): the heap then holds the run's next key only,
// and the pop sequence is exactly what one event per key would give.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"

	"routeless/internal/rng"
)

// Time is simulation time in seconds since the start of the run.
type Time float64

// Infinity is a time later than any schedulable event.
const Infinity Time = Time(math.MaxFloat64)

// Duration helpers.

// Millis returns t expressed in milliseconds.
func (t Time) Millis() float64 { return float64(t) * 1e3 }

// Micros returns t expressed in microseconds.
func (t Time) Micros() float64 { return float64(t) * 1e6 }

// Seconds returns t as a plain float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Event is a scheduled callback. Events are owned by the Kernel; user
// code holds *Event only to cancel or inspect it.
type Event struct {
	at     Time
	fn     func()
	index  int // position in the heap, -1 when not queued
	kernel *Kernel
	cursor bool // scheduled by AtCursor: stays queued while fn runs
}

// At returns the time the event is (or was) scheduled to fire.
func (e *Event) At() Time { return e.at }

// Pending reports whether the event is still queued to fire.
func (e *Event) Pending() bool { return e != nil && e.index >= 0 }

// EventKey is one event's position in the execution order: its time,
// then the sequence number that breaks ties deterministically — the
// order events were scheduled in, or a number reserved with ReserveSeq.
type EventKey struct {
	At  Time
	Seq uint64
}

// Before orders keys by (time, sequence number). The pair is a total
// order — Seq is unique — so the pop sequence is independent of heap
// shape, which is what makes the heap arity an implementation detail
// rather than a determinism concern.
func (a EventKey) Before(b EventKey) bool {
	//lint:ignore floateq stored timestamps are compared verbatim for tie-breaking, never recomputed
	if a.At != b.At {
		return a.At < b.At
	}
	return a.Seq < b.Seq
}

// heapNode is one slot of the event queue. The ordering key lives
// inline in the heap array — a sift compares adjacent array slots
// instead of dereferencing two *Event pointers, which is where most of
// container/heap's cache misses came from.
type heapNode struct {
	EventKey
	e *Event
}

// EventPool is a free list of recycled Event structs; DES workloads
// allocate millions of events and recycling them keeps GC pressure
// flat without reaching for unsafe tricks. The pool is allowed to grow
// with the peak queue depth (see recycle) so steady-state runs stop
// allocating entirely.
//
// A pool may outlive the kernel that filled it: a sweep worker hands
// one pool to each replication's kernel in turn, so after the first
// cell warms it, later cells schedule out of recycled memory. Pooled
// events carry no kernel state (recycle clears fn and kernel), but the
// pool itself is plain mutable state — it must never be shared between
// kernels that run concurrently.
type EventPool struct {
	free []*Event

	// live counts events currently checked out (allocated or reused via
	// At or AtCursor and not yet recycled — a cursor is one event for its
	// whole run of keys); peak is its high-water mark since the last
	// Reset. Together they are the shrink watermark: a pool that
	// served a million-event cell and is then reused for a hundred-event
	// cell trims back to what the recent workload actually needed
	// instead of pinning the largest cell's memory for the whole sweep.
	live int
	peak int
}

// NewEventPool returns an empty pool, ready to hand to NewKernelPooled.
func NewEventPool() *EventPool { return &EventPool{} }

// FreeLen returns the current free-list length (spare events held).
func (p *EventPool) FreeLen() int { return len(p.free) }

// Live returns the number of events currently checked out. Live and
// Peak are behavioral state — they rebuild identically when the same
// schedule replays — while FreeLen is allocation history (how warm the
// pool happened to be), which NewKernelPooled's bit-for-bit equivalence
// contract explicitly keeps out of results; snapshot fingerprints hash
// the former and ignore the latter.
func (p *EventPool) Live() int { return p.live }

// Peak returns the high-water checked-out event count since the last
// Reset — the watermark Reset shrinks to.
func (p *EventPool) Peak() int { return p.peak }

// Reset shrinks the free list to the watermark of the workload since
// the previous Reset and restarts tracking. Call it between runs (no
// kernel may be live on the pool): the next run of similar size reuses
// every retained event, while a smaller run no longer pays the largest
// predecessor's footprint. Dropped slots are nil'd so the events are
// collectable, and a grossly oversized backing array is reallocated so
// the slice header itself cannot pin the old peak.
func (p *EventPool) Reset() {
	keep := p.peak
	if keep > len(p.free) {
		keep = len(p.free)
	}
	for i := keep; i < len(p.free); i++ {
		p.free[i] = nil
	}
	p.free = p.free[:keep]
	if cap(p.free) > 2*keep+64 {
		p.free = append(make([]*Event, 0, keep), p.free...)
	}
	p.live, p.peak = 0, 0
}

// Kernel is a discrete-event scheduler. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now       Time
	seq       uint64
	events    []heapNode // 4-ary min-heap ordered by (at, seq)
	rng       *rand.Rand
	processed uint64
	horizon   Time

	// pool recycles Event structs. Private to the kernel by default;
	// NewKernelPooled substitutes an externally owned pool so the free
	// list survives the kernel and warms the next run.
	pool *EventPool

	// firing is the cursor event whose callback Step is running (nil
	// otherwise) and rekeyed whether that callback has moved it to a
	// later key rather than letting it end.
	firing  *Event
	rekeyed bool
}

// NewKernel returns a kernel whose clock starts at 0 and whose random
// stream is seeded with seed. All randomness used by simulation
// components should derive from Rand() (directly or via rng.Split) so a
// run is reproducible from its seed.
func NewKernel(seed int64) *Kernel {
	return NewKernelPooled(seed, NewEventPool())
}

// NewKernelPooled is NewKernel drawing recycled Event structs from an
// externally owned pool. Recycling never changes event semantics —
// every field is reinitialized on reuse — so a pooled kernel is
// bit-for-bit equivalent to a fresh one; only the allocation count
// differs. The caller must ensure no two concurrently running kernels
// share one pool.
func NewKernelPooled(seed int64, pool *EventPool) *Kernel {
	if pool == nil {
		pool = NewEventPool()
	}
	return &Kernel{
		rng:     rng.New(seed),
		horizon: Infinity,
		pool:    pool,
	}
}

// Now returns the current simulation time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's master random stream.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Processed returns the number of events executed so far.
func (k *Kernel) Processed() uint64 { return k.processed }

// Pending returns the number of events currently queued.
func (k *Kernel) Pending() int { return len(k.events) }

// Seq returns the scheduling sequence counter: the total number of
// events ever queued on this kernel. Together with Now, Processed, and
// the pending (at, seq) keys it pins the scheduler's externally
// observable state exactly — a restored kernel whose Seq differs would
// break ties differently on the very next same-time scheduling race.
func (k *Kernel) Seq() uint64 { return k.seq }

// PendingKeys returns the (at, seq) key of every pending event in
// ascending execution order. The heap's internal layout is shape-
// dependent, but the sorted key sequence is not, so this is the
// canonical form snapshot fingerprints hash. A cursor contributes the
// one key it is queued under; the rest of its run is its owner's state
// to digest. It allocates; not for hot paths.
func (k *Kernel) PendingKeys() []EventKey {
	keys := make([]EventKey, len(k.events))
	for i, hn := range k.events {
		keys[i] = hn.EventKey
	}
	slices.SortFunc(keys, func(a, b EventKey) int {
		if a.Before(b) {
			return -1
		}
		if b.Before(a) {
			return 1
		}
		return 0
	})
	return keys
}

// Pool returns the kernel's event pool (never nil: NewKernelPooled
// substitutes a private pool when handed none).
func (k *Kernel) Pool() *EventPool { return k.pool }

// Schedule queues fn to run delay seconds after the current time and
// returns the event handle. A negative delay panics: an event in the
// past would violate causality.
func (k *Kernel) Schedule(delay Time, fn func()) *Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v at t=%v", delay, k.now))
	}
	return k.At(k.now+delay, fn)
}

// At queues fn to run at absolute time t (which must not precede the
// current time) and returns the event handle.
func (k *Kernel) At(t Time, fn func()) *Event {
	seq := k.seq
	k.seq++
	return k.push(EventKey{At: t, Seq: seq}, fn)
}

// ReserveSeq sets aside the next n sequence numbers and returns the
// first: exactly the numbers n consecutive At calls would have taken,
// for keys that will be queued later through a cursor. Reserving moves
// Seq like scheduling does, so everything scheduled afterwards breaks
// ties against the reserved keys as it would against real events.
func (k *Kernel) ReserveSeq(n int) uint64 {
	first := k.seq
	k.seq += uint64(n)
	return first
}

// AtCursor queues fn under a key whose sequence number was reserved
// earlier, as a cursor event: one event that stands for a whole
// ascending run of reserved keys, of which the heap holds only the
// next. Each time it fires, fn handles the key it fired under and
// either calls Rekey with the run's next key or returns without doing
// so, which ends the cursor. Step keeps a cursor queued while fn runs so
// that Rekey is a single in-place sift instead of a pop and a push.
func (k *Kernel) AtCursor(key EventKey, fn func()) *Event {
	if key.Seq >= k.seq {
		panic(fmt.Sprintf("sim: cursor sequence number %d was never reserved (next is %d)", key.Seq, k.seq))
	}
	e := k.push(key, fn)
	e.cursor = true
	return e
}

// Rekey moves the cursor event whose callback is running to key, the
// next of its run, which must come after the key it fired under. It
// panics outside a cursor's callback.
//
// The firing cursor is still queued, and still the heap's minimum:
// whatever its callback has scheduled so far carries a time ≥ now and a
// sequence number taken or reserved after the cursor's own, so nothing
// sifted above it. Overwriting its key and sifting it down from the
// root therefore leaves the heap exactly as popping it and pushing the
// new key would, in half the work.
func (k *Kernel) Rekey(key EventKey) {
	e := k.firing
	if e == nil {
		panic("sim: Rekey outside a cursor event's callback")
	}
	i := e.index
	if !k.events[i].Before(key) {
		panic(fmt.Sprintf("sim: Rekey to %v, not after %v", key, k.events[i].EventKey))
	}
	e.at = key.At
	k.events[i].EventKey = key
	k.siftDown(i)
	k.rekeyed = true
}

// push queues fn under key on a pooled event.
func (k *Kernel) push(key EventKey, fn func()) *Event {
	if key.At < k.now {
		panic(fmt.Sprintf("sim: schedule at %v before now %v", key.At, k.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	var e *Event
	if n := len(k.pool.free); n > 0 {
		e = k.pool.free[n-1]
		k.pool.free = k.pool.free[:n-1]
	} else {
		e = &Event{}
	}
	k.pool.live++
	if k.pool.live > k.pool.peak {
		k.pool.peak = k.pool.live
	}
	e.at = key.At
	e.fn = fn
	e.kernel = k
	e.index = len(k.events)
	e.cursor = false
	k.events = append(k.events, heapNode{EventKey: key, e: e})
	k.siftUp(len(k.events) - 1)
	return e
}

// Cancel removes a pending event. Cancelling a nil, already-fired or
// already-cancelled event is a no-op, so callers can cancel
// unconditionally. Cancelling a cursor from inside its own callback ends
// it: any Rekey that callback made is void.
func (k *Kernel) Cancel(e *Event) {
	if e == nil || e.index < 0 || e.kernel != k {
		return
	}
	if e == k.firing {
		k.rekeyed = false // Step removes it when the callback returns
		return
	}
	k.remove(e)
	k.recycle(e)
}

// remove takes a queued event out of the heap.
func (k *Kernel) remove(e *Event) {
	i := e.index
	n := len(k.events) - 1
	last := k.events[n]
	k.events[n] = heapNode{}
	k.events = k.events[:n]
	e.index = -1
	if i < n {
		k.events[i] = last
		last.e.index = i
		// The displaced event can be out of order in either direction.
		k.siftDown(i)
		if last.e.index == i {
			k.siftUp(i)
		}
	}
}

func (k *Kernel) recycle(e *Event) {
	e.fn = nil
	e.kernel = nil
	k.pool.live--
	// Retain spares up to the pool's own watermark (free + live ≤ peak +
	// 64), not the current queue depth: a heap that drains between
	// bursts keeps the events its next burst needs, so once a burst has
	// set the peak every At() is a reuse.
	if len(k.pool.free)+k.pool.live < k.pool.peak+64 {
		k.pool.free = append(k.pool.free, e)
	}
}

// yieldEvery is how many events a kernel executes between offers of its
// processor to other goroutines — a fraction of a millisecond of work.
// An event loop never blocks, so without the offer a host whose kernels
// occupy every processor (a run server with a full worker pool) leaves
// its I/O goroutines waiting for the Go runtime's 10 ms preemption tick,
// or for a garbage collection to stop the world. With nothing else
// runnable the offer costs well under a microsecond; it cannot change
// results, because no simulation state is shared between goroutines
// that run concurrently.
const yieldEvery = 1024

// Step executes the earliest pending event. It returns false when the
// queue is empty or the next event lies beyond the horizon.
//
// An ordinary event is popped and recycled before its callback runs. A
// cursor event (AtCursor) stays at the root while its callback runs, and
// leaves the heap afterwards only if the callback did not Rekey it.
func (k *Kernel) Step() bool {
	if len(k.events) == 0 {
		return false
	}
	root := k.events[0]
	if root.At > k.horizon {
		return false
	}
	e := root.e
	k.now = root.At
	k.processed++
	if k.processed%yieldEvery == 0 {
		runtime.Gosched()
	}
	if e.cursor {
		k.firing, k.rekeyed = e, false
		e.fn()
		k.firing = nil
		if !k.rekeyed {
			k.remove(e)
			k.recycle(e)
		}
		return true
	}
	k.remove(e)
	fn := e.fn
	k.recycle(e)
	fn()
	return true
}

// Run executes events until the queue drains or the horizon passes.
func (k *Kernel) Run() {
	for k.Step() {
	}
	if k.horizon < Infinity && k.now < k.horizon {
		k.now = k.horizon
	}
}

// RunUntil executes events with timestamps not exceeding t, then
// advances the clock to t. It is legal to call RunUntil repeatedly with
// increasing times.
func (k *Kernel) RunUntil(t Time) {
	if t < k.now {
		panic(fmt.Sprintf("sim: RunUntil(%v) before now %v", t, k.now))
	}
	old := k.horizon
	k.horizon = t
	for k.Step() {
	}
	k.horizon = old
	k.now = t
}

// SetHorizon caps Run: events scheduled after t never execute. Use
// Infinity to remove the cap.
func (k *Kernel) SetHorizon(t Time) { k.horizon = t }

// The event queue is a 4-ary min-heap stored implicitly in k.events:
// children of node i live at 4i+1..4i+4. Compared to the binary
// container/heap it replaces, the typed heap avoids interface boxing on
// every push/pop, halves the tree depth (shorter sift paths through a
// millions-deep event stream), and lets the sift loops hold the moving
// event in a register instead of swapping element pairs through the
// slice. The comparator is the same (at, seq) total order, so pop order
// — and therefore every simulation result — is unchanged.

// siftUp moves the node at index i toward the root until its parent is
// not after it.
func (k *Kernel) siftUp(i int) {
	h := k.events
	nd := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		p := h[parent]
		if !nd.Before(p.EventKey) {
			break
		}
		h[i] = p
		p.e.index = i
		i = parent
	}
	h[i] = nd
	nd.e.index = i
}

// siftDown moves the node at index i toward the leaves until no child
// precedes it.
func (k *Kernel) siftDown(i int) {
	h := k.events
	n := len(h)
	nd := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		bn := h[first]
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if cn := h[c]; cn.Before(bn.EventKey) {
				best, bn = c, cn
			}
		}
		if !bn.Before(nd.EventKey) {
			break
		}
		h[i] = bn
		bn.e.index = i
		i = best
	}
	h[i] = nd
	nd.e.index = i
}
