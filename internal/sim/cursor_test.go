package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// A cursor must be invisible: a run of reserved keys pops in the same
// places, between the same other events, whether each key is queued as
// its own event or one re-keyed cursor walks the run. cursorWorld plays
// one random script both ways. Every decision the script takes is drawn
// inside a callback, so the two plays agree on the script only as long
// as they agree on the order — and the logs are compared entry by entry.

type cursorWorld struct {
	k        *Kernel
	perEvent bool // each key its own event, instead of one cursor per run
	rng      *rand.Rand
	log      []string
	loose    []*Event // ordinary events a later callback may cancel; nil once fired or cancelled
	timers   []*Timer
	launches int // runs still to start
	maxHeap  int

	runs   []*cursorRun // every run, heads and tails, in creation order
	firing *cursorRun   // the run whose key is firing, nil in other callbacks
	// cutInHeap and cutInRegister count runs cut short by another
	// callback, by where the cursor play's event sat when it was cancelled.
	cutInHeap, cutInRegister int
}

func (w *cursorWorld) note(what string) {
	w.log = append(w.log, fmt.Sprintf("%v #%d %s", w.k.Now(), w.k.Seq(), what))
	w.maxHeap = max(w.maxHeap, w.k.Pending())
}

// cursorRun is one ascending run of reserved keys. A head run knows all
// its keys at launch (a transmission's leading edges); its tail run, if
// any, gains one key each time a head key fires (the trailing edges) and
// may be caught up by, and re-armed behind, its own producer. Another
// callback may cut a run short, as a power-down flushes a receiver: the
// keys it has queued never fire, and a tail run re-arms on its next key.
type cursorRun struct {
	w      *cursorWorld
	id     int
	keys   []EventKey
	next   int
	stop   int      // the run ends after this key fires; len(keys) means never
	events []*Event // perEvent: one per key, so an early end can cancel the rest; nil once cancelled
	self   *Event   // cursor: the one event standing for the run, nil when not armed
	tail   *cursorRun
	lag    Time // tail key = head firing time + lag
}

func (w *cursorWorld) launch() {
	w.launches--
	r := &cursorRun{w: w, id: w.launches, lag: Time(w.rng.Intn(3)) / 2}
	w.runs = append(w.runs, r)
	n := 1 + w.rng.Intn(12)
	first := w.k.ReserveSeq(n)
	for i := 0; i < n; i++ {
		// Coarse delays force ties inside the run and against other
		// events; delay 0 puts a key at the launching callback's own now.
		r.keys = append(r.keys, EventKey{At: w.k.Now() + Time(w.rng.Intn(4))/2, Seq: first + uint64(i)})
	}
	slices.SortFunc(r.keys, func(a, b EventKey) int {
		if a.Before(b) {
			return -1
		}
		return 1
	})
	r.stop = n
	if w.rng.Intn(4) == 0 {
		r.stop = w.rng.Intn(n)
	}
	if w.rng.Intn(3) > 0 {
		r.tail = &cursorRun{w: w, id: 1000 + r.id}
		w.runs = append(w.runs, r.tail)
	}
	w.note(fmt.Sprintf("launch %d: %d keys", r.id, n))
	if w.perEvent {
		for i := range r.keys {
			r.events = append(r.events, w.k.AtCursor(r.keys[i], Func(r.fire)))
		}
	} else {
		r.self = w.k.AtCursor(r.keys[0], Func(r.fire))
	}
}

// push appends a freshly reserved key to a tail run and makes sure
// something is queued to fire it.
func (r *cursorRun) push(key EventKey) {
	r.keys = append(r.keys, key)
	r.stop = len(r.keys)
	if r.w.perEvent {
		r.events = append(r.events, r.w.k.AtCursor(key, Func(r.fire)))
	} else if r.self == nil {
		r.self = r.w.k.AtCursor(key, Func(r.fire))
	}
}

// fire handles the run's next key: identical side effects in both plays,
// then whatever the play needs to get the following key queued.
func (r *cursorRun) fire() {
	w, i := r.w, r.next
	r.next++
	w.firing = r
	defer func() { w.firing = nil }()
	w.note(fmt.Sprintf("run %d key %d", r.id, i))
	rekeyFirst := r.id%2 == 0
	more := i < r.stop && i+1 < len(r.keys)
	if !w.perEvent && more && rekeyFirst {
		w.k.Rekey(r.keys[i+1])
	}
	if r.tail != nil {
		r.tail.push(EventKey{At: w.k.Now() + r.lag, Seq: w.k.ReserveSeq(1)})
	}
	w.act()
	switch {
	case w.perEvent:
		if i == r.stop {
			r.cancelQueued()
		}
	case more:
		if !rekeyFirst {
			w.k.Rekey(r.keys[i+1])
		}
	default:
		if i+1 < len(r.keys) && rekeyFirst {
			// Ends mid-callback, after moving on: cancel what Rekey queued.
			w.k.Rekey(r.keys[i+1])
			w.k.Cancel(r.self)
		}
		r.self = nil
	}
}

// queued reports whether the run has a key queued to fire.
func (r *cursorRun) queued() bool { return r.next < len(r.keys) && r.next <= r.stop }

// cancelQueued cancels the per-event play's unfired keys.
func (r *cursorRun) cancelQueued() {
	for j := r.next; j < len(r.events); j++ {
		r.w.k.Cancel(r.events[j])
		r.events[j] = nil
	}
}

// cut ends the run from another callback: its queued keys never fire.
func (r *cursorRun) cut() {
	w := r.w
	w.note(fmt.Sprintf("cut %d", r.id))
	if w.perEvent {
		r.cancelQueued()
	} else {
		if r.self.index == inRegister {
			w.cutInRegister++
		} else {
			w.cutInHeap++
		}
		w.k.Cancel(r.self)
		r.self = nil
	}
	r.next = len(r.keys)
}

// act is what a protocol does on an indication: schedule at this very
// instant and later, cancel, move timers, start another run.
func (w *cursorWorld) act() {
	if w.k.Processed() > 4000 {
		return // the script is a subcritical branching process; this bounds the unlucky seed
	}
	if w.rng.Intn(3) == 0 {
		w.k.Schedule(0, func() { w.note("at now") })
	}
	if w.rng.Intn(3) == 0 {
		id := len(w.loose)
		w.loose = append(w.loose, w.k.Schedule(Time(w.rng.Intn(6))/2, func() {
			w.loose[id] = nil // the kernel recycles a fired event: the handle is dead
			w.note(fmt.Sprintf("loose %d", id))
			w.act()
		}))
	}
	if len(w.loose) > 0 && w.rng.Intn(4) == 0 {
		id := w.rng.Intn(len(w.loose))
		w.k.Cancel(w.loose[id])
		w.loose[id] = nil
	}
	switch t := w.timers[w.rng.Intn(len(w.timers))]; w.rng.Intn(6) {
	case 0, 1:
		t.Reset(Time(w.rng.Intn(5)) / 2)
	case 2:
		t.Stop()
	}
	if w.rng.Intn(6) == 0 {
		var live []*cursorRun
		for _, r := range w.runs {
			if r != w.firing && r.queued() {
				live = append(live, r)
			}
		}
		if len(live) > 0 {
			live[w.rng.Intn(len(live))].cut()
		}
	}
	if w.launches > 0 && w.rng.Intn(4) == 0 {
		w.launch()
	}
}

func playCursorScript(seed int64, perEvent bool) *cursorWorld {
	w := &cursorWorld{k: NewKernel(1), perEvent: perEvent, rng: rand.New(rand.NewSource(seed)), launches: 24}
	for i := 0; i < 3; i++ {
		w.timers = append(w.timers, NewTimer(w.k, func() { w.note(fmt.Sprintf("timer %d", i)); w.act() }))
	}
	for i := 0; i < 6; i++ {
		w.k.Schedule(Time(i), func() {
			w.note("driver")
			if w.launches > 0 {
				w.launch()
			}
			w.act()
		})
	}
	w.k.Run()
	return w
}

// Property: cursors are an encoding of the heap, not a change to it.
func TestQuickCursorOrderEqualsPerEventOrder(t *testing.T) {
	var inHeap, inRegister int
	f := func(seed int64) bool {
		ref, cur := playCursorScript(seed, true), playCursorScript(seed, false)
		inHeap += cur.cutInHeap
		inRegister += cur.cutInRegister
		for i := range ref.log {
			if i >= len(cur.log) || ref.log[i] != cur.log[i] {
				t.Errorf("seed %d entry %d: per-event %q, cursor %q", seed, i, ref.log[i], cur.log[min(i, len(cur.log)-1)])
				return false
			}
		}
		if len(cur.log) != len(ref.log) || cur.k.Processed() != ref.k.Processed() || cur.k.Seq() != ref.k.Seq() {
			t.Errorf("seed %d: %d entries, %d events, seq %d with cursors; %d, %d, %d without", seed,
				len(cur.log), cur.k.Processed(), cur.k.Seq(), len(ref.log), ref.k.Processed(), ref.k.Seq())
			return false
		}
		if cur.k.Pending() != 0 || cur.k.Pool().Live() != 0 {
			t.Errorf("seed %d: cursor play left %d queued, %d live", seed, cur.k.Pending(), cur.k.Pool().Live())
			return false
		}
		return cur.maxHeap <= ref.maxHeap
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if inHeap == 0 || inRegister == 0 {
		t.Fatalf("scripts cut %d cursors in the heap and %d in the register; want both", inHeap, inRegister)
	}
	t.Logf("cut %d cursors in the heap, %d in the register", inHeap, inRegister)
}

func TestCursorContracts(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	k := NewKernel(1)
	mustPanic("AtCursor under an unreserved number", func() { k.AtCursor(EventKey{At: 1, Seq: k.Seq()}, Func(func() {})) })
	mustPanic("Rekey outside a callback", func() { k.Rekey(EventKey{At: 1}) })
	k.Schedule(1, func() { mustPanic("Rekey from an ordinary event", func() { k.Rekey(EventKey{At: 2}) }) })
	first := k.ReserveSeq(3)
	fired := 0
	k.AtCursor(EventKey{At: 2, Seq: first + 1}, Func(func() {
		if fired++; fired == 1 {
			mustPanic("Rekey backwards", func() { k.Rekey(EventKey{At: 2, Seq: first}) })
			k.Rekey(EventKey{At: 4, Seq: first + 2})
		}
	}))
	// The cursor now waits in the register, under (4, first+2), until it
	// fires again: only its own callback may move it.
	k.Schedule(3, func() {
		mustPanic("Rekey from an ordinary event while a cursor waits in the register", func() { k.Rekey(EventKey{At: 5, Seq: first + 2}) })
	})
	k.RunUntil(3.5)
	mustPanic("Rekey between events while a cursor waits in the register", func() { k.Rekey(EventKey{At: 5, Seq: first + 2}) })
	k.Run()
	if k.Processed() != 4 || k.Pending() != 0 || fired != 2 {
		t.Fatalf("processed %d, pending %d, cursor fired %d times; want 4, 0, 2", k.Processed(), k.Pending(), fired)
	}
}

// TestRegisterIsQueued checks that a cursor waiting in the kernel's
// register is queued to every observer — Pending, PendingKeys,
// Event.Pending and Cancel — and that a cursor reaching the heap's root
// trades places with it.
func TestRegisterIsQueued(t *testing.T) {
	k := NewKernel(1)
	first := k.ReserveSeq(4)
	key := func(at Time, i int) EventKey { return EventKey{At: at, Seq: first + uint64(i)} }
	walk := func(keys ...EventKey) Func {
		return func() {
			if len(keys) > 0 {
				k.Rekey(keys[0])
				keys = keys[1:]
			}
		}
	}
	// a fires at 1 and 3, b at 2 and 4: each edge hands the register over.
	a := k.AtCursor(key(1, 0), walk(key(3, 2)))
	b := k.AtCursor(key(2, 1), walk(key(4, 3)))
	far := k.At(10, func() {})
	farKey := EventKey{At: 10, Seq: first + 4}
	check := func(step string, want ...EventKey) {
		t.Helper()
		if got := k.PendingKeys(); !slices.Equal(got, want) {
			t.Errorf("%s: pending keys %v, want %v", step, got, want)
		}
		if k.Pending() != len(want) {
			t.Errorf("%s: Pending() = %d, want %d", step, k.Pending(), len(want))
		}
	}
	check("before any step", key(1, 0), key(2, 1), farKey)
	k.Step()
	if a.index != inRegister || !a.Pending() {
		t.Fatalf("a rekeyed but is not queued in the register (index %d)", a.index)
	}
	check("a in the register", key(2, 1), key(3, 2), farKey)
	k.Step()
	if b.index != inRegister || !b.Pending() || a.index == inRegister || !a.Pending() {
		t.Fatalf("b did not take the register from a (indexes %d, %d)", a.index, b.index)
	}
	check("b in the register, a in the heap", key(3, 2), key(4, 3), farKey)
	k.Cancel(b)
	if b.Pending() || k.reg.e != nil {
		t.Fatal("Cancel left b in the register")
	}
	check("b cancelled", key(3, 2), farKey)
	k.Step() // a's last edge: it takes the empty register, fires and leaves it
	if a.Pending() || k.reg.e != nil {
		t.Fatal("a ended but is still queued")
	}
	check("a ended", farKey)
	if !far.Pending() {
		t.Fatal("the ordinary event left the queue")
	}
	k.Run()
	if k.Processed() != 4 || k.Pool().Live() != 0 {
		t.Fatalf("processed %d, %d live; want 4, 0", k.Processed(), k.Pool().Live())
	}
}
