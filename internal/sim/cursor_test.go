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
}

func (w *cursorWorld) note(what string) {
	w.log = append(w.log, fmt.Sprintf("%v #%d %s", w.k.Now(), w.k.Seq(), what))
	w.maxHeap = max(w.maxHeap, w.k.Pending())
}

// cursorRun is one ascending run of reserved keys. A head run knows all
// its keys at launch (a transmission's leading edges); its tail run, if
// any, gains one key each time a head key fires (the trailing edges) and
// may be caught up by, and re-armed behind, its own producer.
type cursorRun struct {
	w      *cursorWorld
	id     int
	keys   []EventKey
	next   int
	stop   int      // the run ends after this key fires; len(keys) means never
	events []*Event // perEvent: one per key, so an early end can cancel the rest
	self   *Event   // cursor: the one event standing for the run, nil when not armed
	tail   *cursorRun
	lag    Time // tail key = head firing time + lag
}

func (w *cursorWorld) launch() {
	w.launches--
	r := &cursorRun{w: w, id: w.launches, lag: Time(w.rng.Intn(3)) / 2}
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
	}
	w.note(fmt.Sprintf("launch %d: %d keys", r.id, n))
	if w.perEvent {
		for i := range r.keys {
			r.events = append(r.events, w.k.AtCursor(r.keys[i], r.fire))
		}
	} else {
		r.self = w.k.AtCursor(r.keys[0], r.fire)
	}
}

// push appends a freshly reserved key to a tail run and makes sure
// something is queued to fire it.
func (r *cursorRun) push(key EventKey) {
	r.keys = append(r.keys, key)
	r.stop = len(r.keys)
	if r.w.perEvent {
		r.w.k.AtCursor(key, r.fire)
	} else if r.self == nil {
		r.self = r.w.k.AtCursor(key, r.fire)
	}
}

// fire handles the run's next key: identical side effects in both plays,
// then whatever the play needs to get the following key queued.
func (r *cursorRun) fire() {
	w, i := r.w, r.next
	r.next++
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
			for _, e := range r.events[i+1:] {
				w.k.Cancel(e)
			}
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
	f := func(seed int64) bool {
		ref, cur := playCursorScript(seed, true), playCursorScript(seed, false)
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
	mustPanic("AtCursor under an unreserved number", func() { k.AtCursor(EventKey{At: 1, Seq: k.Seq()}, func() {}) })
	mustPanic("Rekey outside a callback", func() { k.Rekey(EventKey{At: 1}) })
	k.Schedule(1, func() { mustPanic("Rekey from an ordinary event", func() { k.Rekey(EventKey{At: 2}) }) })
	first := k.ReserveSeq(2)
	k.AtCursor(EventKey{At: 2, Seq: first + 1}, func() {
		mustPanic("Rekey backwards", func() { k.Rekey(EventKey{At: 2, Seq: first}) })
	})
	k.Run()
	if k.Processed() != 2 || k.Pending() != 0 {
		t.Fatalf("processed %d, pending %d; want 2, 0", k.Processed(), k.Pending())
	}
}
