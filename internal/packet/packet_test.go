package packet

import (
	"testing"
	"testing/quick"

	"routeless/internal/digest"
	"routeless/internal/rng"
)

func TestNodeIDString(t *testing.T) {
	if Broadcast.String() != "*" {
		t.Fatalf("Broadcast = %q", Broadcast.String())
	}
	if None.String() != "-" {
		t.Fatalf("None = %q", None.String())
	}
	if NodeID(7).String() != "n7" {
		t.Fatalf("NodeID(7) = %q", NodeID(7).String())
	}
}

func TestKindString(t *testing.T) {
	seen := map[string]bool{}
	for k := Kind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" {
			t.Fatalf("kind %d has empty name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	if Kind(200).String() != "KIND(200)" {
		t.Fatal("out-of-range kind should degrade gracefully")
	}
}

func TestCloneIndependence(t *testing.T) {
	p := &Packet{Kind: KindData, Origin: 1, Target: 2, Seq: 7, HopCount: 3}
	q := p.Clone()
	q.HopCount = 99
	q.Seq = 100
	if p.HopCount != 3 || p.Seq != 7 {
		t.Fatal("Clone shares header state with original")
	}
}

func TestKeyIdentity(t *testing.T) {
	a := &Packet{Kind: KindData, Origin: 1, Seq: 7, HopCount: 2}
	b := &Packet{Kind: KindData, Origin: 1, Seq: 7, HopCount: 5, From: 9}
	if a.Key() != b.Key() {
		t.Fatal("same logical packet should have equal keys")
	}
	c := &Packet{Kind: KindReply, Origin: 1, Seq: 7}
	if a.Key() == c.Key() {
		t.Fatal("different kinds must not collide")
	}
}

func TestDedupBasic(t *testing.T) {
	c := &DedupCache{}
	c.Init(10)
	k := FlowKey{1, KindData, 1}
	if c.Seen(k) {
		t.Fatal("first observation should be new")
	}
	if !c.Seen(k) {
		t.Fatal("second observation should be a duplicate")
	}
	if !c.Contains(k) {
		t.Fatal("Contains should report recorded key")
	}
	if c.Contains(FlowKey{2, KindData, 1}) {
		t.Fatal("Contains reported unrecorded key")
	}
}

func TestDedupEvictionFIFO(t *testing.T) {
	c := &DedupCache{}
	c.Init(3)
	keys := []FlowKey{{1, KindData, 1}, {1, KindData, 2}, {1, KindData, 3}, {1, KindData, 4}}
	for _, k := range keys {
		c.Seen(k)
	}
	if c.Contains(keys[0]) {
		t.Fatal("oldest key should be evicted")
	}
	for _, k := range keys[1:] {
		if !c.Contains(k) {
			t.Fatalf("key %v should survive", k)
		}
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want 3", c.Len())
	}
}

func TestDedupDuplicateDoesNotEvict(t *testing.T) {
	c := &DedupCache{}
	c.Init(2)
	a, b := FlowKey{1, KindData, 1}, FlowKey{1, KindData, 2}
	c.Seen(a)
	c.Seen(b)
	for i := 0; i < 10; i++ {
		c.Seen(a) // duplicates must not push b out
	}
	if !c.Contains(b) {
		t.Fatal("duplicate observations evicted a live key")
	}
}

func TestDedupZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	new(DedupCache).Init(0)
}

// Property: a DedupCache never reports new for a key seen within the
// last cap-1 distinct insertions.
func TestQuickDedupWindow(t *testing.T) {
	f := func(seqs []uint8) bool {
		const cap = 8
		c := &DedupCache{}
		c.Init(cap)
		var window []FlowKey
		for _, s := range seqs {
			k := FlowKey{1, KindData, uint32(s)}
			inWindow := false
			for _, w := range window {
				if w == k {
					inWindow = true
					break
				}
			}
			dup := c.Seen(k)
			if inWindow && !dup {
				return false // forgot a key still inside the window
			}
			if !inWindow {
				window = append(window, k)
				if len(window) > cap {
					window = window[1:]
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Kind: KindReply, From: 3, To: Broadcast, Origin: 1, Target: 2, Seq: 9, HopCount: 4, ExpectedHops: 2}
	s := p.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}

// refDedup is the map-and-slice cache DedupCache replaced, kept as the
// reference its behavior and digest must match.
type refDedup struct {
	seen  map[FlowKey]struct{}
	order []FlowKey
	cap   int
}

func (c *refDedup) Seen(k FlowKey) bool {
	if _, ok := c.seen[k]; ok {
		return true
	}
	if len(c.order) >= c.cap {
		delete(c.seen, c.order[0])
		c.order = c.order[1:]
	}
	c.seen[k] = struct{}{}
	c.order = append(c.order, k)
	return false
}

func (c *refDedup) DigestState(h *digest.Hash) {
	h.Bool(true)
	h.Int(c.cap)
	h.Int(len(c.order))
	for _, k := range c.order {
		k.DigestTo(h)
	}
}

// TestDedupCacheMatchesReference drives DedupCache and the reference
// with the same seeded keys, repeats included, and checks that every
// step agrees on Seen, Contains, Len and the digest bytes: through
// every growth of the table, eviction at every ring position, and
// backward shifts over probe runs that wrap the table's end.
func TestDedupCacheMatchesReference(t *testing.T) {
	caps := []int{4096, 8192}
	for c := 1; c <= 17; c++ {
		caps = append(caps, c)
	}
	for _, capacity := range caps {
		r := rng.New(int64(capacity))
		var got DedupCache
		got.Init(capacity)
		want := &refDedup{seen: map[FlowKey]struct{}{}, cap: capacity}
		// Draw from a key space a little larger than the cache, so keys
		// repeat both inside the window and after their eviction.
		space := capacity + capacity/2 + 2
		steps := 4 * space
		for step := range steps {
			n := r.Intn(space)
			k := FlowKey{Origin: NodeID(n % 7), Kind: Kind(n % 3), Seq: uint32(n)}
			if g, w := got.Seen(k), want.Seen(k); g != w {
				t.Fatalf("cap %d step %d: Seen(%v) = %v, want %v", capacity, step, k, g, w)
			}
			probe := FlowKey{Origin: NodeID(step % 7), Kind: Kind(step % 3), Seq: uint32(step % space)}
			if _, w := want.seen[probe]; got.Contains(probe) != w {
				t.Fatalf("cap %d step %d: Contains(%v) = %v, want %v", capacity, step, probe, !w, w)
			}
			if got.Len() != len(want.order) {
				t.Fatalf("cap %d step %d: Len = %d, want %d", capacity, step, got.Len(), len(want.order))
			}
			// A digest walks the whole cache: at the large capacities,
			// take one every 61 steps and at the last.
			if capacity > 17 && step%61 != 0 && step != steps-1 {
				continue
			}
			gh, wh := digest.New(), digest.New()
			got.DigestState(&gh)
			want.DigestState(&wh)
			if gh.Sum() != wh.Sum() {
				t.Fatalf("cap %d step %d: digest differs from the reference", capacity, step)
			}
		}
	}
}

// TestDedupCacheAllocatesNothing checks that a cache warmed past its
// capacity records a hit and an evicting insert without allocating.
func TestDedupCacheAllocatesNothing(t *testing.T) {
	const capacity = 64
	var c DedupCache
	c.Init(capacity)
	seq := uint32(0)
	for ; seq < 2*capacity; seq++ {
		c.Seen(FlowKey{Origin: 3, Kind: KindFlood, Seq: seq})
	}
	hit := FlowKey{Origin: 3, Kind: KindFlood, Seq: seq - 1}
	if n := testing.AllocsPerRun(100, func() {
		if !c.Seen(hit) {
			t.Fatal("the newest key was forgotten")
		}
	}); n != 0 {
		t.Errorf("a hit allocates %.0f, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		seq++
		if c.Seen(FlowKey{Origin: 3, Kind: KindFlood, Seq: seq}) {
			t.Fatal("a new key was reported seen")
		}
	}); n != 0 {
		t.Errorf("an evicting insert allocates %.0f, want 0", n)
	}
	if c.Len() != capacity {
		t.Errorf("Len = %d, want %d", c.Len(), capacity)
	}
}
