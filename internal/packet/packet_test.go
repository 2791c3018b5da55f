package packet

import (
	"testing"
	"testing/quick"
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
