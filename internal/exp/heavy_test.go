package exp

import (
	"math/rand"
	"testing"
)

func TestHeavySketchOfferAndLen(t *testing.T) {
	h := newHeavySketch(16)
	if len(h.addrs) != 0 {
		t.Fatalf("fresh sketch Len = %d, want 0", len(h.addrs))
	}
	for i := 0; i < 10; i++ {
		h.Offer(uint64(i) * 8)
	}
	if len(h.addrs) != 10 {
		t.Fatalf("Len = %d, want 10 (under capacity, no eviction)", len(h.addrs))
	}
	// Re-offering tracked addresses must not grow the sketch.
	for i := 0; i < 10; i++ {
		h.Offer(uint64(i) * 8)
	}
	if len(h.addrs) != 10 {
		t.Fatalf("Len after re-offers = %d, want 10", len(h.addrs))
	}
}

func TestHeavySketchTopOrdering(t *testing.T) {
	h := newHeavySketch(16)
	// addr 0x10 x5, 0x20 x3, 0x30 x1.
	for i := 0; i < 5; i++ {
		h.Offer(0x10)
	}
	for i := 0; i < 3; i++ {
		h.Offer(0x20)
	}
	h.Offer(0x30)
	top := h.Top(3)
	want := []uint64{0x10, 0x20, 0x30}
	for i, a := range want {
		if top[i] != a {
			t.Fatalf("Top = %#x, want %#x (descending by count)", top, want)
		}
	}
	// n larger than the tracked set clamps.
	if got := h.Top(100); len(got) != 3 {
		t.Fatalf("Top(100) returned %d entries, want 3", len(got))
	}
	// Ties break by ascending address for determinism.
	h2 := newHeavySketch(16)
	h2.Offer(0xBB)
	h2.Offer(0xAA)
	tied := h2.Top(2)
	if tied[0] != 0xAA || tied[1] != 0xBB {
		t.Fatalf("tie order = %#x, want [0xAA 0xBB]", tied)
	}
}

func TestHeavySketchEvictionInheritsMinCount(t *testing.T) {
	h := newHeavySketch(16)
	// Fill to capacity: one hot address, 15 singletons.
	for i := 0; i < 10; i++ {
		h.Offer(0x1000)
	}
	for i := 1; i < 16; i++ {
		h.Offer(uint64(i) * 8)
	}
	if len(h.addrs) != 16 {
		t.Fatalf("Len = %d, want 16 (at capacity)", len(h.addrs))
	}
	// A new address evicts a minimum-count entry (count 1) and inherits its
	// count: the SpaceSaving overestimate, 1+1 = 2.
	h.Offer(0x2000)
	if len(h.addrs) != 16 {
		t.Fatalf("Len after eviction = %d, want 16 (capacity bound)", len(h.addrs))
	}
	i, ok := h.idx[0x2000]
	if !ok {
		t.Fatal("newly offered address not tracked after eviction")
	}
	if h.counts[i] != 2 {
		t.Fatalf("inherited count = %d, want 2 (min 1 + this offer)", h.counts[i])
	}
	// The hot address must have survived the eviction.
	if _, ok := h.idx[0x1000]; !ok {
		t.Fatal("heavy address evicted in favour of a singleton")
	}
}

// TestHeavySketchHeavyHitterProperty checks the SpaceSaving guarantee
// the §IV-A ablation relies on: an address taking a large fraction of the
// stream (far above 1/capacity) always surfaces in Top(k), regardless of how
// much singleton noise surrounds it.
func TestHeavySketchHeavyHitterProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		h := newHeavySketch(64)
		const streamLen = 20000
		heavy := uint64(0xFEED0000) + uint64(trial)*8
		for i := 0; i < streamLen; i++ {
			if rng.Intn(100) < 30 { // 30% of the stream
				h.Offer(heavy)
			} else {
				h.Offer(rng.Uint64() &^ 7) // singleton noise
			}
		}
		found := false
		for _, a := range h.Top(10) {
			if a == heavy {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("trial %d: heavy address %#x missing from Top(10)", trial, heavy)
		}
	}
}

func TestHeavySketch(t *testing.T) {
	h := newHeavySketch(16)
	for i := 0; i < 1000; i++ {
		h.Offer(0xAA) // dominant
		if i%10 == 0 {
			h.Offer(0xBB)
		}
		h.Offer(uint64(i) * 7919) // noise
	}
	top := h.Top(2)
	if len(top) != 2 || top[0] != 0xAA {
		t.Errorf("Top = %v, want 0xAA first", top)
	}
	if got := h.Top(1000); len(got) > 16 {
		t.Errorf("Top returned more than capacity: %d", len(got))
	}
	empty := newHeavySketch(4)
	if len(empty.Top(10)) != 0 {
		t.Error("empty sketch Top should be empty")
	}
}
