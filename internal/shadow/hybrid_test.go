package shadow

import (
	"math/rand"
	"testing"

	"ddprof/internal/loc"
	"ddprof/internal/sig"
)

func hslot(line int, ts uint64) sig.Slot {
	return sig.PackSlot(loc.Pack(1, line), 1, 0, 0, 0, ts)
}

// TestHybridUnboundedMatchesShadow: with a zero exactness budget the hybrid
// is all exact tier, so a random op sequence must read back identically to
// shadow memory.
func TestHybridUnboundedMatchesShadow(t *testing.T) {
	h := NewHybrid(1<<10, 0, 8, 64)
	m := New()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(4096)) * 8
		s := hslot(rng.Intn(100), uint64(i+1))
		switch rng.Intn(5) {
		case 0:
			h.SetWrite(addr, s)
			m.SetWrite(addr, s)
		case 1:
			h.SetRead(addr, s)
			m.SetRead(addr, s)
		case 2:
			h.Remove(addr)
			m.Remove(addr)
		case 3:
			hw, hok := h.LookupWrite(addr)
			mw, mok := m.LookupWrite(addr)
			if hok != mok || hw != mw {
				t.Fatalf("op %d: LookupWrite(%#x) = %v,%v vs shadow %v,%v", i, addr, hw, hok, mw, mok)
			}
		default:
			hr, hok := h.LookupRead(addr)
			mr, mok := m.LookupRead(addr)
			if hok != mok || hr != mr {
				t.Fatalf("op %d: LookupRead(%#x) = %v,%v vs shadow %v,%v", i, addr, hr, hok, mr, mok)
			}
		}
	}
}

// TestHybridPromotionThreshold: a tail address self-promotes only once the
// worker-local sketch has seen it promoteAfter times.
func TestHybridPromotionThreshold(t *testing.T) {
	h := NewHybrid(1<<10, 4, 4, 64)
	const addr = 0x1000
	for i := 1; i <= 3; i++ {
		h.SetWrite(addr, hslot(1, uint64(i)))
		if h.ExactResident() != 0 {
			t.Fatalf("promoted after %d accesses, threshold is 4", i)
		}
	}
	h.SetWrite(addr, hslot(1, 4))
	if h.ExactResident() != 1 {
		t.Fatal("not promoted at threshold")
	}
	// The state written while in the tail was carried across.
	if s, ok := h.LookupWrite(addr); !ok || s != hslot(1, 4) {
		t.Fatalf("exact tier lost the adopted state: %v, %v", s, ok)
	}
}

// TestHybridPromoteCarriesTailState: an externally seeded promotion (the
// producer's sig.Promoter path) adopts whatever history the tail holds, so
// reordered Promote events cannot drop accesses.
func TestHybridPromoteCarriesTailState(t *testing.T) {
	h := NewHybrid(1<<10, 4, 8, 64)
	const addr = 0x2000
	w, r := hslot(3, 1), hslot(4, 2)
	h.SetWrite(addr, w)
	h.SetRead(addr, r)
	if h.ExactResident() != 0 {
		t.Fatal("address promoted before the seed")
	}
	h.Promote(addr)
	if h.ExactResident() != 1 {
		t.Fatal("seed did not promote")
	}
	if s, ok := h.LookupWrite(addr); !ok || s != w {
		t.Fatalf("write state lost in promotion: %v, %v", s, ok)
	}
	if s, ok := h.LookupRead(addr); !ok || s != r {
		t.Fatalf("read state lost in promotion: %v, %v", s, ok)
	}
	// Promoting a resident is a no-op.
	h.Promote(addr)
	if h.ExactResident() != 1 {
		t.Fatal("double promotion changed residency")
	}
}

// TestHybridEvictionHysteresis: with the exact tier full, a tail candidate
// displaces a resident only when it is strictly hotter; a forced Promote
// evicts unconditionally. The evicted resident's exact state is written back
// to the tail, not dropped.
func TestHybridEvictionHysteresis(t *testing.T) {
	h := NewHybrid(1<<10, 1, 4, 64)
	const a, b = 0x1000, 0x9000
	var ts uint64
	stamp := func() uint64 { ts++; return ts }
	// Heat up a: promoted at the 4th set, then 6 more exact sets.
	for i := 0; i < 10; i++ {
		h.SetWrite(a, hslot(1, stamp()))
	}
	if h.ExactResident() != 1 {
		t.Fatal("a not resident")
	}
	aLast := hslot(1, ts)
	// b reaches the threshold but stays colder than a: no eviction.
	for i := 0; i < 6; i++ {
		h.SetWrite(b, hslot(2, stamp()))
	}
	if _, _, res := h.exactSlot(b); res {
		t.Fatal("colder candidate evicted a hotter resident")
	}
	// Keep hammering b until it is strictly hotter than a's settled count.
	for i := 0; i < 10; i++ {
		h.SetWrite(b, hslot(2, stamp()))
	}
	if _, _, res := h.exactSlot(b); !res {
		t.Fatal("hotter candidate never evicted the cold resident")
	}
	if h.ExactResident() != 1 {
		t.Fatalf("resident count = %d, budget is 1", h.ExactResident())
	}
	// a's exact history survived in the tail (no colliding addresses here).
	if s, ok := h.LookupWrite(a); !ok || s != aLast {
		t.Fatalf("evicted state not written back: %v, %v", s, ok)
	}
	// A forced seed promotes even without a hotter count.
	h.Promote(a)
	if _, _, res := h.exactSlot(a); !res {
		t.Fatal("forced Promote did not evict")
	}
}

// TestHybridBudgetEnforced: residency never exceeds the budget and the exact
// tier's byte accounting stays within the page bound implied by it.
func TestHybridBudgetEnforced(t *testing.T) {
	const budget = 16
	h := NewHybrid(1<<12, budget, 2, 128)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		// Addresses spread over distinct pages so each resident costs a page.
		addr := uint64(rng.Intn(1024)) << hpageBits
		h.SetWrite(addr, hslot(1, uint64(i+1)))
		if r := h.ExactResident(); r > budget {
			t.Fatalf("op %d: %d residents over budget %d", i, r, budget)
		}
	}
	exact, tail := h.TierBytes()
	// Each resident occupies at most one page; sketch and counter overhead
	// are bounded by their capacities.
	maxExact := uint64(budget)*hpageBytes + 128*32 + uint64(budget)*16
	if exact > maxExact {
		t.Errorf("exact tier %d bytes, bound %d", exact, maxExact)
	}
	if tail == 0 {
		t.Error("tail accounting missing")
	}
	if h.Bytes() != exact+tail {
		t.Errorf("Bytes() = %d, want %d", h.Bytes(), exact+tail)
	}
}

// TestHybridRemoveFreesPages: removing the last resident of a page frees it
// and the accounting follows.
func TestHybridRemoveFreesPages(t *testing.T) {
	h := NewHybrid(1<<10, 8, 1, 64)
	const addr = 0x4000
	h.SetWrite(addr, hslot(1, 1)) // promoteAfter=1: resident immediately
	if h.ExactResident() != 1 || h.allocated != 1 {
		t.Fatalf("resident=%d pages=%d after promote", h.ExactResident(), h.allocated)
	}
	h.Remove(addr)
	if h.ExactResident() != 0 || h.allocated != 0 {
		t.Fatalf("resident=%d pages=%d after Remove", h.ExactResident(), h.allocated)
	}
	if s, ok := h.LookupWrite(addr); ok {
		t.Fatalf("removed address still present: %v", s)
	}
}

// TestHybridTieredInterface: the store satisfies the registry's optional
// interfaces the pipeline relies on.
func TestHybridTieredInterface(t *testing.T) {
	var st sig.Store = NewHybrid(1<<10, 4, 4, 64)
	if _, ok := st.(sig.Tiered); !ok {
		t.Error("Hybrid does not implement sig.Tiered")
	}
	if _, ok := st.(sig.Promoter); !ok {
		t.Error("Hybrid does not implement sig.Promoter")
	}
	if _, ok := st.(sig.Tracker); !ok {
		t.Error("Hybrid does not implement sig.Tracker")
	}
}
