package exp

import (
	"testing"
	"testing/quick"

	"ddprof/internal/loc"
	"ddprof/internal/sig"
)

var (
	_ sig.Store = (*shadowMemory)(nil)
	_ sig.Store = (*hashTable)(nil)
)

func slot(line int) sig.Slot {
	return sig.PackSlot(loc.Pack(1, line), 0, 0, 0, 0, 0)
}

func TestShadowBasicOps(t *testing.T) {
	m := newShadow()
	if _, ok := m.LookupWrite(0x1234); ok {
		t.Fatal("fresh shadow memory has entries")
	}
	m.SetWrite(0x1234, slot(10))
	m.SetRead(0x1234, slot(20))
	w, ok := m.LookupWrite(0x1234)
	if !ok || w.Loc().Line() != 10 {
		t.Fatal("write lookup failed")
	}
	r, ok := m.LookupRead(0x1234)
	if !ok || r.Loc().Line() != 20 {
		t.Fatal("read lookup failed")
	}
	m.Remove(0x1234)
	if _, ok := m.LookupWrite(0x1234); ok {
		t.Fatal("write survives Remove")
	}
	if _, ok := m.LookupRead(0x1234); ok {
		t.Fatal("read survives Remove")
	}
}

func TestShadowExactness(t *testing.T) {
	// Shadow memory must never confuse two addresses, however many are used.
	m := newShadow()
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.SetWrite(i*8, slot(int(i%1000)+1))
	}
	for i := uint64(0); i < n; i++ {
		s, ok := m.LookupWrite(i * 8)
		if !ok {
			t.Fatalf("address %#x lost", i*8)
		}
		if s.Loc().Line() != int(i%1000)+1 {
			t.Fatalf("address %#x returned wrong record", i*8)
		}
	}
	// Untouched addresses must miss.
	if _, ok := m.LookupWrite(n*8 + 4); ok {
		t.Error("false positive in shadow memory")
	}
}

func TestShadowPageGrowth(t *testing.T) {
	m := newShadow()
	m.SetWrite(0, slot(1))
	if m.allocated != 1 {
		t.Fatalf("Pages = %d, want 1", m.allocated)
	}
	b1 := m.Bytes()
	if b1 == 0 {
		t.Fatal("Bytes = 0 after allocation")
	}
	// Same page: no growth.
	m.SetWrite(shadowPageSize-1, slot(2))
	if m.allocated != 1 {
		t.Fatal("write within page allocated a new page")
	}
	// Far address: new page. This is the footprint problem signatures solve:
	// memory grows with the address range actually touched.
	m.SetWrite(1<<40, slot(3))
	if m.allocated != 2 {
		t.Fatalf("Pages = %d, want 2", m.allocated)
	}
	if m.Bytes() != 2*b1 {
		t.Errorf("Bytes = %d, want %d", m.Bytes(), 2*b1)
	}
	if m.ModeledBytes() != m.Bytes() {
		t.Error("exact store model must equal actual bytes")
	}
}

func TestShadowRemoveMissingAddress(t *testing.T) {
	m := newShadow()
	m.Remove(0xDEAD) // must not allocate or panic
	if m.allocated != 0 {
		t.Error("Remove allocated a page")
	}
}

func TestHashtabBasicOps(t *testing.T) {
	h := newHashTable(64)
	if _, ok := h.LookupWrite(1); ok {
		t.Fatal("fresh table has entries")
	}
	h.SetWrite(1, slot(10))
	h.SetRead(1, slot(20))
	if w, ok := h.LookupWrite(1); !ok || w.Loc().Line() != 10 {
		t.Fatal("write lookup failed")
	}
	if r, ok := h.LookupRead(1); !ok || r.Loc().Line() != 20 {
		t.Fatal("read lookup failed")
	}
	if h.entries != 1 {
		t.Fatalf("Entries = %d, want 1 (read+write share an entry)", h.entries)
	}
	h.Remove(1)
	if _, ok := h.LookupWrite(1); ok {
		t.Fatal("entry survives Remove")
	}
	if h.entries != 0 {
		t.Fatal("Entries != 0 after Remove")
	}
}

func TestHashtabChainingExactness(t *testing.T) {
	// Tiny directory forces long chains; lookups must still be exact.
	h := newHashTable(4)
	const n = 500
	for i := uint64(0); i < n; i++ {
		h.SetWrite(i*8, slot(int(i)+1))
	}
	if h.entries != n {
		t.Fatalf("Entries = %d, want %d", h.entries, n)
	}
	for i := uint64(0); i < n; i++ {
		s, ok := h.LookupWrite(i * 8)
		if !ok || s.Loc().Line() != int(i)+1 {
			t.Fatalf("chained entry %d wrong", i)
		}
	}
	if _, ok := h.LookupWrite(n * 8); ok {
		t.Error("false positive in hash table")
	}
}

func TestHashtabRemoveFromChainMiddle(t *testing.T) {
	h := newHashTable(1) // single bucket: everything chains
	h.SetWrite(1, slot(1))
	h.SetWrite(2, slot(2))
	h.SetWrite(3, slot(3))
	h.Remove(2)
	if _, ok := h.LookupWrite(2); ok {
		t.Fatal("removed entry still found")
	}
	for _, a := range []uint64{1, 3} {
		if s, ok := h.LookupWrite(a); !ok || s.Loc().Line() != int(a) {
			t.Fatalf("neighbour %d damaged by removal", a)
		}
	}
	h.Remove(99) // absent: no panic, no change
	if h.entries != 2 {
		t.Fatalf("Entries = %d, want 2", h.entries)
	}
}

func TestHashtabBucketRounding(t *testing.T) {
	h := newHashTable(100)
	if len(h.buckets) != 128 {
		t.Errorf("buckets = %d, want next power of two 128", len(h.buckets))
	}
}

func TestHashtabBytesGrow(t *testing.T) {
	h := newHashTable(16)
	b0 := h.Bytes()
	h.SetWrite(1, slot(1))
	if h.Bytes() <= b0 {
		t.Error("Bytes did not grow with an entry")
	}
	if h.ModeledBytes() != h.Bytes() {
		t.Error("exact store model must equal actual bytes")
	}
}

func TestHashtabSetReadAndWriteSameEntry(t *testing.T) {
	f := func(addr uint64, wl, rl uint16) bool {
		h := newHashTable(32)
		h.SetWrite(addr, slot(int(wl)+1))
		h.SetRead(addr, slot(int(rl)+1))
		w, okw := h.LookupWrite(addr)
		r, okr := h.LookupRead(addr)
		return okw && okr && w.Loc().Line() == int(wl)+1 && r.Loc().Line() == int(rl)+1 && h.entries == 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
