package exp

import (
	"ddprof/internal/core"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// The two exact stores §III-B weighs signatures against. They are the
// comparison baselines of StoreAblation and StoreAccuracy (`ddexp stores`)
// and nothing else: a profiler, the CLI and a ddprofd session take a
// signature or the perfect table (sig.OpenStore), so these are driven through
// a bare engine here.

// storeCandidate is one store of a §III-B comparison: its row label and a
// constructor of a fresh, empty instance.
type storeCandidate struct {
	name string
	open func() sig.Store
}

// drive runs a recorded stream through Algorithm 1 over st.
func drive(st sig.Store, meta *prog.Meta, evs []event.Access) *core.Engine {
	eng := core.NewEngine(st, meta, false)
	for _, a := range evs {
		eng.Process(a)
	}
	return eng
}

// shadowMemory is the classical shadow-memory store the paper argues
// against: "the access history of addresses is stored in a table where the
// index of an address is the address itself."
//
// A flat table covering the whole address range wastes enormous memory, so —
// like practical shadow-memory tools — it is a two-level page table: the upper
// address bits select a directory entry, the lower bits an offset within a
// lazily allocated page of slots. It is exact, but its footprint grows with
// the address footprint of the target, which is precisely the overhead
// signatures avoid.
type shadowMemory struct {
	pages map[uint64]*shadowPage
	// allocated tracks pages for Bytes accounting.
	allocated uint64
}

const (
	shadowPageBits = 16 // 64 Ki slots per page
	shadowPageSize = 1 << shadowPageBits
	shadowPageMask = shadowPageSize - 1
)

type shadowPage struct {
	writes [shadowPageSize]sig.Slot
	reads  [shadowPageSize]sig.Slot
}

func newShadow() *shadowMemory {
	return &shadowMemory{pages: make(map[uint64]*shadowPage)}
}

func (m *shadowMemory) pageFor(addr uint64, alloc bool) *shadowPage {
	key := addr >> shadowPageBits
	p := m.pages[key]
	if p == nil && alloc {
		p = new(shadowPage)
		m.pages[key] = p
		m.allocated++
	}
	return p
}

func (m *shadowMemory) LookupWrite(addr uint64) (sig.Slot, bool) {
	p := m.pageFor(addr, false)
	if p == nil {
		return sig.Slot{}, false
	}
	s := p.writes[addr&shadowPageMask]
	return s, !s.Empty()
}

func (m *shadowMemory) LookupRead(addr uint64) (sig.Slot, bool) {
	p := m.pageFor(addr, false)
	if p == nil {
		return sig.Slot{}, false
	}
	s := p.reads[addr&shadowPageMask]
	return s, !s.Empty()
}

func (m *shadowMemory) SetWrite(addr uint64, s sig.Slot) {
	m.pageFor(addr, true).writes[addr&shadowPageMask] = s
}

func (m *shadowMemory) SetRead(addr uint64, s sig.Slot) {
	m.pageFor(addr, true).reads[addr&shadowPageMask] = s
}

func (m *shadowMemory) Remove(addr uint64) {
	if p := m.pageFor(addr, false); p != nil {
		p.writes[addr&shadowPageMask] = sig.Slot{}
		p.reads[addr&shadowPageMask] = sig.Slot{}
	}
}

// Bytes: allocated pages dominate.
func (m *shadowMemory) Bytes() uint64 {
	const pageBytes = shadowPageSize * 24 * 2
	return m.allocated * pageBytes
}

// ModeledBytes: shadow memory has no approximation; its model is its size.
func (m *shadowMemory) ModeledBytes() uint64 { return m.Bytes() }

// hashTable is the bucketed hash-table store the paper discusses as the
// middle ground between shadow memory and signatures: exact like shadow
// memory, bounded directory like a signature, but it "incurs additional time
// overhead since when more than one address is hashed into the same bucket,
// the bucket has to be searched for the address in question." The paper
// measured it 1.5–3.7× slower than signatures; StoreAblation reproduces that
// comparison.
type hashTable struct {
	buckets []*hashEntry
	mask    uint64
	entries uint64
}

type hashEntry struct {
	addr  uint64
	write sig.Slot
	read  sig.Slot
	next  *hashEntry
}

// newHashTable returns a table of buckets rounded up to a power of two.
func newHashTable(buckets int) *hashTable {
	n := 1
	for n < buckets {
		n <<= 1
	}
	return &hashTable{buckets: make([]*hashEntry, n), mask: uint64(n - 1)}
}

func (t *hashTable) hash(addr uint64) uint64 {
	h := addr
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	return h & t.mask
}

// find walks the bucket chain — the extra work signatures avoid.
func (t *hashTable) find(addr uint64, alloc bool) *hashEntry {
	i := t.hash(addr)
	for e := t.buckets[i]; e != nil; e = e.next {
		if e.addr == addr {
			return e
		}
	}
	if !alloc {
		return nil
	}
	e := &hashEntry{addr: addr, next: t.buckets[i]}
	t.buckets[i] = e
	t.entries++
	return e
}

func (t *hashTable) LookupWrite(addr uint64) (sig.Slot, bool) {
	if e := t.find(addr, false); e != nil && !e.write.Empty() {
		return e.write, true
	}
	return sig.Slot{}, false
}

func (t *hashTable) LookupRead(addr uint64) (sig.Slot, bool) {
	if e := t.find(addr, false); e != nil && !e.read.Empty() {
		return e.read, true
	}
	return sig.Slot{}, false
}

func (t *hashTable) SetWrite(addr uint64, s sig.Slot) { t.find(addr, true).write = s }

func (t *hashTable) SetRead(addr uint64, s sig.Slot) { t.find(addr, true).read = s }

// Remove unlinks the entry, genuinely freeing its state (unlike a
// signature's, removal here is exact).
func (t *hashTable) Remove(addr uint64) {
	i := t.hash(addr)
	for pp := &t.buckets[i]; *pp != nil; pp = &(*pp).next {
		if (*pp).addr == addr {
			*pp = (*pp).next
			t.entries--
			return
		}
	}
}

// Bytes: directory plus chained entries.
func (t *hashTable) Bytes() uint64 {
	const perEntry = 8 + 24 + 24 + 8
	return uint64(len(t.buckets))*8 + t.entries*perEntry
}

// ModeledBytes: exact stores have no separate model.
func (t *hashTable) ModeledBytes() uint64 { return t.Bytes() }
