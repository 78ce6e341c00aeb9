// Package shadow implements the classical shadow-memory access-history store
// the paper argues against (§III-B): "the access history of addresses is
// stored in a table where the index of an address is the address itself."
//
// A flat table covering the whole address range wastes enormous memory, so —
// like practical shadow-memory tools — this implementation uses a two-level
// page table: the upper address bits select a directory entry, the lower bits
// an offset within a lazily allocated page of slots. It is exact (no false
// positives or negatives) but its footprint grows with the address footprint
// of the target, which is precisely the overhead signatures avoid. It exists
// here as the comparison baseline for the store-ablation benchmark.
package shadow

import "ddprof/internal/sig"

const (
	pageBits = 16 // 64 Ki slots per page
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

type page struct {
	writes [pageSize]sig.Slot
	reads  [pageSize]sig.Slot
}

// Memory is a two-level shadow-memory store implementing sig.Store.
// The zero value is not usable; call New.
type Memory struct {
	pages map[uint64]*page
	// allocated tracks pages for Bytes accounting.
	allocated uint64
}

// New returns an empty shadow memory.
func New() *Memory {
	return &Memory{pages: make(map[uint64]*page)}
}

func (m *Memory) pageFor(addr uint64, alloc bool) *page {
	key := addr >> pageBits
	p := m.pages[key]
	if p == nil && alloc {
		p = new(page)
		m.pages[key] = p
		m.allocated++
	}
	return p
}

// LookupWrite implements sig.Store.
func (m *Memory) LookupWrite(addr uint64) (sig.Slot, bool) {
	p := m.pageFor(addr, false)
	if p == nil {
		return sig.Slot{}, false
	}
	s := p.writes[addr&pageMask]
	return s, !s.Empty()
}

// LookupRead implements sig.Store.
func (m *Memory) LookupRead(addr uint64) (sig.Slot, bool) {
	p := m.pageFor(addr, false)
	if p == nil {
		return sig.Slot{}, false
	}
	s := p.reads[addr&pageMask]
	return s, !s.Empty()
}

// SetWrite implements sig.Store.
func (m *Memory) SetWrite(addr uint64, s sig.Slot) {
	m.pageFor(addr, true).writes[addr&pageMask] = s
}

// SetRead implements sig.Store.
func (m *Memory) SetRead(addr uint64, s sig.Slot) {
	m.pageFor(addr, true).reads[addr&pageMask] = s
}

// Remove implements sig.Store.
func (m *Memory) Remove(addr uint64) {
	if p := m.pageFor(addr, false); p != nil {
		p.writes[addr&pageMask] = sig.Slot{}
		p.reads[addr&pageMask] = sig.Slot{}
	}
}

// Bytes implements sig.Store: allocated pages dominate.
func (m *Memory) Bytes() uint64 {
	const pageBytes = pageSize * 24 * 2
	return m.allocated * pageBytes
}

// ModeledBytes implements sig.Store. Shadow memory has no approximation;
// its model is its actual size.
func (m *Memory) ModeledBytes() uint64 { return m.Bytes() }

// Pages returns the number of shadow pages allocated so far.
func (m *Memory) Pages() int { return int(m.allocated) }
