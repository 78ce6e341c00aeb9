package sig

// PerfectSignature is the exact Store the paper uses as ground truth in
// §VI-A: "a table where each memory address has its own entry, so that false
// positives are never produced." It is that table: one record per word
// (addr>>3) in the signature's own layout — a write/read Pair, and the Stamps
// word behind it once KeepStamps is called — handed out as the same Cell, so
// the engine drives it through the same fused At arm. PROMPT keeps its exact
// history the same way, in an address-indexed shadow table.
//
// Records live in pages of perfectPageRecords, committed on first use and
// found through a directory over the span of pages committed so far. The
// directory grows in either direction up to perfectDirPages, twice the
// interpreter's 2 GiB arena, so every address an executor produces has its
// record in a page. Only a hand-built stream or a DDT2 peer can produce the
// rest: an unaligned address, or an aligned one whose page would stretch the
// directory past its bound. Each of those gets a record of its own in a side
// map, which keeps the store exact for every uint64 address.
type PerfectSignature struct {
	// dir[k] holds the records of page base+k, stride words each; it is nil
	// until an access is first recorded there. dir is the window
	// buf[off:off+len(dir)], and buf has room to widen it either way.
	dir    [][]uint64
	base   uint64
	buf    [][]uint64
	off    uint64
	stride uint64
	pages  uint64 // committed
	// side holds the records the directory does not reach; nil until the
	// first.
	side map[uint64]*[stampedWords]uint64
}

const (
	perfectPageShift   = 9
	perfectPageRecords = 1 << perfectPageShift // 16 KiB a page, 20 with stamps
	perfectPageMask    = perfectPageRecords - 1
	// perfectDirPages bounds the directory's span: 2^29 words, 4 GiB.
	perfectDirPages = 1 << 20
	// sideEntryBytes is what Bytes() counts for a side-map record: its key,
	// its pointer and the record.
	sideEntryBytes = 8 + 8 + stampedWords*8
)

// NewPerfectSignature returns an empty exact store. No page is committed
// until the first access is recorded.
func NewPerfectSignature() *PerfectSignature {
	return &PerfectSignature{stride: pairWords}
}

// KeepStamps makes the store keep each access's §V stamp, 32 bits of it, as
// Signature.KeepStamps does: 40 bytes a record instead of 32. It must be
// called before the first access is recorded.
func (p *PerfectSignature) KeepStamps() {
	if p.stride == stampedWords {
		return
	}
	if p.pages != 0 || p.side != nil {
		panic("sig: KeepStamps after an access was recorded")
	}
	p.stride = stampedWords
}

// At returns addr's cell, committing its record if this is the first access
// recorded there. Like Signature.At it is the whole store side of one access
// for the engine's fused arm; probes that must not commit go through Lookup*.
func (p *PerfectSignature) At(addr uint64) Cell {
	if c, ok := p.Committed(addr); ok {
		return c
	}
	return p.commit(addr)
}

// Committed is At's inlinable half: addr's record when addr is aligned and
// its page is committed, else ok is false and the caller takes At (a first
// touch, a side-map record). It commits nothing.
func (p *PerfectSignature) Committed(addr uint64) (c Cell, ok bool) {
	if k := addr>>(3+perfectPageShift) - p.base; addr&7 == 0 && k < uint64(len(p.dir)) {
		if pg := p.dir[k]; pg != nil {
			return cellAt(pg, (addr>>3&perfectPageMask)*p.stride, p.stride), true
		}
	}
	return Cell{}, false
}

// page returns the page of addr's record, or false if the directory cannot
// reach it: addr is unaligned, or its page would stretch the span past
// perfectDirPages. The span only widens, so an address the directory cannot
// reach once it never reaches.
func (p *PerfectSignature) page(addr uint64) (uint64, bool) {
	if addr&7 != 0 {
		return 0, false
	}
	pi := addr >> (3 + perfectPageShift)
	if len(p.dir) == 0 {
		return pi, true
	}
	lo, hi := min(pi, p.base), max(pi+1, p.base+uint64(len(p.dir)))
	return pi, hi-lo <= perfectDirPages
}

// find returns addr's record if one is committed.
func (p *PerfectSignature) find(addr uint64) (Cell, bool) {
	pi, ok := p.page(addr)
	if !ok {
		if rec := p.side[addr]; rec != nil {
			return cellAt(rec[:], 0, p.stride), true
		}
		return Cell{}, false
	}
	if k := pi - p.base; k < uint64(len(p.dir)) && p.dir[k] != nil {
		return cellAt(p.dir[k], (addr>>3&perfectPageMask)*p.stride, p.stride), true
	}
	return Cell{}, false
}

// commit returns addr's record, making it first if need be: in its page,
// committed and the directory widened to reach it, or in the side map.
func (p *PerfectSignature) commit(addr uint64) Cell {
	pi, ok := p.page(addr)
	if !ok {
		if p.side == nil {
			p.side = make(map[uint64]*[stampedWords]uint64)
		}
		rec := p.side[addr]
		if rec == nil {
			rec = new([stampedWords]uint64)
			p.side[addr] = rec
		}
		return cellAt(rec[:], 0, p.stride)
	}
	p.grow(pi)
	k := pi - p.base
	if p.dir[k] == nil {
		p.dir[k] = make([]uint64, perfectPageRecords*p.stride)
		p.pages++
	}
	return cellAt(p.dir[k], (addr>>3&perfectPageMask)*p.stride, p.stride)
}

// grow widens the directory to reach page pi, which page has admitted. When
// buf has no room left on that side it is reallocated at twice the new span,
// within the bound, with the spare room on the side that grew: a sweep either
// way copies the directory a logarithmic number of times.
func (p *PerfectSignature) grow(pi uint64) {
	n := uint64(len(p.dir))
	if n == 0 {
		p.buf, p.off, p.base = make([][]uint64, 1), 0, pi
		p.dir = p.buf
		return
	}
	lo, hi := min(pi, p.base), max(pi+1, p.base+n)
	if lo == p.base && hi == p.base+n {
		return
	}
	front := p.base - p.off // the page of buf[0]
	if lo < front || hi-front > uint64(len(p.buf)) {
		size := min(2*(hi-lo), perfectDirPages)
		room := uint64(0)
		if pi < p.base {
			room = min(size-(hi-lo), lo)
		}
		buf := make([][]uint64, size)
		copy(buf[room+p.base-lo:], p.dir)
		p.buf, front = buf, lo-room
	}
	p.base, p.off = lo, lo-front
	p.dir = p.buf[p.off : p.off+hi-lo]
}

// LookupWrite implements Store. It commits nothing.
func (p *PerfectSignature) LookupWrite(addr uint64) (Slot, bool) {
	c, ok := p.find(addr)
	if !ok {
		return Slot{}, false
	}
	s := c.W()
	return s, !s.Empty()
}

// LookupRead implements Store.
func (p *PerfectSignature) LookupRead(addr uint64) (Slot, bool) {
	c, ok := p.find(addr)
	if !ok {
		return Slot{}, false
	}
	s := c.R()
	return s, !s.Empty()
}

// SetWrite implements Store.
func (p *PerfectSignature) SetWrite(addr uint64, s Slot) { p.At(addr).SetW(s) }

// SetRead implements Store.
func (p *PerfectSignature) SetRead(addr uint64, s Slot) { p.At(addr).SetR(s) }

// Remove implements Store: addr's record is cleared, or dropped from the side
// map. No other address shares it.
func (p *PerfectSignature) Remove(addr uint64) {
	if _, ok := p.page(addr); !ok {
		delete(p.side, addr)
		return
	}
	if c, ok := p.find(addr); ok {
		c.SetW(Slot{})
		c.SetR(Slot{})
	}
}

// Bytes implements Store: the committed pages and the side map's records.
// The directory, 24 bytes a page of its span, is not counted.
func (p *PerfectSignature) Bytes() uint64 {
	return p.pages*perfectPageRecords*p.stride*8 + uint64(len(p.side))*sideEntryBytes
}

// ModeledBytes implements Store; exact stores have no separate model.
func (p *PerfectSignature) ModeledBytes() uint64 { return p.Bytes() }
