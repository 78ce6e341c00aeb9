package sig

import (
	"math/rand"
	"testing"

	"ddprof/internal/loc"
)

// mapStore is the exact store as two Go maps, one entry per address and
// side: what PerfectSignature was before it became a paged table, kept as the
// oracle the table is held to. It keeps a slot's stamp whole.
type mapStore struct{ writes, reads map[uint64]Slot }

func newMapStore() *mapStore {
	return &mapStore{writes: make(map[uint64]Slot), reads: make(map[uint64]Slot)}
}

func (m *mapStore) LookupWrite(addr uint64) (Slot, bool) { s, ok := m.writes[addr]; return s, ok }
func (m *mapStore) LookupRead(addr uint64) (Slot, bool)  { s, ok := m.reads[addr]; return s, ok }
func (m *mapStore) SetWrite(addr uint64, s Slot)         { m.writes[addr] = s }
func (m *mapStore) SetRead(addr uint64, s Slot)          { m.reads[addr] = s }
func (m *mapStore) Remove(addr uint64) {
	delete(m.writes, addr)
	delete(m.reads, addr)
}

// kept is what a table keeps of s: the stamp's 32 bits with stamps, none
// without.
func kept(s Slot, stamps bool) Slot {
	s.TS = uint64(uint32(s.TS))
	if !stamps {
		s.TS = 0
	}
	return s
}

// agree fails t unless p answers both lookups at addr as the oracle does.
func agree(t *testing.T, p *PerfectSignature, o *mapStore, addr uint64, stamps bool) {
	t.Helper()
	pw, pwok := p.LookupWrite(addr)
	ow, owok := o.LookupWrite(addr)
	pr, prok := p.LookupRead(addr)
	or, orok := o.LookupRead(addr)
	if pw != kept(ow, stamps) || pwok != owok || pr != kept(or, stamps) || prok != orok {
		t.Fatalf("at %#x (stamps %v): table holds W %+v/%v R %+v/%v, oracle %+v/%v %+v/%v",
			addr, stamps, pw, pwok, pr, prok, ow, owok, or, orok)
	}
}

// checkFootprint fails t unless the directory is within its bound and agrees
// with the page count, and Bytes() is the committed pages and side records.
func checkFootprint(t *testing.T, p *PerfectSignature) {
	t.Helper()
	if len(p.dir) > perfectDirPages || len(p.buf) > perfectDirPages {
		t.Fatalf("directory spans %d pages in %d entries, bound %d", len(p.dir), len(p.buf), perfectDirPages)
	}
	pages := uint64(0)
	for _, pg := range p.dir {
		if pg != nil {
			pages++
		}
	}
	pageBytes := uint64(perfectPageRecords) * p.stride * 8
	if want := pages*pageBytes + uint64(len(p.side))*sideEntryBytes; pages != p.pages || p.Bytes() != want {
		t.Fatalf("Bytes() = %d with %d pages counted; the directory holds %d pages of %d bytes and the side map %d records: %d",
			p.Bytes(), p.pages, pages, pageBytes, len(p.side), want)
	}
}

// perfectAddr decodes three fuzz bytes into an address of one of eight
// classes: aligned words in a 128-page window, unaligned ones, words reaching
// 8192 pages below the window, words near 0, words just past the directory's
// bound above the window, the top of the address space, and anywhere at all.
func perfectAddr(b []byte) uint64 {
	const window = 0x10000000
	k, off := uint64(b[1])|uint64(b[2])<<8, uint64(b[0]>>3)
	switch b[0] & 7 {
	case 0, 1:
		return window + 8*k
	case 2:
		return window + 8*k + (off&7 | 1)
	case 3:
		return window - 8*(k<<6) - 8*off
	case 4:
		return 8*k + 8*off
	case 5:
		return window + 8*perfectDirPages*perfectPageRecords + 8*k
	case 6:
		return ^uint64(7) - 8*k
	default:
		return k<<48 | off<<40 | k<<3
	}
}

// FuzzPerfectStore holds the paged table to the two-map oracle. flags bit 0
// makes the table keep stamps; ops is four bytes an operation: what to do,
// then perfectAddr's three. After every operation the table answers both
// lookups at its address as the oracle does — Meta and Iter, and the stamp's
// 32 bits when kept — and at the end every touched address agrees, the
// directory is within its bound and Bytes() is what is committed.
func FuzzPerfectStore(f *testing.F) {
	f.Add(byte(0), []byte{0, 0, 0, 0, 1, 0, 0, 0, 6, 0, 0, 0, 4, 0, 0, 0, 6, 0, 0, 0})
	f.Add(byte(1), []byte{0, 8, 1, 0, 1, 3, 2, 0, 2, 2, 1, 0, 3, 4, 5, 0, 4, 2, 1, 0, 6, 2, 1, 0})
	f.Add(byte(1), []byte{0, 0, 0, 2, 0, 3, 0, 1, 1, 3, 255, 255, 5, 4, 0, 0, 0, 5, 7, 0, 2, 6, 0, 0, 4, 5, 7, 0, 6, 5, 7, 0})
	f.Add(byte(0), []byte{0, 7, 1, 1, 3, 7, 2, 3, 2, 6, 9, 0, 5, 0, 0, 2, 4, 7, 1, 1, 6, 7, 1, 1})
	f.Fuzz(func(t *testing.T, flags byte, ops []byte) {
		stamps := flags&1 != 0
		p, o := NewPerfectSignature(), newMapStore()
		if stamps {
			p.KeepStamps()
		}
		touched := map[uint64]bool{}
		for n := 1; len(ops) >= 4; n, ops = n+1, ops[4:] {
			addr := perfectAddr(ops[1:4])
			touched[addr] = true
			s := PackSlot(loc.Pack(1, n), 0, int32(n), uint32(n), uint64(n)*0x9E3779B97F4A7C15, uint64(n)*0xD1B54A32D192ED03)
			if ops[0]&0x80 != 0 {
				s = s.WithReduction()
			}
			switch ops[0] % 7 {
			case 0:
				p.SetWrite(addr, s)
				o.SetWrite(addr, s)
			case 1:
				p.SetRead(addr, s)
				o.SetRead(addr, s)
			case 2:
				p.At(addr).SetW(s)
				o.SetWrite(addr, s)
			case 3:
				p.At(addr).SetR(s)
				o.SetRead(addr, s)
			case 4:
				p.Remove(addr)
				o.Remove(addr)
			case 5:
				// A committed record reads back as the lookups do.
				c := p.At(addr)
				ow, _ := o.LookupWrite(addr)
				or, _ := o.LookupRead(addr)
				if c.W() != kept(ow, stamps) || c.R() != kept(or, stamps) {
					t.Fatalf("op %d: At(%#x) holds %+v / %+v, oracle %+v / %+v", n, addr, c.W(), c.R(), ow, or)
				}
			}
			agree(t, p, o, addr, stamps)
		}
		for addr := range touched {
			agree(t, p, o, addr, stamps)
		}
		checkFootprint(t, p)
	})
}

// TestPerfectStoreFootprint drives the table with the streams a hostile or
// unlucky peer could send: one word in each of many pages, swept up and then
// down, and words spread over the whole 64-bit range, unaligned ones too.
// Nothing panics, every lookup agrees with the oracle, the directory stays
// within its bound and Bytes() is the committed pages plus the side records.
func TestPerfectStoreFootprint(t *testing.T) {
	const pageSpan = perfectPageRecords * 8 // bytes of address one page covers
	for _, stamps := range []bool{false, true} {
		p, o := NewPerfectSignature(), newMapStore()
		if stamps {
			p.KeepStamps()
		}
		s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 1, 7)
		const base, n = 0x40000000, 3000
		for i := uint64(0); i < n; i++ {
			addr := base + i*pageSpan + 8*(i%perfectPageRecords)
			p.SetWrite(addr, s)
			o.SetWrite(addr, s)
		}
		for i := uint64(1); i <= n; i++ {
			addr := base - i*pageSpan
			p.At(addr).SetR(s)
			o.SetRead(addr, s)
		}
		checkFootprint(t, p)
		if p.pages != 2*n || p.side != nil {
			t.Fatalf("stamps %v: %d words one a page committed %d pages and %d side records", stamps, 2*n, p.pages, len(p.side))
		}
		if len(p.buf) > 4*len(p.dir) {
			t.Errorf("stamps %v: a directory spanning %d pages holds %d entries", stamps, len(p.dir), len(p.buf))
		}

		rng := rand.New(rand.NewSource(1))
		addrs := []uint64{0, 8, ^uint64(0), ^uint64(7), 1 << 63, 1<<63 - 8}
		for i := 0; i < 20000; i++ {
			addrs = append(addrs, rng.Uint64(), rng.Uint64()&^7, uint64(i)<<51)
		}
		for i, addr := range addrs {
			s := PackSlot(loc.Pack(1, i%1000+1), 0, int32(i), uint32(i), uint64(i), rng.Uint64())
			switch i % 4 {
			case 0:
				p.SetWrite(addr, s)
				o.SetWrite(addr, s)
			case 1:
				p.At(addr).SetR(s)
				o.SetRead(addr, s)
			case 2:
				p.Remove(addr)
				o.Remove(addr)
			}
		}
		for _, addr := range addrs {
			agree(t, p, o, addr, stamps)
		}
		checkFootprint(t, p)
		if len(p.side) == 0 {
			t.Errorf("stamps %v: words over the 64-bit range left the side map empty", stamps)
		}
	}
}

// TestPerfectStoreLayout: a page is below Go's 32 KiB large-object size with
// or without stamps, the aligned words of an executor's arena never reach the
// side map, and the table commits on recorded accesses only.
func TestPerfectStoreLayout(t *testing.T) {
	if b := perfectPageRecords * stampedWords * 8; b > 32<<10 {
		t.Fatalf("a stamped page is %d bytes", b)
	}
	p := NewPerfectSignature()
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	// The arena's first and last words, 2 GiB apart, and a word between.
	for _, addr := range []uint64{0x10000000 + 1<<30, 0x10000000, 0x10000000 + 2<<30 - 8} {
		before := p.Bytes()
		if _, ok := p.LookupWrite(addr); ok {
			t.Fatalf("%#x: a probe found a write", addr)
		}
		if p.Remove(addr); p.Bytes() != before {
			t.Fatalf("%#x: a probe and a Remove committed %d bytes", addr, p.Bytes()-before)
		}
		p.SetWrite(addr, s)
		if w, ok := p.LookupWrite(addr); !ok || w != s {
			t.Fatalf("%#x: write reads back as %+v/%v", addr, w, ok)
		}
	}
	if p.side != nil || p.pages != 3 {
		t.Fatalf("three arena words: %d pages, side map %v", p.pages, p.side)
	}
	checkFootprint(t, p)
}

// TestPerfectKeepStampsAfterAccessPanics: the record width is fixed before
// the first access, as on a signature; a probe is not an access.
func TestPerfectKeepStampsAfterAccessPanics(t *testing.T) {
	for name, first := range map[string]func(*PerfectSignature){
		"a paged write":  func(p *PerfectSignature) { p.SetWrite(0x1000, PackSlot(0, 0, 0, 0, 0, 0)) },
		"a side-map At":  func(p *PerfectSignature) { p.At(0x1001) },
		"a removed read": func(p *PerfectSignature) { p.SetRead(3, PackSlot(0, 0, 0, 0, 0, 0)); p.Remove(3) },
	} {
		p := NewPerfectSignature()
		p.LookupWrite(0x1000)
		p.Remove(0x1000)
		p.KeepStamps() // nothing recorded yet
		p.KeepStamps() // idempotent
		q := NewPerfectSignature()
		first(q)
		func() {
			defer func() {
				if r := recover(); r != "sig: KeepStamps after an access was recorded" {
					t.Errorf("KeepStamps after %s: panic %v", name, r)
				}
			}()
			q.KeepStamps()
		}()
	}
}
