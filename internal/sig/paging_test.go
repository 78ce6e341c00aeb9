package sig

import (
	"math/rand"
	"testing"
	"unsafe"

	"ddprof/internal/loc"
)

// committed counts the pages a signature has committed and the pairs they
// hold.
func committed(g *Signature) (pages, pairs int) {
	for _, pg := range g.pages {
		if pg != nil {
			pages++
			pairs += int(g.indices(pg))
		}
	}
	return
}

// TestSignatureCommitsOnWriteOnly: the table is paged in by recorded
// accesses alone. Probes, removals and the whole-table scans see empty slots
// on an uncommitted page and leave it uncommitted.
func TestSignatureCommitsOnWriteOnly(t *testing.T) {
	g := NewSignature(1 << 21)
	if pages, _ := committed(g); pages != 0 {
		t.Fatalf("fresh signature has %d committed pages", pages)
	}
	other := NewSignature(1 << 21)
	for i := uint64(0); i < 1<<21; i += 1000 {
		addr := 0x7000 + 8*i
		if _, ok := g.LookupWrite(addr); ok {
			t.Fatalf("fresh signature has a write at %#x", addr)
		}
		if _, ok := g.LookupRead(addr); ok {
			t.Fatalf("fresh signature has a read at %#x", addr)
		}
		g.Remove(addr)
	}
	if g.Occupancy() != 0 || g.Intersect(other) != 0 {
		t.Fatal("fresh signature is not empty")
	}
	if pages, _ := committed(g); pages != 0 {
		t.Fatalf("Lookup/Remove/Occupancy/Intersect committed %d pages", pages)
	}

	// seq-serial's footprint: 34 k contiguous words, half through the Store
	// methods and half through the fused probe.
	s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
	const words = 34000
	for i := uint64(0); i < words; i++ {
		addr := 0x7008 + 8*i
		switch i % 3 {
		case 0:
			g.SetWrite(addr, s)
		case 1:
			g.SetRead(addr, s)
		default:
			g.At(addr).SetW(s)
		}
	}
	pages, _ := committed(g)
	if pages == 0 || pages > 10 {
		t.Fatalf("%d contiguous words committed %d pages, want 1..10", words, pages)
	}
	if g.Bytes() != (1<<21)*pairBytes {
		t.Fatalf("Bytes() = %d: must stay the configured budget", g.Bytes())
	}
	g.Remove(0x7008)
	g.Remove(0x7008 + 8*(1<<20))
	if g.Intersect(other) != 0 || g.Occupancy() == 0 {
		t.Fatal("scan results wrong after fill")
	}
	if after, _ := committed(g); after != pages {
		t.Fatalf("probes after the fill moved committed pages %d -> %d", pages, after)
	}
	if op, _ := committed(other); op != 0 {
		t.Fatalf("Intersect committed %d pages in its argument", op)
	}
}

// TestSignatureNeverExceedsSlots: the last page is cut to the slot count held
// — the configured one, or one of w workers' share of it — so a fully touched
// signature holds exactly its slots and exactly Bytes() of memory, with
// stamps or without.
func TestSignatureNeverExceedsSlots(t *testing.T) {
	for _, stamps := range []bool{false, true} {
		for _, tc := range []struct{ slots, w, held int }{
			{1, 1, 1}, {2, 1, 2}, {1000, 1, 1000}, {4096, 1, 4096}, {4097, 1, 4097}, {10000, 1, 10000},
			{2, 2, 1}, {8194, 2, 4097}, {10000, 16, 625}, {10000, 3, 10000}, {12291, 3, 4097},
		} {
			g := NewSignature(tc.slots)
			g.Shard(tc.w)
			if stamps {
				g.KeepStamps()
			}
			s := PackSlot(loc.Pack(1, 1), 0, 0, 0, 0, 0)
			// Every word of the last residue class, three times around.
			for i := 0; i < 3*tc.slots; i++ {
				addr := 8 * uint64(i*tc.w+tc.w-1)
				g.SetWrite(addr, s)
				g.At(addr).SetR(s)
			}
			if _, pairs := committed(g); pairs != tc.held {
				t.Errorf("%d slots, one of %d: %d pairs committed after touching every index, want %d", tc.slots, tc.w, pairs, tc.held)
			}
			var held uint64
			for _, pg := range g.pages {
				held += uint64(len(pg)) * uint64(unsafe.Sizeof(pg[0]))
			}
			if held != g.Bytes() {
				t.Errorf("%d slots, one of %d, stamps %v: pages hold %d bytes, Bytes() = %d", tc.slots, tc.w, stamps, held, g.Bytes())
			}
			if g.Occupancy() != 1 {
				t.Errorf("%d slots, one of %d: occupancy %v after touching every index", tc.slots, tc.w, g.Occupancy())
			}
		}
	}
}

// TestPairNeverStraddlesALine: a 32-byte pair on a 32-byte-aligned page is
// half a cache line, so one access touches one line. The alignment is the
// allocator's (size classes that are multiples of 32, page-aligned large
// objects), not the language's: this is where a runtime that changed it
// would show.
func TestPairNeverStraddlesALine(t *testing.T) {
	for _, slots := range []int{1, 2, 3, 5, 33, 1000, 4096, 4097, 10000} {
		g := NewSignature(slots)
		for i := uint64(0); i < uint64(slots); i++ {
			c := g.At(8 * i)
			if c.ts != nil {
				t.Fatal("a signature nobody asked keeps stamps")
			}
			if off := uintptr(unsafe.Pointer(c.p)) % 64; off+unsafe.Sizeof(*c.p) > 64 {
				t.Fatalf("%d slots: pair %d sits at line offset %d", slots, i, off)
			}
		}
		if base := uintptr(unsafe.Pointer(&g.pages[0][0])); len(g.pages) > 1 && base%64 != 0 {
			t.Errorf("%d slots: full page based at %#x, not line-aligned", slots, base)
		}
	}
	// With stamps the record is 40 bytes: pair and stamp word stay contiguous.
	g := NewSignature(100)
	g.KeepStamps()
	for i := uint64(0); i < 100; i++ {
		c := g.At(8 * i)
		if uintptr(unsafe.Pointer(c.ts)) != uintptr(unsafe.Pointer(c.p))+unsafe.Sizeof(*c.p) {
			t.Fatalf("index %d: the stamp word is not behind its pair", i)
		}
	}
}

// flatSig is the reference the paged table is held to: the two flat slot
// arrays of the original signature, indexed by the word address modulo the
// slot count.
type flatSig struct {
	w, r []Slot
}

func (f *flatSig) idx(addr uint64) uint64 { return (addr >> 3) % uint64(len(f.w)) }

// TestSignatureMatchesFlatReference: on random fills and removals the paged,
// masked table answers every probe, Occupancy and Intersect exactly as the
// flat modulo-indexed arrays do — at power-of-two counts (mask), others
// (modulo), and both sides of the page size.
func TestSignatureMatchesFlatReference(t *testing.T) {
	for _, slots := range []int{1, 2, 1000, 4096, 4097, 1 << 14} {
		rng := rand.New(rand.NewSource(int64(slots)))
		// The first keeps stamps and the second does not: probes of the one
		// return them whole (any 32-bit stamp, event.MaxTS), of the other as
		// 0, and Intersect spans the two layouts.
		sigs := [2]*Signature{NewSignature(slots), NewSignature(slots)}
		sigs[0].KeepStamps()
		flats := [2]*flatSig{{make([]Slot, slots), make([]Slot, slots)}, {make([]Slot, slots), make([]Slot, slots)}}
		addrs := make([]uint64, 0, 4096)
		for n := 0; n < 4096; n++ {
			// Mostly a dense window a few times the table, some far outliers,
			// some unaligned.
			addr := 8 * uint64(rng.Intn(3*slots+64))
			if n%16 == 0 {
				addr = rng.Uint64()
			}
			addrs = append(addrs, addr)
			which := rng.Intn(2)
			g, f := sigs[which], flats[which]
			s := PackSlot(loc.Pack(1, 1+n%100), loc.VarID(n), int32(n), uint32(n), uint64(n), uint64(rng.Uint32()))
			kept := s
			if which == 1 {
				kept.TS = 0
			}
			if i := f.idx(addr); g.hash(addr) != i {
				t.Fatalf("%d slots: hash(%#x) = %d, modulo says %d", slots, addr, g.hash(addr), i)
			}
			switch rng.Intn(5) {
			case 0:
				g.SetWrite(addr, s)
				f.w[f.idx(addr)] = kept
			case 1:
				g.SetRead(addr, s)
				f.r[f.idx(addr)] = kept
			case 2:
				g.At(addr).SetW(s)
				f.w[f.idx(addr)] = kept
			case 3:
				g.At(addr).SetR(s)
				f.r[f.idx(addr)] = kept
			default:
				g.Remove(addr)
				f.w[f.idx(addr)], f.r[f.idx(addr)] = Slot{}, Slot{}
			}
		}
		both := 0
		for which, g := range sigs {
			f := flats[which]
			used := 0
			for i := range f.w {
				if !f.w[i].Empty() {
					used++
					if which == 0 && !flats[1].w[i].Empty() {
						both++
					}
				}
			}
			if got, want := g.Occupancy(), float64(used)/float64(slots); got != want {
				t.Errorf("%d slots: Occupancy = %v, flat reference %v", slots, got, want)
			}
			for _, addr := range addrs {
				w, wok := g.LookupWrite(addr)
				r, rok := g.LookupRead(addr)
				fw, fr := f.w[f.idx(addr)], f.r[f.idx(addr)]
				if w != fw || wok == fw.Empty() || r != fr || rok == fr.Empty() {
					t.Fatalf("%d slots: probe of %#x differs from the flat reference", slots, addr)
				}
				if c := g.At(addr); c.W() != fw || c.R() != fr {
					t.Fatalf("%d slots: cell of %#x differs from the flat reference", slots, addr)
				}
			}
		}
		if got := sigs[0].Intersect(sigs[1]); got != both {
			t.Errorf("%d slots: Intersect = %d, flat reference %d", slots, got, both)
		}
		if got := sigs[1].Intersect(sigs[0]); got != both {
			t.Errorf("%d slots: Intersect (reversed) = %d, flat reference %d", slots, got, both)
		}
	}
}
