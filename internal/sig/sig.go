// Package sig implements signature-based memory-access recording, the
// paper's central space optimization (§III-B).
//
// A signature encodes an approximate representation of an unbounded set of
// elements with a bounded amount of state. Following the paper, ours is a
// fixed-length slot array combined with a single hash function mapping memory
// addresses to slot indices. One hash function (rather than the k of a Bloom
// filter) keeps element *removal* possible, which variable-lifetime analysis
// requires. Each slot stores the metadata of the most recent access that
// hashed there; hash collisions therefore produce both false positives and
// false negatives in the profiled dependences, quantified in Table I.
//
// The paper's slots are 4 bytes (a source line). Ours hold what Algorithm 1
// reads back — location, thread, loop context and iteration vector, for the
// Table II and §V experiments — in two 64-bit words: 16 bytes a slot, 32 a
// write/read pair, 64 MB at the default 2 M slots. A race-checking profiler
// also keeps the two accesses' §V stamps, 32 bits each, in one word beside
// their pair (40 bytes, 80 MB); one that never compares stamps does not store
// them. Memory experiments report both actual and paper-modeled (4 B/slot)
// sizes.
package sig

import (
	"math/bits"
	"unsafe"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// Slot is the access record a Store is handed and hands back. The zero Slot
// means "empty". A populated slot always has the presence bit set in Meta,
// so a genuine access can never be mistaken for an empty slot. The signature
// and the perfect table keep Meta and Iter, and TS only when asked to
// (KeepStamps); the §III-B baselines keep all three words.
type Slot struct {
	Meta uint64 // present(1) | reduction(1) | induction(1) | unused(4) | thread(9) | ctx(16) | loc(32)
	Iter uint64 // packed iteration vector of the enclosing loops
	TS   uint64 // §V sync-epoch stamp: 32 bits in a kept record, refused beyond (event.MaxTS); 0 for sequential targets
}

const (
	presentBit   = uint64(1) << 63
	reductionBit = uint64(1) << 62
	inductionBit = uint64(1) << 61

	threadShift = 48
	ctxShift    = 32
)

// The widths a slot keeps of a thread ID and of a static loop-context ID.
// Wider threads are refused by the executors and the DDT2 decoder
// (event.MaxThread), more contexts by core.New.
const (
	ThreadMask = event.MaxThread
	CtxMask    = 0xFFFF
)

// MetaFields masks a slot's header word to the fields PackSlot and the With
// methods set. Bits outside it are not part of what a slot says about its
// access, so a consumer keying on Meta masks with it first.
const MetaFields = presentBit | reductionBit | inductionBit |
	ThreadMask<<threadShift | CtxMask<<ctxShift | 0xFFFFFFFF

// PackSlot builds a populated slot. v is unused: Algorithm 1 keys a
// dependence on the sink's variable and never reads the source's, so a slot
// does not hold one. The parameter stays because bench/ calls this signature.
func PackSlot(l loc.SourceLoc, v loc.VarID, thread int32, ctx uint32, iterVec, ts uint64) Slot {
	return Slot{
		Meta: presentBit |
			(uint64(thread)&ThreadMask)<<threadShift |
			(uint64(ctx)&CtxMask)<<ctxShift |
			uint64(l),
		Iter: iterVec,
		TS:   ts,
	}
}

// Empty reports whether the slot holds no access.
func (s Slot) Empty() bool { return s.Meta&presentBit == 0 }

// WithReduction marks the recorded access as part of a reduction statement
// (x = x ⊕ expr with ⊕ commutative-associative), which parallelism discovery
// uses to report reduction-parallelizable loops.
func (s Slot) WithReduction() Slot {
	s.Meta |= reductionBit
	return s
}

// Reduction reports whether the recorded access carries the reduction mark.
func (s Slot) Reduction() bool { return s.Meta&reductionBit != 0 }

// WithInduction marks the recorded access as an induction-variable update
// (i = i + step at a loop header). Such self-dependences are loop control —
// parallelization replaces them — so the engine does not let them count as
// parallelism-preventing carried dependences.
func (s Slot) WithInduction() Slot {
	s.Meta |= inductionBit
	return s
}

// Induction reports whether the recorded access carries the induction mark.
func (s Slot) Induction() bool { return s.Meta&inductionBit != 0 }

// Loc returns the recorded source location.
func (s Slot) Loc() loc.SourceLoc { return loc.SourceLoc(uint32(s.Meta)) }

// Thread returns the recorded target-program thread ID.
func (s Slot) Thread() int32 { return int32((s.Meta >> threadShift) & ThreadMask) }

// Ctx returns the recorded static loop-context ID.
func (s Slot) Ctx() uint32 { return uint32((s.Meta >> ctxShift) & CtxMask) }

// Store abstracts how per-address access history is kept. The profiler's
// detection engine (Algorithm 1) runs against any Store; implementations are
// the approximate Signature below and the exact PerfectSignature, one record
// per word in the same layout, and the §III-B baselines (shadow memory, a
// bucketed hash table) in internal/exp.
type Store interface {
	// LookupWrite returns the last-write record for addr, if present.
	LookupWrite(addr uint64) (Slot, bool)
	// LookupRead returns the last-read record for addr, if present.
	LookupRead(addr uint64) (Slot, bool)
	// SetWrite records s as the last write to addr.
	SetWrite(addr uint64, s Slot)
	// SetRead records s as the last read of addr.
	SetRead(addr uint64, s Slot)
	// Remove forgets addr entirely (variable-lifetime analysis).
	Remove(addr uint64)
	// Bytes returns the actual memory the store occupies.
	Bytes() uint64
	// ModeledBytes returns the store size under the paper's cost model
	// (4 bytes per signature slot; exact stores report their true size).
	ModeledBytes() uint64
}

// Pair is the access history resident at one signature index: the last write
// (Meta, Iter) and then the last read that hashed there. The two live side by
// side because Algorithm 1 consults both for every write and one, then
// updates the other, for every read: one 32-byte pair is one hash and half a
// cache line per access, never two lines, where a write array and a read
// array would be two probes megabytes apart.
type Pair [pairWords]uint64

// Stamps is the word that follows a pair when stamps are kept: the last
// write's stamp in the low 32 bits, the last read's in the high 32. No stamp
// reaches a signature wider than that (event.MaxTS).
type Stamps uint64

const (
	pairWords    = 4
	stampWords   = 1 // a Stamps word follows the pair when kept
	stampedWords = pairWords + stampWords
)

// Cell is the handle to one signature index: its pair and, in a signature
// that keeps stamps, the stamp word behind it. It stays valid for the life
// of the signature.
type Cell struct {
	p  *Pair
	ts *Stamps
}

// W returns the resident last write.
func (c Cell) W() Slot {
	s := Slot{Meta: c.p[0], Iter: c.p[1]}
	if c.ts != nil {
		s.TS = uint64(uint32(*c.ts))
	}
	return s
}

// R returns the resident last read.
func (c Cell) R() Slot {
	s := Slot{Meta: c.p[2], Iter: c.p[3]}
	if c.ts != nil {
		s.TS = uint64(*c.ts >> 32)
	}
	return s
}

// SetW installs s as the last write; of the stamp word it rewrites the write's
// half only.
func (c Cell) SetW(s Slot) {
	c.p[0], c.p[1] = s.Meta, s.Iter
	if c.ts != nil {
		*c.ts = *c.ts&^0xFFFFFFFF | Stamps(uint32(s.TS))
	}
}

// SetR installs s as the last read; of the stamp word it rewrites the read's
// half only.
func (c Cell) SetR(s Slot) {
	c.p[2], c.p[3] = s.Meta, s.Iter
	if c.ts != nil {
		*c.ts = *c.ts&0xFFFFFFFF | Stamps(s.TS)<<32
	}
}

// The table is committed in fixed pages on first write, the way the paper's
// calloc'd array is by the kernel: a profile whose footprint covers half a
// percent of its slot budget zeroes and keeps resident half a percent of the
// table, not all of it.
const (
	pageShift = 12
	pagePairs = 1 << pageShift // 4096 pairs = 128 KiB, 160 with stamps
	pageMask  = pagePairs - 1
)

// Signature is the approximate Store: one fixed table of slot pairs indexed
// by one hash of the address. On collision the newer access simply replaces
// the older one — no chaining, no growth — which is what makes it fast and
// bounded, at the price of Table I's FPR/FNR.
type Signature struct {
	// pages[i>>pageShift] holds indices i&^pageMask .. , stride words each: a
	// pair, then its stamp word if stamps are kept, so one index is one contiguous
	// record either way. A page is nil until an access is first recorded
	// there. Every page holds pagePairs indices except the last, which is cut
	// to the configured slot count.
	pages  [][]uint64
	stride uint64
	// m is the number of indices the table holds: the configured slot count,
	// or after Shard the part of it one residue class of addresses reaches.
	m uint64
	// shift and div take an address to the word number hash reduces: shift is
	// 3, plus log2 of a power-of-two shard count; div is any other shard
	// count, else 0. See Shard.
	shift, div uint64
	// mask is m-1 when m is a power of two and div is 0, else 0; see hash.
	mask uint64
}

// NewSignature returns a signature with the given number of slots per side.
// No slot memory is committed until the first access is recorded.
func NewSignature(slots int) *Signature {
	if slots < 1 {
		slots = 1
	}
	g := &Signature{stride: pairWords, shift: 3}
	g.size(uint64(slots))
	return g
}

// size makes the (still empty) table hold m indices.
func (g *Signature) size(m uint64) {
	g.pages = make([][]uint64, (m+pageMask)>>pageShift)
	g.m, g.mask = m, 0
	if m&(m-1) == 0 && g.div == 0 {
		g.mask = m - 1
	}
}

// reachable is how many of m indices the words of one residue class modulo w
// reach under word mod m: every gcd(m, w)-th.
func reachable(m, w uint64) uint64 {
	a, b := m, w
	for b != 0 {
		a, b = b, a%b
	}
	return m / a
}

// Shard tells the signature the routing rule in front of it: it is one of w
// stores, and every address it will see has the same word number modulo w
// (core's ownerOf). Of the m indices word mod m then reaches only every
// gcd(m, w)-th, so the signature holds just those — m/gcd(m, w) indices,
// Bytes() and ModeledBytes() to match — and indexes them by (word / w) mod
// that count. Two words of one residue class share an index under the new
// rule exactly when they did under word mod m (both say "congruent modulo
// lcm(m, w)"), so every lookup answers as the unsharded table would: w
// workers hold one signature's worth of slots between them, and for w | m
// they report what one serial m-slot signature reports. It must be called
// once, before the first access is recorded; Shard(1) changes nothing.
func (g *Signature) Shard(w int) {
	if w <= 1 {
		return
	}
	g.mustBeEmpty("Shard")
	if w&(w-1) == 0 {
		g.shift += uint64(bits.TrailingZeros(uint(w)))
	} else {
		g.div = uint64(w)
	}
	g.size(reachable(g.m, uint64(w)))
}

// mustBeEmpty panics if an access has been recorded: the table's geometry is
// fixed from then on.
func (g *Signature) mustBeEmpty(op string) {
	for _, pg := range g.pages {
		if pg != nil {
			panic("sig: " + op + " after an access was recorded")
		}
	}
}

// KeepStamps makes the signature store each access's §V stamp beside its
// pair, 32 bits of it in one shared word (Stamps): 40 bytes an index instead
// of 32. A stamp is a Lamport epoch that moves only at release operations,
// and none past event.MaxTS gets this far: the executors, the DDT2 decoder
// and a race-checking core profiler refuse it. Only an engine that compares
// stamps (the race check) has a use for them, and core.NewEngine asks on its
// behalf; every other signature drops Slot.TS and reads it back as 0. It must
// be called before the first access is recorded.
func (g *Signature) KeepStamps() {
	if g.stride == stampedWords {
		return
	}
	g.mustBeEmpty("KeepStamps")
	g.stride = stampedWords
}

// hash maps an address to a slot index: the word address modulo the slot
// count. The locality-preserving modulo is deliberate and matches the
// behaviour behind the paper's Table I: as soon as the signature has more
// slots than the target's (contiguous) address footprint, *no* collisions
// occur at all and FPR/FNR drop to exactly zero — which is how the paper
// reaches 0.00 at 1e8 slots. A scrambling hash would instead keep a floor
// of random cross-array collisions at every size. For footprints larger
// than the slot count, wraparound produces the systematic collisions the
// smaller Table I columns quantify, and Equation (2) models the uniform
// case.
//
// For a power-of-two slot count x mod m = x AND (m-1) exactly, so the mask
// yields the same index as the modulo, bit for bit, without the hardware
// divide; every other count keeps the modulo.
//
// A sharded signature (Shard) reduces word / w instead of the word. A
// power-of-two w is part of the shift; any other is a divide, as it is in the
// router, on the path that divides anyway. The shift count is masked because
// Go otherwise checks a variable count against the word size on every access;
// it is always below 64.
func (g *Signature) hash(addr uint64) uint64 {
	x := addr >> (g.shift & 63)
	if g.mask != 0 {
		return x & g.mask
	}
	if g.div != 0 {
		x /= g.div
	}
	return x % g.m
}

// Slots returns the number of slots per side the table holds: the configured
// count, or what Shard kept of it.
func (g *Signature) Slots() int { return int(g.m) }

// At returns the cell addr hashes to, committing its page if this is the
// first access recorded there. It is the whole store side of one access for
// a caller that will record the access (the engine's fused arm); probes that
// must not commit go through Lookup*.
func (g *Signature) At(addr uint64) Cell {
	if c, ok := g.Committed(addr); ok {
		return c
	}
	i := g.hash(addr)
	return g.view(g.page(i), i)
}

// Committed is At's inlinable half: the cell addr hashes to when the slot
// count is a power of two and the cell's page is committed, else ok is false
// and the caller takes At (a modulo or sharded-divide table, a first touch).
// It commits nothing. When mask is 0 the index is 0, a page every table has,
// so the probe needs no other guard.
func (g *Signature) Committed(addr uint64) (c Cell, ok bool) {
	i := addr >> (g.shift & 63) & g.mask
	if pg := g.pages[i>>pageShift]; pg != nil && g.mask != 0 {
		return cellAt(pg, (i&pageMask)*g.stride, g.stride), true
	}
	return Cell{}, false
}

// page returns the page holding index i, committing it on first use.
func (g *Signature) page(i uint64) []uint64 {
	if pg := g.pages[i>>pageShift]; pg != nil {
		return pg
	}
	return g.commit(i >> pageShift)
}

// view is the cell of index i within its committed page.
func (g *Signature) view(pg []uint64, i uint64) Cell {
	return cellAt(pg, (i&pageMask)*g.stride, g.stride)
}

// cellAt is the cell of the record at word o of a page of stride-word
// records. A page holds whole records, so the bounds check on a record's
// first word covers the rest of it; the casts spare Process the two slice
// conversions that would check it again.
func cellAt(pg []uint64, o, stride uint64) Cell {
	rec := unsafe.Pointer(&pg[o])
	c := Cell{p: (*Pair)(rec)}
	if stride == stampedWords {
		c.ts = (*Stamps)(unsafe.Add(rec, unsafe.Sizeof(Pair{})))
	}
	return c
}

// commit allocates page pi.
func (g *Signature) commit(pi uint64) []uint64 {
	n := g.m - pi<<pageShift
	if n > pagePairs {
		n = pagePairs
	}
	pg := make([]uint64, n*g.stride)
	g.pages[pi] = pg
	return pg
}

// LookupWrite implements Store. An uncommitted page reads as empty slots and
// stays uncommitted.
func (g *Signature) LookupWrite(addr uint64) (s Slot, ok bool) {
	i := g.hash(addr)
	if pg := g.pages[i>>pageShift]; pg != nil {
		s = g.view(pg, i).W()
	}
	return s, !s.Empty()
}

// LookupRead implements Store.
func (g *Signature) LookupRead(addr uint64) (s Slot, ok bool) {
	i := g.hash(addr)
	if pg := g.pages[i>>pageShift]; pg != nil {
		s = g.view(pg, i).R()
	}
	return s, !s.Empty()
}

// SetWrite implements Store.
func (g *Signature) SetWrite(addr uint64, s Slot) {
	i := g.hash(addr)
	g.view(g.page(i), i).SetW(s)
}

// SetRead implements Store.
func (g *Signature) SetRead(addr uint64, s Slot) {
	i := g.hash(addr)
	g.view(g.page(i), i).SetR(s)
}

// Remove implements Store: both slots the address hashes to are cleared.
// Collided residents are cleared too — an accepted approximation, the same
// one the paper's removal makes.
func (g *Signature) Remove(addr uint64) {
	i := g.hash(addr)
	if pg := g.pages[i>>pageShift]; pg != nil {
		o := (i & pageMask) * g.stride
		clear(pg[o : o+g.stride])
	}
}

// Bytes implements Store: the configured size of the table — the budget
// daemon admission and the Fig. 7/8 memory metrics are defined on, and the
// most the signature can ever hold. What is resident is the pages accesses
// have touched.
func (g *Signature) Bytes() uint64 { return g.m * g.stride * 8 }

// tableBytes is Bytes() of a table of m indices, with or without stamps.
func tableBytes(m uint64, stamps bool) uint64 {
	if stamps {
		return m * stampedWords * 8
	}
	return m * pairWords * 8
}

// ModeledBytes implements Store: the paper's 4 bytes/slot model (§VI-A:
// "each slot is four bytes. Thus 1.0E+8 slots consume only 382 MB").
func (g *Signature) ModeledBytes() uint64 { return g.m * 4 }

// indices is how many indices a committed page holds; written reports
// whether its k-th holds a write.
func (g *Signature) indices(pg []uint64) uint64 { return uint64(len(pg)) / g.stride }

func (g *Signature) written(pg []uint64, k uint64) bool {
	return pg[k*g.stride]&presentBit != 0
}

// Occupancy returns the fraction of non-empty write slots — the measured
// Eq. (2) collision probability, published at every flush. It scans the
// committed pages.
func (g *Signature) Occupancy() float64 {
	used := 0
	for _, pg := range g.pages {
		for k, end := uint64(0), g.indices(pg); k < end; k++ {
			if g.written(pg, k) {
				used++
			}
		}
	}
	return float64(used) / float64(g.m)
}
