// Package dep defines the profiler's output: pair-wise data dependences.
//
// A data dependence is represented as a triple <sink, type, source> (paper
// §III-A). type is RAW, WAR or WAW; the special type INIT marks the first
// write to a memory address. sink and source are source-code locations; for
// multi-threaded targets each additionally carries a thread ID (§V), and the
// variable name involved is attached to the source. Identical dependences are
// merged (§III-B final paragraph: merging shrank NAS output from 6.1 GB to
// 53 KB, a factor of ~1e5); a Set therefore maps dependence identity to
// aggregate statistics instead of storing instances.
package dep

import (
	"math/bits"
	"sync"

	"ddprof/internal/loc"
)

// Type classifies a dependence.
type Type uint8

const (
	// RAW is read-after-write (true dependence).
	RAW Type = iota
	// WAR is write-after-read (anti dependence).
	WAR
	// WAW is write-after-write (output dependence).
	WAW
	// INIT marks the first write to an address.
	INIT
)

func (t Type) String() string {
	switch t {
	case RAW:
		return "RAW"
	case WAR:
		return "WAR"
	case WAW:
		return "WAW"
	case INIT:
		return "INIT"
	}
	return "???"
}

// Key is the identity of a dependence; two dynamic instances with equal Keys
// are "identical dependences" in the paper's sense and are merged.
type Key struct {
	Sink       loc.SourceLoc
	Src        loc.SourceLoc
	Var        loc.VarID
	SinkThread int16
	SrcThread  int16
	Type       Type
}

// Stats aggregates the dynamic instances of one dependence.
type Stats struct {
	// Count is the number of dynamic instances observed.
	Count uint64
	// Reversed records whether any instance was observed with reversed
	// timestamps, exposing a potential data race (paper §V-B).
	Reversed bool
	// Carried records whether any instance crossed iterations of the
	// innermost loop enclosing both endpoints (loop-carried).
	Carried bool
	// Reduction records whether every instance connected two accesses of a
	// reduction-style statement; such a carried RAW is removable by a
	// reduction transformation. It starts true and is cleared by any
	// non-reduction instance.
	Reduction bool
	// MinDist and MaxDist bound the observed dependence distance — the
	// iteration gap at the carried loop (Alchemist-style dependence-distance
	// profiling; a distance of 0 means a loop-independent instance was
	// seen). A stable MinDist > 1 indicates blocking/skewing headroom.
	MinDist uint32
	MaxDist uint32
}

// newStats is the zero-instance state of a dependence: Reduction holds until
// a non-reduction instance clears it, MinDist starts at the maximum so the
// first instance's distance becomes the floor.
func newStats() Stats { return Stats{Reduction: true, MinDist: ^uint32(0)} }

// fold merges the aggregate o into st: counts add, the sticky flags OR
// (Reduction ANDs), the distance bounds widen. Folding o into newStats()
// reproduces o exactly, which is what makes Merge a pure union.
func (st *Stats) fold(o *Stats) {
	st.Count += o.Count
	st.Carried = st.Carried || o.Carried
	st.Reversed = st.Reversed || o.Reversed
	st.Reduction = st.Reduction && o.Reduction
	if o.MinDist < st.MinDist {
		st.MinDist = o.MinDist
	}
	if o.MaxDist > st.MaxDist {
		st.MaxDist = o.MaxDist
	}
}

// Set storage layout. Entries (key + stats, inline) live in fixed-size slab
// pages that are never moved or freed while the Set is live, so a *Stats
// handed out by Ref stays valid across any number of later insertions — the
// pointer-stability contract the engine's instance cache depends on. The
// open-addressing index holds one packed word per slot
// (hash<<32 | entryRef+1, 0 = empty) and can be regrown freely: rehashing
// moves index words, never entries. Iteration (Range, Keys, Merge, encode)
// walks the slabs in insertion order — cache-linear, no bucket chasing.
const (
	pageShift   = 9 // 512 entries (~24 KiB) per page
	pageEntries = 1 << pageShift
	pageMask    = pageEntries - 1
)

// entry is one dependence record: identity, its cached hash (so regrowing
// the index never re-hashes keys), and the inline aggregate.
type entry struct {
	key   Key
	hash  uint32
	stats Stats
}

type slabPage struct {
	e [pageEntries]entry
}

// pagePool recycles slab pages across Sets. A long-lived daemon tears down
// one dependence-heavy session after another; without the pool every session
// re-grows its tables from zero. Entries are fully overwritten on alloc, so
// pages are pooled dirty.
var pagePool = sync.Pool{New: func() any { return new(slabPage) }}

// Set is a merged collection of dependences. It is not safe for concurrent
// use; the parallel profiler keeps one Set per worker and merges at the end
// (paper §IV: "the use of maps ensures that identical dependences are not
// stored more than once").
type Set struct {
	index  []uint64 // hash<<32 | ref+1 per slot; 0 = empty; len is a power of two
	pages  []*slabPage
	n      int // entries in use; entry ref r lives at pages[r>>pageShift].e[r&pageMask]
	growAt int
	// instances counts every dynamic dependence ever added, merged or not;
	// the merging ablation reports Instances vs Unique.
	instances uint64
}

// NewSet returns an empty dependence set.
func NewSet() *Set {
	return &Set{}
}

// Mix hashes three words into one: each is multiplied by its own odd
// constant and the products are XORed. Every bit of a word reaches the
// product's top bits, so the hash's top bits are what its users take.
// The words stay apart until the multiplies: XORing them first would make
// two keys collide in every bit whenever their differences in two words
// cancel, as whole families of real keys' do (equal Src^Var, say).
func Mix(a, b, c uint64) uint64 {
	return a*0x9E3779B97F4A7C15 ^ b*0xC2B2AE3D27D4EB4F ^ c*0x165667B19E3779F9
}

// hashKey mixes a dependence key into the 32-bit hash the index keeps: the
// top half of Mix over the key's sink/source word, its variable/thread word
// and its type. A probe starts at the hash's top bits (home).
func hashKey(k Key) uint32 {
	return uint32(Mix(uint64(k.Sink)|uint64(k.Src)<<32,
		uint64(k.Var)|uint64(uint16(k.SinkThread))<<32|uint64(uint16(k.SrcThread))<<48,
		uint64(k.Type)) >> 32)
}

// home is the index slot a probe for hash h starts at, in an index of
// mask+1 slots: the hash's top bits.
func home(h, mask uint32) uint32 { return h >> bits.LeadingZeros32(mask) }

// at returns entry ref r.
func (s *Set) at(r int) *entry {
	return &s.pages[r>>pageShift].e[r&pageMask]
}

// Add records one dynamic instance of dependence k. carried marks a
// loop-carried instance, reduction marks an instance whose two endpoints are
// both reduction-statement accesses, and reversed marks a timestamp
// reversal.
func (s *Set) Add(k Key, carried, reduction, reversed bool) {
	s.AddDist(k, carried, reduction, reversed, 0)
}

// AddDist is Add with the instance's dependence distance (the iteration gap
// at the carried loop; 0 for loop-independent instances).
func (s *Set) AddDist(k Key, carried, reduction, reversed bool, dist uint32) {
	s.ObserveVia(s.Ref(k), 1, carried, reduction, reversed, dist)
}

// Ref returns the pointer-stable *Stats entry for k, creating it if absent.
//
// Pointer-stability contract: the returned pointer stays valid — and keeps
// aliasing k's live aggregate — for the life of the Set, across any number
// of later insertions, because entries live inline in slab pages that are
// never moved or reallocated (only the index regrows). Hot paths may
// therefore cache it (the engine's instance cache does) and record further
// instances through ObserveVia without re-hashing the key. Only Reset and
// Release end the contract: after either, previously returned pointers no
// longer refer to anything in the Set. Ref alone records no instance.
func (s *Set) Ref(k Key) *Stats {
	return s.refHashed(k, hashKey(k))
}

// refHashed is Ref with the key's hash already computed — the merge fold
// reuses the hash cached in the source entry instead of re-mixing the key.
func (s *Set) refHashed(k Key, h uint32) *Stats {
	if s.index == nil {
		s.init()
	}
	mask := uint32(len(s.index) - 1)
	i := home(h, mask)
	for {
		v := s.index[i]
		if v == 0 {
			break
		}
		if uint32(v>>32) == h {
			if e := s.at(int(uint32(v)) - 1); e.key == k {
				return &e.stats
			}
		}
		i = (i + 1) & mask
	}
	if s.n >= s.growAt {
		s.grow()
		mask = uint32(len(s.index) - 1)
		i = home(h, mask)
		for s.index[i] != 0 {
			i = (i + 1) & mask
		}
	}
	e := s.alloc()
	e.key, e.hash, e.stats = k, h, newStats()
	s.index[i] = uint64(h)<<32 | uint64(s.n) // s.n is ref+1 after alloc
	return &e.stats
}

func (s *Set) init() {
	s.index = make([]uint64, 64)
	s.growAt = len(s.index) * 3 / 4
}

// alloc appends one entry slot, taking a fresh page from the pool when the
// current one fills (or reusing a page retained by Reset).
func (s *Set) alloc() *entry {
	pi, off := s.n>>pageShift, s.n&pageMask
	if off == 0 && pi == len(s.pages) {
		s.pages = append(s.pages, pagePool.Get().(*slabPage))
	}
	s.n++
	return &s.pages[pi].e[off]
}

// grow doubles the index and re-seats every entry ref. Entries do not move:
// only the 8-byte index words are rewritten, using the hash cached in each
// entry.
func (s *Set) grow() {
	s.rebuildIndex(len(s.index) * 2)
}

// reserve sizes the index for n entries up front, so a bulk insertion (a
// large merge of mostly-disjoint sets) re-seats the index once instead of
// at every doubling.
func (s *Set) reserve(n int) {
	sz := 64
	for sz*3/4 < n {
		sz *= 2
	}
	if sz > len(s.index) {
		s.rebuildIndex(sz)
	}
}

func (s *Set) rebuildIndex(size int) {
	ni := make([]uint64, size)
	mask := uint32(size - 1)
	for r := 0; r < s.n; r++ {
		e := s.at(r)
		i := home(e.hash, mask)
		for ni[i] != 0 {
			i = (i + 1) & mask
		}
		ni[i] = uint64(e.hash)<<32 | uint64(r+1)
	}
	s.index = ni
	s.growAt = size * 3 / 4
}

// lookup returns the entry for k, or nil.
func (s *Set) lookup(k Key) *entry {
	if s.index == nil {
		return nil
	}
	h := hashKey(k)
	mask := uint32(len(s.index) - 1)
	for i := home(h, mask); ; i = (i + 1) & mask {
		v := s.index[i]
		if v == 0 {
			return nil
		}
		if uint32(v>>32) == h {
			if e := s.at(int(uint32(v)) - 1); e.key == k {
				return e
			}
		}
	}
}

// ObserveVia records n dynamic instances of the dependence whose stats entry
// is st (obtained from Ref on this Set), all with the same attributes. It is
// exactly equivalent to n AddDist calls for that key — the fuzz suite holds
// the two paths to that contract.
func (s *Set) ObserveVia(st *Stats, n uint64, carried, reduction, reversed bool, dist uint32) {
	s.instances += n
	st.Count += n
	st.Carried = st.Carried || carried
	st.Reversed = st.Reversed || reversed
	st.Reduction = st.Reduction && reduction
	if dist < st.MinDist {
		st.MinDist = dist
	}
	if dist > st.MaxDist {
		st.MaxDist = dist
	}
}

// Merge folds other into s. Other's contents are not modified.
func (s *Set) Merge(other *Set) {
	if other == nil || other.n == 0 {
		return
	}
	// Worst case every key is new; one up-front index build beats doubling
	// through the merge, and an over-sized index just probes shorter.
	s.reserve(s.n + other.n)
	for r := 0; r < other.n; r++ {
		o := other.at(r)
		s.refHashed(o.key, o.hash).fold(&o.stats)
	}
	s.instances += other.instances
}

// Reset empties the set while retaining its storage — the index at its grown
// size and every slab page — so refilling to a comparable population
// allocates nothing. Stats pointers previously returned by Ref no longer
// belong to any key and must not be used.
func (s *Set) Reset() {
	for i := range s.index {
		s.index[i] = 0
	}
	s.n = 0
	s.instances = 0
}

// Release empties the set and returns its slab pages to the shared page
// pool, where the next NewSet (anywhere in the process) picks them up. Use
// it when the set is done for good — ddprofd releases a session's sets at
// teardown, and the merge stage releases each consumed shard. The Set
// itself remains usable and behaves like a fresh NewSet. Stats pointers
// previously returned by Ref must not be used afterwards: the pages they
// point into will be rewritten by an unrelated Set.
func (s *Set) Release() {
	for _, p := range s.pages {
		pagePool.Put(p)
	}
	s.pages = nil
	s.index = nil
	s.n = 0
	s.growAt = 0
	s.instances = 0
}

// Unique returns the number of merged (distinct) dependences.
func (s *Set) Unique() int { return s.n }

// Instances returns the total number of dynamic dependence instances added.
func (s *Set) Instances() uint64 { return s.instances }

// addInstances bumps the instance counter without touching any entry; the
// decoder uses it when folding wire records whose counts are pre-aggregated.
func (s *Set) addInstances(n uint64) { s.instances += n }

// Lookup returns the stats for a dependence, if present.
func (s *Set) Lookup(k Key) (Stats, bool) {
	e := s.lookup(k)
	if e == nil {
		return Stats{}, false
	}
	return e.stats, true
}

// Range calls f for every dependence in insertion order. Returning false
// from f stops the iteration.
func (s *Set) Range(f func(Key, Stats) bool) {
	for r := 0; r < s.n; r++ {
		e := s.at(r)
		if !f(e.key, e.stats) {
			return
		}
	}
}

// Keys returns all dependence keys in insertion order.
func (s *Set) Keys() []Key {
	ks := make([]Key, 0, s.n)
	for r := 0; r < s.n; r++ {
		ks = append(ks, s.at(r).key)
	}
	return ks
}

// FilterType returns the keys of the given type.
func (s *Set) FilterType(t Type) []Key {
	var ks []Key
	for r := 0; r < s.n; r++ {
		if e := s.at(r); e.key.Type == t {
			ks = append(ks, e.key)
		}
	}
	return ks
}
