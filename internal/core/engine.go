// Package core implements the paper's primary contribution: the generic
// data-dependence profiler. It contains the signature-based detection engine
// (Algorithm 1), the serial profiler (§III), the lock-free parallel profiler
// for sequential targets (§IV), and the multi-threaded-target profiler with
// sync-epoch data-race flagging (§V).
package core

import (
	"math/bits"
	"unsafe"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// LoopDeps aggregates, per static loop, the dependences carried by that loop.
// Parallelism discovery consumes this table: a loop with no carried RAW is a
// candidate for parallelization (paper §VII-A).
type LoopDeps struct {
	// CarriedRAW counts distinct carried RAW dependences; CarriedRAWRed of
	// those, the ones whose every instance joined two reduction accesses.
	CarriedRAW    int
	CarriedRAWRed int
	CarriedWAR    int
	CarriedWAW    int
	// MinRAWDist is the smallest iteration gap observed over all carried
	// RAW instances of this loop (0 when CarriedRAW is 0). A distance of
	// d >= 2 means iterations i and i+1 never conflict: the loop supports
	// d-way DOACROSS/wavefront execution even though it is not DOALL.
	MinRAWDist uint32
	// Iterations is the total number of iterations observed (filled in from
	// the interpreter's loop records by the caller, not by the engine).
	Iterations uint64
}

// Engine applies Algorithm 1 to a stream of accesses against one Store.
// It is not safe for concurrent use; the parallel profiler gives each worker
// its own Engine over a disjoint address subset.
type Engine struct {
	// cache is the instance cache: the overwhelmingly common case is the
	// same static dependence firing every iteration (the instance
	// redundancy dependence merging exploits for space, §III-B), so each
	// entry memoizes, per instance template, everything an instance does
	// not change: the map entries (the dependence set's and, once carried,
	// the per-loop aggregate's) and the classification's static half. It
	// leads the struct, which is large enough to be allocated page-aligned,
	// so every 64-byte entry is one cache line.
	cache       [depCacheSets][depCacheWays]depCacheEntry
	cacheHits   uint64
	cacheProbes uint64
	// carried is carry's memo of the loop records it looked up, so a
	// template carried in turn by two loops refills its entry without a map
	// operation.
	carried [carryMemoSize]carryMemo

	store sig.Store
	// sg or pf is the store itself when it is a *sig.Signature or a
	// *sig.PerfectSignature: Process then goes through its fused record
	// probe instead of the interface. Fixed at construction.
	sg    *sig.Signature
	pf    *sig.PerfectSignature
	meta  *prog.Meta
	deps  *dep.Set
	loops map[prog.LoopID]*loopAgg
	// raceCheck enables the epoch race rule, reversed (MT-target mode).
	raceCheck bool
}

// The instance cache holds 512 entries (28 KiB) in sets of four. The
// working set is the static template count of the profiled region, a few
// hundred for the bundled workloads. With two ways, whether three hot
// templates of one loop body share a set is the hash's luck, and when they
// do they miss on every turn (md5 and rgbyuv did, 4.6-6.6 % of probes);
// with four, only a template's first instance misses on every bundled
// workload but the three NAS kernels with more templates than entries.
const (
	depCacheWays    = 4
	depCacheSetBits = 7
	depCacheSets    = 1 << depCacheSetBits
)

// template is what identifies a dependence instance's static part: the
// source slot's header word (0 for an INIT, which has no source), the
// sink's Loc|Var<<32, and its whole CtxID, its thread at the key's width,
// the two flags Algorithm 1 reads and the type. Everything an entry
// memoizes is a function of these three words, so equal templates may
// share it. A zero template is no instance's: an INIT carries its type, any
// other template a present source.
type template [3]uint64

func templateOf(t dep.Type, src sig.Slot, snk *event.Access) template {
	return template{
		src.Meta & sig.MetaFields,
		uint64(snk.Loc) | uint64(snk.Var)<<32,
		uint64(snk.CtxID) | uint64(uint16(snk.Thread))<<32 |
			uint64(snk.Flags&(event.FlagReduction|event.FlagInduction))<<48 | uint64(t)<<56,
	}
}

// depCacheEntry is one instance template's memo (64 bytes, one cache line):
// the merged-set entry, the static half of the classification, and, once an
// instance was loop-carried, the loop, its aggregate record and this key's
// record within it, so a repeat instance updates all of them without any map
// operation.
type depCacheEntry struct {
	tmpl template
	st   *dep.Stats
	agg  *loopAgg   // aggregate of `loop` (nil until a carried instance)
	ck   *dep.Stats // this key's record within agg.keys (Reduction = allRed)
	// common is prog.CommonDepth of the two contexts, 0 when an instance
	// cannot be carried (no Meta, an INIT, an induction self-dependence).
	common int32
	loop   prog.LoopID // loop of the last carried instance (NoLoop if none)
	// lanes is the run kernel's classification of a same-context template
	// (common == prog.SameCtx): lanes[d] is the loop whose counter is lane d
	// of the iteration vector (0 innermost), for the nlanes lanes the
	// context's stack reaches, at most four. build never reads it: it
	// classifies through CarriedAt, the memo's reference.
	lanes  [4]prog.LoopID
	nlanes uint8
	// reduction: both ends are the same reduction statement.
	reduction bool
}

// laneCarried is CarriedAt for an instance of a same-context template from
// its lanes memo, or for any template with no lanes (nlanes 0): the highest
// lane below nlanes in which the vectors differ names the carrying loop, and
// the gap of its counters is the distance. A lane at or above nlanes reads as
// equal, as CarriedAt's scan starts at the deepest in-range depth.
func (ent *depCacheEntry) laneCarried(srcIter, sinkIter uint64) (prog.LoopID, uint32) {
	x := (srcIter ^ sinkIter) & (1<<(16*uint(ent.nlanes)) - 1)
	if x == 0 {
		return prog.NoLoop, 0
	}
	d := uint(bits.Len64(x)-1) >> 4 & 3
	gap := int32(uint16(sinkIter>>(16*d))) - int32(uint16(srcIter>>(16*d)))
	return ent.lanes[d], uint32(max(gap, -gap))
}

// loopAgg tracks distinct carried dependence keys per loop so LoopDeps can
// report unique counts rather than instance counts. The key set is a
// dep.Set — the same slab-backed table as the dependence sets — with a
// key's Stats.Reduction standing in for "every carried instance so far
// joined two reduction accesses" (a fresh Ref starts Reduction true, and
// both the engine and Set.Merge fold it with AND, which is exactly the
// carried-reduction rule). Ref's pointer stability lets the instance cache
// update a record without a lookup, and worker tables fold through the same
// cache-linear merge as the dependence sets.
type loopAgg struct {
	keys       *dep.Set
	minRAWDist uint32
}

func newLoopAgg() *loopAgg {
	return &loopAgg{keys: dep.NewSet()}
}

// NewEngine returns an engine writing to a fresh dependence set. meta may be
// nil when loop-carried classification is not needed.
//
// The engine has two store arms, chosen here once by the store's type alone:
// a *sig.Signature or a *sig.PerfectSignature is driven through its fused
// record probe (At: one lookup and one write/read pair per access); every
// other store — the §III-B baselines of ddexp stores — through the sig.Store
// interface. Both arms feed the same Algorithm 1 (write, read below), and
// FuzzEngineArms holds them to each other.
//
// Only the race check reads a resident slot's stamp, so only a race-checking
// engine makes a fused store keep them — here, before the first access,
// whoever built the store.
func NewEngine(store sig.Store, meta *prog.Meta, raceCheck bool) *Engine {
	e := &Engine{
		store:     store,
		meta:      meta,
		deps:      dep.NewSet(),
		loops:     make(map[prog.LoopID]*loopAgg),
		raceCheck: raceCheck,
	}
	switch st := store.(type) {
	case *sig.Signature:
		if raceCheck {
			st.KeepStamps()
		}
		e.sg = st
	case *sig.PerfectSignature:
		if raceCheck {
			st.KeepStamps()
		}
		e.pf = st
	}
	return e
}

// CacheStats reports instance-cache probes and hits since construction.
func (e *Engine) CacheStats() (hits, probes uint64) { return e.cacheHits, e.cacheProbes }

// Deps returns the dependence set accumulated so far.
func (e *Engine) Deps() *dep.Set { return e.deps }

// Store returns the engine's access-history store.
func (e *Engine) Store() sig.Store { return e.store }

// Process runs one access through Algorithm 1: the run of one.
func (e *Engine) Process(a event.Access) { e.ProcessRun([]event.Access{a}) }

// ProcessRun runs evs through Algorithm 1 in order, reading each event where
// it lies, and returns the data accesses among them. Kinds other than the
// data kinds and Remove are skipped.
//
// A stretch of n adjacent reads that match in every field Algorithm 1 reads
// (sameRead) takes one store probe and records n instances of its RAW once.
// This is the pipeline's only duplicate-read fold.
// The fold is exact on every store, colliding signatures included: no event
// lies between the reads, so each would find the slots the one before it
// left, build the same RAW and install the same read slot. Only the
// instance-cache counters see it, one probe (and hit) fewer per folded read
// that found a write.
//
// A read over a fused store is the kernel: the committed cell's probe, the
// template's way-0 compare, the classification from the entry (lanes memo,
// or CarriedAt for differing contexts), the stamp compare, ObserveVia and a
// memoized loop's aggregate run here without a call. Everything else takes
// the out-of-line path: a first touch or a modulo table (At), a way-0 miss
// (build, which probes the later ways and fills), a template carried by a
// loop other than its memoized one (carry), a write (write, whose WAW and WAR
// hits take the same path in closing), Remove and the interface arm (plain).
// The kernel's probes are all hits and are counted once per run.
func (e *Engine) ProcessRun(evs []event.Access) (accesses uint64) {
	// The kernel keeps two counters: its hits, and the events that are not
	// data accesses, so that a data access costs no count of its own.
	hits, others := uint64(0), 0
	for i := 0; i < len(evs); i++ {
		a := &evs[i]
		if a.Kind != event.Read && a.Kind != event.Write {
			others++
			if a.Kind == event.Remove {
				// Variable-lifetime analysis: deallocated storage is forgotten so
				// a later reuse of the address cannot fabricate a dependence.
				e.store.Remove(a.Addr)
			}
			continue
		}
		var c sig.Cell
		ok := false
		switch {
		case e.sg != nil:
			c, ok = e.sg.Committed(a.Addr)
		case e.pf != nil:
			c, ok = e.pf.Committed(a.Addr)
		default:
			i += e.plain(evs[i:len(evs):len(evs)])
			continue
		}
		if !ok {
			c = e.at(a.Addr)
		}
		if a.Kind == event.Write {
			c.SetW(e.write(c.W(), c.R(), a))
			continue
		}
		n := uint64(1)
		for i+1 < len(evs) && sameRead(&evs[i+1], a) {
			i++
			n++
		}
		if w := c.W(); !w.Empty() {
			k := templateOf(dep.RAW, w, a)
			ent := &e.cache[dep.Mix(k[0], k[1], k[2])>>(64-depCacheSetBits)][0]
			if ent.tmpl != k {
				e.build(dep.RAW, w, a, n)
			} else {
				hits++
				var carriedAt prog.LoopID
				var dist uint32
				if ent.common > 0 {
					carriedAt, dist = e.meta.CarriedAt(w.Ctx(), a.CtxID, int(ent.common), w.Iter, a.IterVec)
				} else {
					carriedAt, dist = ent.laneCarried(w.Iter, a.IterVec)
				}
				e.deps.ObserveVia(ent.st, n, carriedAt != prog.NoLoop, ent.reduction, e.reversed(w, a), dist)
				if carriedAt != prog.NoLoop {
					if ent.loop != carriedAt {
						e.carry(ent, dep.RAW, w, a, carriedAt)
					}
					ent.ck.Reduction = ent.ck.Reduction && ent.reduction
					if ent.agg.minRAWDist == 0 || dist < ent.agg.minRAWDist {
						ent.agg.minRAWDist = dist
					}
				}
			}
		}
		c.SetR(e.slotFor(a))
	}
	e.cacheHits += hits
	e.cacheProbes += hits
	return uint64(len(evs) - others)
}

// at is the fused arms' out-of-line cell: a first touch, or any access to a
// signature whose slot count is not a power of two.
func (e *Engine) at(addr uint64) sig.Cell {
	if e.sg != nil {
		return e.sg.At(addr)
	}
	return e.pf.At(addr)
}

// plain runs the data access evs[0], with the reads folded into it, through
// the sig.Store interface, the arm of every store but the two fused ones, and
// returns how many reads it folded.
func (e *Engine) plain(evs []event.Access) (folded int) {
	a := &evs[0]
	w, _ := e.store.LookupWrite(a.Addr)
	if a.Kind == event.Write {
		r, _ := e.store.LookupRead(a.Addr)
		e.store.SetWrite(a.Addr, e.write(w, r, a))
		return 0
	}
	for folded+1 < len(evs) && sameRead(&evs[folded+1], a) {
		folded++
	}
	e.store.SetRead(a.Addr, e.read(w, a, uint64(folded)+1))
	return folded
}

// sameRead reports whether b is a read that matches read a in every field
// Algorithm 1 reads. Addr leads the comparison because it is what differs
// between neighbours.
func sameRead(b, a *event.Access) bool {
	return b.Addr == a.Addr && b.Kind == event.Read && b.IterVec == a.IterVec &&
		b.Loc == a.Loc && b.TS == a.TS && b.Var == a.Var &&
		b.CtxID == a.CtxID && b.Thread == a.Thread && b.Flags == a.Flags
}

// write is the write half of Algorithm 1: given the slots resident for the
// address, it records the dependences the write closes and returns the slot
// to install as the address's last write. An empty slot means "never
// accessed", for every store.
//
// The paper's pseudocode nests the WAR check inside the "write slot
// non-empty" branch, which would miss a WAR whose address was only read so
// far (read x; first write x). We build the WAR from the read slot
// unconditionally — the semantically intended behaviour, consistent with the
// paper's prose ("we run the membership check to see if x exists in the
// signatures") and with its own Figure 1, and the INIT/WAW logic is
// unchanged.
func (e *Engine) write(w, r sig.Slot, a *event.Access) sig.Slot {
	if w.Empty() {
		// First write to this address: INIT (paper §III-A), from no source.
		e.build(dep.INIT, sig.Slot{}, a, 1)
	} else {
		e.closing(dep.WAW, w, a)
	}
	if !r.Empty() {
		e.closing(dep.WAR, r, a)
	}
	return e.slotFor(a)
}

// closing records the WAW or WAR instance from src that the write a closes:
// the run kernel's hit path, out of its loop — the way-0 compare, the
// classification from the entry, ObserveVia and a memoized loop's record —
// and build for anything else. Its probe is counted at once.
func (e *Engine) closing(t dep.Type, src sig.Slot, a *event.Access) {
	k := templateOf(t, src, a)
	ent := &e.cache[dep.Mix(k[0], k[1], k[2])>>(64-depCacheSetBits)][0]
	if ent.tmpl != k {
		e.build(t, src, a, 1)
		return
	}
	e.cacheHits++
	e.cacheProbes++
	var carriedAt prog.LoopID
	var dist uint32
	if ent.common > 0 {
		carriedAt, dist = e.meta.CarriedAt(src.Ctx(), a.CtxID, int(ent.common), src.Iter, a.IterVec)
	} else {
		carriedAt, dist = ent.laneCarried(src.Iter, a.IterVec)
	}
	e.deps.ObserveVia(ent.st, 1, carriedAt != prog.NoLoop, ent.reduction, e.reversed(src, a), dist)
	if carriedAt != prog.NoLoop {
		if ent.loop != carriedAt {
			e.carry(ent, t, src, a, carriedAt)
		}
		ent.ck.Reduction = ent.ck.Reduction && ent.reduction
	}
}

// read is the read half: a RAW against the resident write, and the slot to
// install as the address's last read.
func (e *Engine) read(w sig.Slot, a *event.Access, n uint64) sig.Slot {
	if !w.Empty() {
		e.build(dep.RAW, w, a, n)
	}
	return e.slotFor(a)
}

// slotFor packs the access into a store slot. Pointer arg: the event where
// ProcessRun reads it, sparing a 48-byte stack copy per call.
func (e *Engine) slotFor(a *event.Access) sig.Slot {
	s := sig.PackSlot(a.Loc, a.Var, a.Thread, a.CtxID, a.IterVec, a.TS)
	if a.Flags&event.FlagReduction != 0 {
		s = s.WithReduction()
	}
	if a.Flags&event.FlagInduction != 0 {
		s = s.WithInduction()
	}
	return s
}

// build records n instances of a dependence from the stored source slot to
// the sink access (passed by pointer for the same reason as slotFor),
// classified carried, reduction and reversed. Only the per-instance part is
// computed here, the static part comes from the instance's cache entry.
func (e *Engine) build(t dep.Type, src sig.Slot, snk *event.Access, n uint64) {
	ent := e.entry(t, src, snk)
	carriedAt, dist := prog.NoLoop, uint32(0)
	if ent.common != 0 {
		carriedAt, dist = e.meta.CarriedAt(src.Ctx(), snk.CtxID, int(ent.common), src.Iter, snk.IterVec)
	}
	e.deps.ObserveVia(ent.st, n, carriedAt != prog.NoLoop, ent.reduction, e.reversed(src, snk), dist)
	if carriedAt == prog.NoLoop {
		return
	}
	if ent.loop != carriedAt {
		e.carry(ent, t, src, snk, carriedAt)
	}
	ent.ck.Reduction = ent.ck.Reduction && ent.reduction
	if t == dep.RAW && (ent.agg.minRAWDist == 0 || dist < ent.agg.minRAWDist) {
		ent.agg.minRAWDist = dist
	}
}

// reversed is the race check of a race-checking engine, §V-B over sync
// epochs (event.Batcher): happens-before across threads implies a larger
// stamp, so a smaller one, or an equal one from another thread, proves the
// pair unordered. An INIT's empty source has stamp 0.
func (e *Engine) reversed(src sig.Slot, snk *event.Access) bool {
	return e.raceCheck && (snk.TS < src.TS || snk.TS == src.TS && snk.TS != 0 && snk.Thread&sig.ThreadMask != src.Thread())
}

// carryMemo is one dependence's record in one loop's aggregate, as carry
// looked it up: st names the dependence (its record in the engine's set, one
// per key), agg and ck are the loop's aggregate and the key's record in it.
type carryMemo struct {
	st   *dep.Stats
	agg  *loopAgg
	ck   *dep.Stats
	loop prog.LoopID
}

// carry's memo holds 256 pairs (8 KiB), direct-mapped. A template
// alternates between loops where an inner loop restarts, so the pairs in use
// at once are about two per hot template.
const (
	carryMemoBits = 8
	carryMemoSize = 1 << carryMemoBits
)

// carry memoizes in ent the loop that carries its template's instance now —
// the first carried instance since the entry was filled, or the template is
// carried by another loop than the last — with that loop's aggregate record
// and the instance's key within it. A fresh key record starts Reduction
// (= allRed) true. carried answers first, keyed by the dependence's record
// and the loop, whose aggregate and key record stay put for the engine's
// life; the loop map and the key set only on a memo miss.
func (e *Engine) carry(ent *depCacheEntry, t dep.Type, src sig.Slot, snk *event.Access, loop prog.LoopID) {
	m := &e.carried[dep.Mix(uint64(uintptr(unsafe.Pointer(ent.st))), uint64(loop), 0)>>(64-carryMemoBits)]
	if m.st != ent.st || m.loop != loop {
		agg := e.loops[loop]
		if agg == nil {
			agg = newLoopAgg()
			e.loops[loop] = agg
		}
		*m = carryMemo{st: ent.st, agg: agg, ck: agg.keys.Ref(depKey(t, src, snk)), loop: loop}
	}
	ent.loop, ent.agg, ent.ck = loop, m.agg, m.ck
}

// entry returns the instance's cache entry, filling it on a miss. The
// three template words are mixed (dep.Mix) and the set is the hash's top
// bits. A hit in a later way swaps it into way 0, where the next repeat
// finds it at the first compare; a miss shifts the set down a way, evicting
// the last, and fills way 0.
func (e *Engine) entry(t dep.Type, src sig.Slot, snk *event.Access) *depCacheEntry {
	e.cacheProbes++
	k := templateOf(t, src, snk)
	set := &e.cache[dep.Mix(k[0], k[1], k[2])>>(64-depCacheSetBits)]
	if set[0].tmpl == k {
		e.cacheHits++
		return &set[0]
	}
	for w := 1; w < depCacheWays; w++ {
		if set[w].tmpl == k {
			e.cacheHits++
			set[0], set[w] = set[w], set[0]
			return &set[0]
		}
	}
	copy(set[1:], set[:depCacheWays-1])
	e.fill(&set[0], k, t, src, snk)
	return &set[0]
}

// fill computes the static part of an instance of template k: the
// dependence set's entry and the template-fixed half of the classification,
// and for a same-context template the lanes memo of the run kernel.
func (e *Engine) fill(ent *depCacheEntry, k template, t dep.Type, src sig.Slot, snk *event.Access) {
	common := 0
	var lanes [4]prog.LoopID
	nlanes := 0
	// Induction-variable self-dependences (i = i + step feeding the next
	// iteration's update) are loop control: a parallelizing transformation
	// replaces the induction entirely, so they are recorded as ordinary
	// dependences (Figure 1 keeps them) but never as parallelism-preventing
	// carried dependences.
	induction := src.Induction() && snk.Flags&event.FlagInduction != 0 && src.Loc() == snk.Loc
	if e.meta != nil && t != dep.INIT && !induction {
		common = e.meta.CommonDepth(src.Ctx(), snk.CtxID)
		if common == prog.SameCtx {
			ss := e.meta.Stack(snk.CtxID)
			nlanes = min(len(ss), len(lanes))
			for d := range nlanes {
				lanes[d] = ss[len(ss)-1-d]
			}
		}
	}
	*ent = depCacheEntry{
		tmpl:      k,
		st:        e.deps.Ref(depKey(t, src, snk)),
		common:    int32(common),
		loop:      prog.NoLoop,
		lanes:     lanes,
		nlanes:    uint8(nlanes),
		reduction: src.Reduction() && snk.Flags&event.FlagReduction != 0 && src.Loc() == snk.Loc,
	}
}

// depKey is the dependence an instance of type t from src to snk belongs
// to. An INIT's empty source gives it source location and thread 0.
func depKey(t dep.Type, src sig.Slot, snk *event.Access) dep.Key {
	return dep.Key{
		Type: t, Sink: snk.Loc, Src: src.Loc(), Var: snk.Var,
		SinkThread: int16(snk.Thread), SrcThread: int16(src.Thread()),
	}
}

// summary renders one loop's aggregate as a LoopDeps row.
func (agg *loopAgg) summary() *LoopDeps {
	ld := &LoopDeps{MinRAWDist: agg.minRAWDist}
	agg.keys.Range(func(k dep.Key, ck dep.Stats) bool {
		switch k.Type {
		case dep.RAW:
			ld.CarriedRAW++
			if ck.Reduction {
				ld.CarriedRAWRed++
			}
		case dep.WAR:
			ld.CarriedWAR++
		case dep.WAW:
			ld.CarriedWAW++
		}
		return true
	})
	return ld
}

// LoopDeps summarizes per-loop carried dependences.
func (e *Engine) LoopDeps() map[prog.LoopID]*LoopDeps {
	return loopDepsOf(e.loops)
}

// loopDepsOf summarizes a loop-aggregate table.
func loopDepsOf(aggs map[prog.LoopID]*loopAgg) map[prog.LoopID]*LoopDeps {
	out := make(map[prog.LoopID]*LoopDeps, len(aggs))
	for id, agg := range aggs {
		out[id] = agg.summary()
	}
	return out
}

// mergeLoopAggs folds worker carried-key tables into dst, unioning the key
// sets: the same dependence key can surface on several workers (same source
// lines, different addresses) and must count once, exactly as in a serial
// run. Reduction eligibility is the AND over all instances, so per-worker
// flags combine with AND — which is exactly Set.Merge's Reduction fold.
// mergeLoopAggs consumes src: a loop seen only there moves into dst whole,
// a shared loop's key slabs are folded and released. Both folds are
// commutative and associative, so the order the merge stage visits the
// workers in does not matter.
func mergeLoopAggs(dst, src map[prog.LoopID]*loopAgg) {
	for id, s := range src {
		d := dst[id]
		if d == nil {
			dst[id] = s
			continue
		}
		d.keys.Merge(s.keys)
		s.keys.Release()
		if d.minRAWDist == 0 || (s.minRAWDist > 0 && s.minRAWDist < d.minRAWDist) {
			d.minRAWDist = s.minRAWDist
		}
	}
}
