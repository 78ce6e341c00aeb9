// Package core implements the paper's primary contribution: the generic
// data-dependence profiler. It contains the signature-based detection engine
// (Algorithm 1), the serial profiler (§III), the lock-free parallel profiler
// for sequential targets (§IV), and the multi-threaded-target profiler with
// sync-epoch data-race flagging (§V).
package core

import (
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
	store sig.Store
	// sg or pf is the store itself when it is a *sig.Signature or a
	// *sig.PerfectSignature: Process then goes through its fused record
	// probe instead of the interface. Fixed at construction.
	sg    *sig.Signature
	pf    *sig.PerfectSignature
	meta  *prog.Meta
	deps  *dep.Set
	loops map[prog.LoopID]*loopAgg
	// raceCheck enables the epoch race rule of build (MT-target mode).
	raceCheck bool

	// cache is the instance cache: the overwhelmingly common case is the
	// same static dependence firing every iteration (the instance
	// redundancy dependence merging exploits for space, §III-B), so each
	// entry memoizes, per instance template, everything an instance does
	// not change: the map entries (the dependence set's and, once carried,
	// the per-loop aggregate's) and the classification's static half.
	cache       [depCacheSets][depCacheWays]depCacheEntry
	cacheHits   uint64
	cacheProbes uint64
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

// depCacheEntry is one instance template's memo (56 bytes): the merged-set
// entry, the static half of build's classification, and, once an instance
// was loop-carried, the loop, its aggregate record and this key's record
// within it, so a repeat instance updates all of them without any map
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
	// reduction: both ends are the same reduction statement; cross: the
	// ends are on different threads at the slot's thread width.
	reduction, cross bool
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
func (e *Engine) ProcessRun(evs []event.Access) (accesses uint64) {
	for i := 0; i < len(evs); i++ {
		a := &evs[i]
		switch a.Kind {
		case event.Write:
			accesses++
			var c sig.Cell
			switch {
			case e.sg != nil:
				c = e.sg.At(a.Addr)
			case e.pf != nil:
				c = e.pf.At(a.Addr)
			default:
				w, _ := e.store.LookupWrite(a.Addr)
				r, _ := e.store.LookupRead(a.Addr)
				e.store.SetWrite(a.Addr, e.write(w, r, a))
				continue
			}
			c.SetW(e.write(c.W(), c.R(), a))
		case event.Read:
			n := uint64(1)
			for i+1 < len(evs) && sameRead(&evs[i+1], a) {
				i++
				n++
			}
			accesses += n
			var c sig.Cell
			switch {
			case e.sg != nil:
				c = e.sg.At(a.Addr)
			case e.pf != nil:
				c = e.pf.At(a.Addr)
			default:
				w, _ := e.store.LookupWrite(a.Addr)
				e.store.SetRead(a.Addr, e.read(w, a, n))
				continue
			}
			c.SetR(e.read(c.W(), a, n))
		case event.Remove:
			// Variable-lifetime analysis: deallocated storage is forgotten so a
			// later reuse of the address cannot fabricate a dependence.
			e.store.Remove(a.Addr)
		}
	}
	return accesses
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
		e.build(dep.WAW, w, a, 1)
	}
	if !r.Empty() {
		e.build(dep.WAR, r, a, 1)
	}
	return e.slotFor(a)
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
	// §V-B over sync epochs (event.Batcher): happens-before across threads
	// implies a larger stamp, so a smaller one, or an equal one from another
	// thread, proves the pair unordered. An INIT's empty source has stamp 0.
	reversed := e.raceCheck && (snk.TS < src.TS || snk.TS == src.TS && snk.TS != 0 && ent.cross)
	e.deps.ObserveVia(ent.st, n, carriedAt != prog.NoLoop, ent.reduction, reversed, dist)
	if carriedAt == prog.NoLoop {
		return
	}

	if ent.loop != carriedAt {
		// First carried instance since the entry was filled (or the template
		// is carried by another loop now): memoize the loop's aggregate
		// record.
		agg := e.loops[carriedAt]
		if agg == nil {
			agg = newLoopAgg()
			e.loops[carriedAt] = agg
		}
		// Fresh records start Reduction (= allRed) true.
		ent.loop, ent.agg, ent.ck = carriedAt, agg, agg.keys.Ref(depKey(t, src, snk))
	}
	ent.ck.Reduction = ent.ck.Reduction && ent.reduction
	if t == dep.RAW && (ent.agg.minRAWDist == 0 || dist < ent.agg.minRAWDist) {
		ent.agg.minRAWDist = dist
	}
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
// dependence set's entry and the template-fixed half of the classification.
func (e *Engine) fill(ent *depCacheEntry, k template, t dep.Type, src sig.Slot, snk *event.Access) {
	common := 0
	// Induction-variable self-dependences (i = i + step feeding the next
	// iteration's update) are loop control: a parallelizing transformation
	// replaces the induction entirely, so they are recorded as ordinary
	// dependences (Figure 1 keeps them) but never as parallelism-preventing
	// carried dependences.
	induction := src.Induction() && snk.Flags&event.FlagInduction != 0 && src.Loc() == snk.Loc
	if e.meta != nil && t != dep.INIT && !induction {
		common = e.meta.CommonDepth(src.Ctx(), snk.CtxID)
	}
	*ent = depCacheEntry{
		tmpl:      k,
		st:        e.deps.Ref(depKey(t, src, snk)),
		common:    int32(common),
		loop:      prog.NoLoop,
		reduction: src.Reduction() && snk.Flags&event.FlagReduction != 0 && src.Loc() == snk.Loc,
		cross:     snk.Thread&sig.ThreadMask != src.Thread(),
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
