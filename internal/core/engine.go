// Package core implements the paper's primary contribution: the generic
// data-dependence profiler. It contains the signature-based detection engine
// (Algorithm 1), the serial profiler (§III), the lock-free parallel profiler
// for sequential targets (§IV), and the multi-threaded-target profiler with
// sync-epoch data-race flagging (§V).
package core

import (
	"math/bits"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
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
	// sg is the store itself when it is a *sig.Signature: Process then goes
	// through its fused pair probe instead of the interface. Fixed at
	// construction.
	sg    *sig.Signature
	meta  *prog.Meta
	deps  *dep.Set
	loops map[prog.LoopID]*loopAgg
	// raceCheck enables the epoch race rule of build (MT-target mode).
	raceCheck bool
	// epoch is the current epoch-clock reading, stamped onto per-loop
	// aggregate tables created from now on (the dependence set carries its
	// own copy); advanced by ExtractEpochDelta.
	epoch uint32
	// trackBounds enables the per-variable address-interval index behind
	// address-range provenance queries (set by makeEngines when the pipeline
	// has a delta sink); bounds is that index, by VarID.
	trackBounds bool
	bounds      []varBound

	// cache is a direct-mapped instance cache over dependence identity: the
	// overwhelmingly common case is the same static dependence firing every
	// iteration (the instance redundancy dependence merging exploits for
	// space, §III-B), so memoizing the map entries for the last key that
	// hashed to each slot turns the per-instance map lookups — the dependence
	// set and, for carried instances, the per-loop aggregate — into pointer
	// dereferences.
	cache       [depCacheSize]depCacheEntry
	cacheHits   uint64
	cacheProbes uint64
}

// depCacheSize is the number of direct-mapped instance-cache entries. The
// working set is the static dependence count of the profiled region, which
// the paper's merging ablation puts orders of magnitude below this.
const (
	depCacheSize = 1 << 9
	depCacheMask = depCacheSize - 1
)

// pkey is a dependence identity packed for the hot path: the five fields of
// a dep.Key in two words plus the type. A dep.Key built field by field is 17
// bytes of narrow stores that every later compare, hash and copy re-reads as
// wide loads; a pkey is built with shifts in registers, compared with three
// compares and hashed with one multiply. PROMPT keeps its dependence identity
// in one machine word for the same reason. A dep.Key is materialised (key)
// only where a dep.Set is consulted: on an instance-cache miss.
type pkey struct {
	a uint64 // sink | src<<32
	b uint64 // var | uint16(sinkThread)<<32 | uint16(srcThread)<<48
	t dep.Type
}

func packKey(t dep.Type, sink, src loc.SourceLoc, v loc.VarID, sinkThread, srcThread int16) pkey {
	return pkey{
		a: uint64(sink) | uint64(src)<<32,
		b: uint64(v) | uint64(uint16(sinkThread))<<32 | uint64(uint16(srcThread))<<48,
		t: t,
	}
}

// key unpacks the identity into the dependence set's key type.
func (k pkey) key() dep.Key {
	return dep.Key{
		Type: k.t,
		Sink: loc.SourceLoc(uint32(k.a)), Src: loc.SourceLoc(k.a >> 32),
		Var:        loc.VarID(uint32(k.b)),
		SinkThread: int16(k.b >> 32), SrcThread: int16(k.b >> 48),
	}
}

// hash mixes the identity into an instance-cache index. One multiply over
// both words keeps the hit path short; XORing b rotated by 32 puts Var
// against Src and the thread/type bits against Sink, so keys differing in
// any single field land on distinct inputs to the multiplier.
func (k pkey) hash() uint32 {
	h := (k.a ^ bits.RotateLeft64(k.b|uint64(k.t)<<40, 32)) * 0x9E3779B97F4A7C15
	return uint32(h >> 32)
}

// depCacheEntry memoizes the merged-set entry for one dependence key and,
// when the key's last instance was loop-carried, the per-loop aggregate
// record, so a repeat instance updates both without any map operation.
type depCacheEntry struct {
	key  pkey
	st   *dep.Stats
	agg  *loopAgg    // aggregate of `loop` (nil until a carried instance)
	ck   *dep.Stats  // this key's record within agg.keys (Reduction = allRed)
	loop prog.LoopID // loop of the last carried instance (NoLoop if none)
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
// a *sig.Signature is driven through its fused pair probe (sig.At: one hash
// and one pair per access); every other store — the exact ones — through the
// sig.Store interface. Both arms feed the same Algorithm 1
// (write, read below), and FuzzEngineArms holds them to each other.
//
// Only the race check reads a resident slot's stamp, so only a race-checking
// engine makes a signature keep them — here, before the first access, whoever
// built the store.
func NewEngine(store sig.Store, meta *prog.Meta, raceCheck bool) *Engine {
	e := &Engine{
		store:     store,
		meta:      meta,
		deps:      dep.NewSet(),
		loops:     make(map[prog.LoopID]*loopAgg),
		raceCheck: raceCheck,
	}
	if g, ok := store.(*sig.Signature); ok {
		if raceCheck {
			g.KeepStamps()
		}
		e.sg = g
	}
	return e
}

// CacheStats reports instance-cache probes and hits since construction.
func (e *Engine) CacheStats() (hits, probes uint64) { return e.cacheHits, e.cacheProbes }

// Deps returns the dependence set accumulated so far.
func (e *Engine) Deps() *dep.Set { return e.deps }

// Store returns the engine's access-history store.
func (e *Engine) Store() sig.Store { return e.store }

// Process runs one access through Algorithm 1.
func (e *Engine) Process(a event.Access) {
	switch a.Kind {
	case event.Write:
		if e.trackBounds {
			e.noteBounds(a.Var, a.Addr)
		}
		if e.sg != nil {
			c := e.sg.At(a.Addr)
			c.SetW(e.write(c.W(), c.R(), &a))
			return
		}
		w, _ := e.store.LookupWrite(a.Addr)
		r, _ := e.store.LookupRead(a.Addr)
		e.store.SetWrite(a.Addr, e.write(w, r, &a))
	case event.Read:
		if e.trackBounds {
			e.noteBounds(a.Var, a.Addr)
		}
		// A collapsed event stands for 1+Rep identical reads against the
		// same (unchanged) write slot: 1+Rep instances of the same RAW.
		n := 1 + uint64(a.Rep)
		if e.sg != nil {
			c := e.sg.At(a.Addr)
			c.SetR(e.read(c.W(), &a, n))
			return
		}
		w, _ := e.store.LookupWrite(a.Addr)
		e.store.SetRead(a.Addr, e.read(w, &a, n))
	case event.Remove:
		// Variable-lifetime analysis: deallocated storage is forgotten so a
		// later reuse of the address cannot fabricate a dependence.
		e.store.Remove(a.Addr)
	}
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
		// First write to this address: INIT (paper §III-A).
		e.record(initKey(a.Loc, a.Var, a.Thread), prog.NoLoop, false, false, 0, 1)
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

// initKey is the identity of a first write: a sink and nothing else.
func initKey(l loc.SourceLoc, v loc.VarID, thread int32) pkey {
	return packKey(dep.INIT, l, 0, v, int16(thread), 0)
}

// slotFor packs the access into a store slot. Pointer arg: callers pass the
// addressable Process copy, sparing a 48-byte stack copy per call.
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
// the sink access (passed by pointer for the same reason as slotFor): its key
// plus the carried/reduction/reversed classification.
func (e *Engine) build(t dep.Type, src sig.Slot, snk *event.Access, n uint64) {
	carriedAt, dist := prog.NoLoop, uint32(0)
	if e.meta != nil {
		carriedAt, dist = e.meta.CarriedLoopDist(src.Ctx(), snk.CtxID, src.Iter, snk.IterVec)
	}
	// Induction-variable self-dependences (i = i + step feeding the next
	// iteration's update) are loop control: a parallelizing transformation
	// replaces the induction entirely, so they are recorded as ordinary
	// dependences (Figure 1 keeps them) but never as parallelism-preventing
	// carried dependences.
	if carriedAt != prog.NoLoop &&
		src.Induction() && snk.Flags&event.FlagInduction != 0 && src.Loc() == snk.Loc {
		carriedAt, dist = prog.NoLoop, 0
	}
	reduction := src.Reduction() && snk.Flags&event.FlagReduction != 0 &&
		src.Loc() == snk.Loc
	// §V-B over sync epochs (event.Batcher): happens-before across threads
	// implies a larger stamp, so a smaller one, or an equal one from another
	// thread (compared at the slot's 9-bit width), proves the pair unordered.
	reversed := e.raceCheck && (snk.TS < src.TS ||
		snk.TS == src.TS && snk.TS != 0 && snk.Thread&sig.ThreadMask != src.Thread())
	k := packKey(t, snk.Loc, src.Loc(), snk.Var, int16(snk.Thread), int16(src.Thread()))
	e.record(k, carriedAt, reduction, reversed, dist, n)
}

// record merges n identical instances of dependence k into the set and the
// per-loop aggregates through the instance cache: only a miss consults the
// maps.
func (e *Engine) record(k pkey, carriedAt prog.LoopID, reduction, reversed bool, dist uint32, n uint64) {
	e.cacheProbes++
	ent := &e.cache[k.hash()&depCacheMask]
	st := ent.st
	if st != nil && ent.key == k {
		e.cacheHits++
	} else {
		st = e.deps.Ref(k.key())
		*ent = depCacheEntry{key: k, st: st, loop: prog.NoLoop}
	}
	e.deps.ObserveVia(st, n, carriedAt != prog.NoLoop, reduction, reversed, dist)
	if carriedAt == prog.NoLoop {
		return
	}

	if ent.loop != carriedAt {
		// First carried instance since the entry was filled (or the key is
		// carried by another loop now): memoize the loop's aggregate record.
		agg := e.loops[carriedAt]
		if agg == nil {
			agg = newLoopAgg()
			agg.keys.SetEpoch(e.epoch)
			e.loops[carriedAt] = agg
		}
		// Fresh records start Reduction (= allRed) true.
		ent.loop, ent.agg, ent.ck = carriedAt, agg, agg.keys.Ref(k.key())
	}
	// Count advances too — summaries never read it, but the epoch-delta
	// extractor detects change by Count-vs-watermark, and this keeps the
	// carried-key tables extractable like the dependence sets.
	ent.ck.Count += n
	ent.ck.Reduction = ent.ck.Reduction && reduction
	if k.t == dep.RAW && (ent.agg.minRAWDist == 0 || dist < ent.agg.minRAWDist) {
		ent.agg.minRAWDist = dist
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

// carriedKeysOf exposes the merged per-loop carried-key tables themselves
// (not copies): the provenance queries of the live observatory answer "what
// does loop L carry" from these after the merge, and the final watch frame
// extracts their unshipped remainder.
func carriedKeysOf(aggs map[prog.LoopID]*loopAgg) map[prog.LoopID]*dep.Set {
	out := make(map[prog.LoopID]*dep.Set, len(aggs))
	for id, agg := range aggs {
		out[id] = agg.keys
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
