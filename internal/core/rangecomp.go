package core

// Range-compressed ingestion: SD3 stride detection (Kim, Kim, Luk — MICRO'10,
// the related-work §II compression the paper credits with taming profiling
// cost) fused into the §IV producer. Every array sweep used to travel the
// pipeline as one chunk slot per element, paying routing, slot, signature and
// dependence-set costs N times for what is a single (base, stride, count)
// fact; here the producer learns strides per instruction and rewrites
// confirmed runs into event.Range records in place, so a 10k-element sweep
// reaches its worker as a handful of range slots.
//
// Correctness contract: expanding every range, in element order, at its slot
// position must reproduce the per-address processing order of the
// uncompressed stream. Only the newest access ever moves — it is either
// absorbed at the tail of an instruction's open range, or merged with that
// instruction's immediately preceding point into a fresh two-element range —
// and each such move is legal only if no later event in the chunk touches the
// moved address. That is enforced by a per-owner last-touch table; all cached
// producer state (the direct-mapped instruction table, the last-touch cells)
// may alias, so every merge decision is additionally verified against the
// actual chunk content before it is applied. Profiles are therefore
// byte-identical with compression on and off over exact stores
// (Config.NoStrideCompression is the A/B switch, held to that by the golden
// fixtures and the equivalence suite); over the approximate Signature,
// reordering accesses to distinct addresses can at most flip which colliding
// access a shared slot retains — the same error class Eq. (2) already models.

import (
	"ddprof/internal/event"
	"ddprof/internal/stride"
)

const (
	// instrSlots sizes the direct-mapped per-instruction detector table. The
	// working set is the static instruction count of the profiled region ×
	// workers; collisions only evict detectors (missed compression), never
	// correctness, so the table is kept small enough to stay cache-resident.
	instrSlots = 1 << 9
	// touchCells sizes each owner's last-touch table. A cell holds the
	// position of the last chunk event whose address hashed there, so a
	// colliding address reads a position ≥ its true last touch — conservative
	// in the safe direction (merges are blocked, never wrongly allowed).
	touchCells = 1 << 11
	touchMask  = touchCells - 1
	// maxRangeCount caps producer-built runs; longer sweeps simply continue
	// in a fresh range. Bounded so a range always fits the wire encoding and
	// a single worker dispatch stays a bounded unit of work.
	maxRangeCount = 1<<16 - 1
)

// touchCell records the chunk position of the last event whose address
// hashed to this cell. epoch tags the open-chunk generation: a stale epoch
// reads as "never touched", which is exact (not just conservative) because
// previous chunks are fully pushed before the current one opens.
type touchCell struct {
	pos   int32
	epoch uint32
}

// ownerState is the per-owner compression state alongside the owner's open
// chunk.
type ownerState struct {
	// epoch is the open-chunk generation, bumped on every push. (A uint32
	// wrap after 2^32 pushes could let a stale cell alias a live one; at
	// 4096 events per chunk that is ~10^13 events per owner, and the chunk
	// content checks still bound the damage to a misplaced merge.)
	epoch uint32
	// floor is a conservative lower bound on every address's last touch,
	// raised when an opaque ingested sub-range is appended (its addresses
	// are not hashed individually); -1 when no floor applies.
	floor int32
	// pending counts the logical accesses buffered in the open chunk (a
	// range counts its element count), published as events_total on push so
	// the counter's meaning is unchanged by compression.
	pending uint64
	touch   [touchCells]touchCell
}

// lastTouch returns a position p such that no event after p in the open
// chunk touches addr (conservatively: collisions and the floor can only
// raise it). -1 means addr is untouched.
func (os *ownerState) lastTouch(addr uint64) int32 {
	p := os.floor
	if c := &os.touch[(addr>>3)&touchMask]; c.epoch == os.epoch && c.pos > p {
		p = c.pos
	}
	return p
}

// noteTouch records that addr was touched at chunk position pos.
func (os *ownerState) noteTouch(addr uint64, pos int32) {
	c := &os.touch[(addr>>3)&touchMask]
	if c.epoch != os.epoch || c.pos < pos {
		*c = touchCell{pos: pos, epoch: os.epoch}
	}
}

// instrEntry is one direct-mapped instruction-table entry: the embedded
// (by value — zero allocation, no pointer chase) stride FSM plus the cached
// chunk positions of this instruction's last appended point and open range.
type instrEntry struct {
	key       uint64
	epoch     uint32 // owner-chunk generation lastSlot/rangeSlot refer to
	lastSlot  int32  // slot of the last appended point; -1 none
	rangeSlot int32  // slot of the open RangeRef; -1 none
	rangeIdx  int32  // index into the open chunk's Ranges
	det       stride.Detector
}

// instrKey packs the fields that identify one instruction stream per owner.
// Var/CtxID are left out (they are verified against chunk content on every
// merge); the owner byte gives each owner its own detector, so the owner's
// strided subsequence — itself strided, with stride × workers — is what the
// FSM learns, and ranges never structurally cross the owner mask.
func instrKey(a *event.Access, w int) uint64 {
	return uint64(a.Loc) | uint64(uint8(a.Thread))<<32 |
		uint64(a.Kind)<<40 | uint64(uint8(w))<<48 | uint64(a.Flags)<<56
}

// instrIdx maps a key to its direct-mapped table slot.
func instrIdx(key uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15) >> (64 - 9)
}

// compressAppend tries to place a — the newest access, routed to owner w —
// inside an existing or fresh strided range of its instruction instead of
// appending a point. It returns the instruction entry (so the caller can
// record the appended point's slot on the miss path) and whether a was
// absorbed. Caller guarantees: a.Kind is Read or Write, a.Rep == 0, and the
// duplicate-read filter already declined to collapse a.
func (pr *producer) compressAppend(a *event.Access, w int) (*instrEntry, bool) {
	c := pr.open[w]
	os := &pr.own[w]
	key := instrKey(a, w)
	ent := &pr.instr[instrIdx(key)]
	if ent.key != key {
		// Eviction: a colliding instruction owned the slot. Restart the FSM.
		*ent = instrEntry{key: key, lastSlot: -1, rangeSlot: -1}
	}
	if ent.epoch != os.epoch {
		ent.lastSlot, ent.rangeSlot = -1, -1
		ent.epoch = os.epoch
	}
	// a's touch cell serves both the legality check (last <= q: nothing after
	// the merge slot touched a.Addr) and, on success, the touch update — one
	// hash for both.
	cell := &os.touch[(a.Addr>>3)&touchMask]
	last := os.floor
	if cell.epoch == os.epoch && cell.pos > last {
		last = cell.pos
	}

	// Extension: the instruction has an open range in this chunk. The cached
	// slot/range linkage is re-verified against the chunk (the table is
	// direct-mapped and may alias) and the move is legal only if nothing
	// after the range's slot touches the new address. A successful extension
	// proves the detector's learned stride held (the range was built from it
	// and the previous access of this instruction landed on the same run), so
	// the FSM advances via the inline fast path; the full Track transition
	// runs only when the run breaks.
	if ent.rangeSlot >= 0 {
		q := ent.rangeSlot
		if int(q) < c.Len() && int(ent.rangeIdx) < len(c.Ranges) {
			slot := &c.Events[q]
			if slot.Kind == event.RangeRef && slot.Addr == uint64(ent.rangeIdx) {
				r := &c.Ranges[ent.rangeIdx]
				if r.Kind == a.Kind && r.Count < maxRangeCount &&
					a.Addr == r.Base+uint64(r.Count)*r.Stride &&
					a.TS == r.TS && a.Loc == r.Loc && a.Var == r.Var &&
					a.CtxID == r.CtxID && a.Thread == r.Thread && a.Flags == r.Flags &&
					a.IterVec == r.IterVec+uint64(r.Count)*r.IterDelta &&
					last <= q {
					r.Count++
					ent.det.Advance(a.Addr)
					*cell = touchCell{pos: q, epoch: os.epoch}
					os.pending++
					pr.stats.RangeElements++
					return ent, true
				}
			}
		}
		ent.rangeSlot = -1 // any mismatch closes the range
	}
	st := ent.det.Track(a.Addr)

	// Conversion: with a confirmed stride, the instruction's immediately
	// preceding point plus a become a two-element range, rewritten in place
	// at the point's slot. The point is verified field-for-field (a collapsed
	// read, Rep > 0, never compresses — its multiplicity is already exact).
	if st != stride.Learned || ent.lastSlot < 0 || c.RangesFull() {
		return ent, false
	}
	q := ent.lastSlot
	if int(q) >= c.Len() {
		return ent, false
	}
	sd, _ := ent.det.Stride()
	base := a.Addr - uint64(sd)
	p := &c.Events[q]
	if p.Kind != a.Kind || p.Addr != base || p.Rep != 0 ||
		p.TS != a.TS || p.Loc != a.Loc || p.Var != a.Var ||
		p.CtxID != a.CtxID || p.Thread != a.Thread || p.Flags != a.Flags ||
		last > q {
		return ent, false
	}
	idx := c.AppendRange(event.Range{
		Base: base, Stride: uint64(sd), Count: 2,
		TS: a.TS, IterVec: p.IterVec, IterDelta: a.IterVec - p.IterVec,
		Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread,
		Kind: a.Kind, Flags: a.Flags,
	})
	*p = event.Access{Kind: event.RangeRef, Addr: uint64(idx)}
	ent.rangeSlot, ent.rangeIdx, ent.lastSlot = q, int32(idx), -1
	*cell = touchCell{pos: q, epoch: os.epoch}
	os.pending++
	pr.stats.Ranges++
	pr.stats.RangeElements += 2
	return ent, true
}

// rangeSplittable reports whether r's addresses can be split exactly along
// the power-of-two owner mask: word-aligned stride and no 2^64 wraparound
// anywhere on the run (so (Base + j*Stride)>>3 decomposes linearly).
func rangeSplittable(r *event.Range) bool {
	if r.Stride%8 != 0 || r.Base%8 != 0 {
		return false
	}
	if r.Count < 2 {
		return true
	}
	n := uint64(r.Count - 1)
	if s := int64(r.Stride); s >= 0 {
		return s == 0 || n <= (^uint64(0)-r.Base)/uint64(s)
	} else {
		return n <= r.Base/uint64(-s)
	}
}

// accessRange ingests an already-compressed strided run (a DDT1 wire range
// record, or a library caller's). The run is split along the power-of-two
// owner mask — elements with equal owner form arithmetic subsequences with
// period P = W/gcd(W, wordStride mod W) and sub-stride P×Stride — so
// per-address routing is exactly what per-element ingestion would produce.
// When splitting does not apply (redirected addresses in play, non-power-of-
// two worker count, unaligned stride, address wraparound, compression off,
// or a run too short to be worth it) the range is expanded and fed through
// the point path.
func (pr *producer) accessRange(r *event.Range) {
	if r.Count == 0 {
		return
	}
	data := r.Kind == event.Read || r.Kind == event.Write
	split := pr.comp && data && pr.wMask != 0 && len(pr.redirect) == 0 && rangeSplittable(r)
	var period uint64
	if split {
		w := uint64(pr.w)
		s3 := (r.Stride >> 3) & pr.wMask // wordStride mod W, wrap-correct for negatives
		g := gcd(s3, w)
		period = w / g
		if uint64(r.Count) < 2*period {
			split = false // sub-runs would be shorter than a point pair
		}
	}
	if !split {
		for j := uint32(0); j < r.Count; j++ {
			pr.putBatch([]event.Access{r.At(j)}, nil)
		}
		return
	}
	pr.stats.Accesses += uint64(r.Count)
	if pr.redistributeEvery > 0 {
		// The heavy-hitter sketch accounts ranges by element count: offer
		// every 16th element, exactly as the point path samples.
		base := pr.sample
		pr.sample += uint64(r.Count)
		for k := (base &^ 15) + 16; k <= pr.sample; k += 16 {
			pr.heavy.Offer(r.Base + (k-base-1)*r.Stride)
		}
	}
	for j0 := uint64(0); j0 < period; j0++ {
		cnt := (uint64(r.Count) - j0 + period - 1) / period
		sub := event.Range{
			Base:      r.Base + j0*r.Stride,
			Stride:    r.Stride * period,
			Count:     uint32(cnt),
			TS:        r.TS,
			IterVec:   r.IterVec + j0*r.IterDelta,
			IterDelta: r.IterDelta * period,
			Loc:       r.Loc, Var: r.Var, CtxID: r.CtxID,
			Thread: r.Thread, Kind: r.Kind, Flags: r.Flags,
		}
		w := int((sub.Base >> 3) & pr.wMask)
		pr.appendSub(w, &sub)
	}
}

// appendSub appends one owner's sub-range to its open chunk, as an opaque
// range (count ≥ 2) or a plain point. Opaque ranges raise the owner's touch
// floor instead of hashing every covered address: later producer merges may
// not move anything before this slot, which is conservative and O(1).
func (pr *producer) appendSub(w int, sub *event.Range) {
	c := pr.open[w]
	if c.Full() || c.RangesFull() {
		pr.pushOpen(w)
		c = pr.open[w]
	}
	os := &pr.own[w]
	if sub.Count == 1 {
		a := sub.At(0)
		c.Append(a)
		slot := int32(c.Len() - 1)
		pr.lastIdx[w] = int(slot)
		os.noteTouch(a.Addr, slot)
		os.pending++
		if c.Full() {
			pr.pushOpen(w)
		}
		return
	}
	idx := c.AppendRange(*sub)
	c.Append(event.Access{Kind: event.RangeRef, Addr: uint64(idx)})
	slot := int32(c.Len() - 1)
	pr.lastIdx[w] = int(slot)
	os.floor = slot
	os.pending += uint64(sub.Count)
	pr.stats.Ranges++
	pr.stats.RangeElements += uint64(sub.Count)
	if c.Full() {
		pr.pushOpen(w)
	}
}

// publishRangeTelemetry pushes the producer's range-counter deltas; called
// at chunk-push cadence alongside the duplicate-collapse delta.
func (pr *producer) publishRangeTelemetry() {
	if d := pr.stats.Ranges - pr.rangesPublished; d > 0 {
		pr.m.Ranges.Add(d)
		pr.rangesPublished = pr.stats.Ranges
	}
	if d := pr.stats.RangeElements - pr.rangeElemsPublished; d > 0 {
		pr.m.RangeElements.Add(d)
		pr.rangeElemsPublished = pr.stats.RangeElements
	}
}

// publishCompressionState sets the flush-time compression gauges: the run's
// overall compression ratio (observed accesses per stored record, ×1000 —
// the stride-package convention, 1000 = no compression) and the per-state
// detector census of the instruction table.
func (pr *producer) publishCompressionState() {
	if pr.m == nil || !pr.comp {
		return
	}
	if pr.stats.Accesses > 0 {
		stored := pr.stats.Accesses - pr.stats.RangeElements + pr.stats.Ranges
		if stored == 0 {
			stored = 1
		}
		pr.m.CompressionRatioPermille.Set(int64(pr.stats.Accesses * 1000 / stored))
	}
	var counts [5]int64
	for i := range pr.instr {
		if pr.instr[i].key != 0 {
			counts[pr.instr[i].det.State()]++
		}
	}
	for s, n := range counts {
		pr.m.StrideDetectors[s].Set(n)
	}
}

// gcd is the binary-free classic for the small operands of the owner split.
func gcd(a, b uint64) uint64 {
	for a != 0 {
		a, b = b%a, a
	}
	return b
}
