// The hybrid access-history store: heavy-hitter addresses live in an exact
// paged shadow map, the long tail in the paper's approximate signature. The
// motivating observation is the same one behind the paper's §IV-A — a
// handful of addresses dominate real access streams — so giving just those
// addresses exact history removes most collision-induced false positives
// and negatives while the signature keeps the footprint bounded for the
// tail. Promotion is fed from two sides: the pipeline producer seeds the
// store with its Misra–Gries top-10 (sig.Promoter), and the store promotes
// worker-locally once its own SpaceSaving sketch sees an address often
// enough. An exactness budget caps the resident set; when it is full, a
// hotter candidate evicts the coldest resident, whose state is written back
// to the signature tail.
package shadow

import "ddprof/internal/sig"

const (
	// Hybrid pages are deliberately tiny compared to Memory's 64Ki-slot
	// pages: residents are individually promoted addresses, not dense
	// regions, so a 64-address page (3 KiB of slots) bounds the per-resident
	// footprint while still amortizing map probes over spatial clusters.
	hpageBits = 6
	hpageSize = 1 << hpageBits
	hpageMask = hpageSize - 1
	// hpageBytes is the accounting cost of one hybrid page: two slot arrays,
	// the resident bitmap, and map-entry overhead.
	hpageBytes = hpageSize*24*2 + 64
)

type hpage struct {
	writes   [hpageSize]sig.Slot
	reads    [hpageSize]sig.Slot
	resident uint64 // bitmap: which offsets hold exact state
}

// Hybrid is the two-tier store. With an exactness budget of 0 the exact
// tier is unbounded and every address is promoted on first write: the store
// then behaves exactly like shadow memory (the tail is never touched),
// which is what the cross-backend equivalence suite runs against. With a
// positive budget at most that many addresses are resident at once and the
// rest live in the signature tail.
type Hybrid struct {
	pages     map[uint64]*hpage
	allocated uint64
	tail      *sig.Signature

	budget    int // max resident addresses; 0 = unbounded
	resident  int
	threshold uint64 // sketch count at which an address self-promotes

	// sketch and resCount exist only in bounded mode: the sketch counts
	// tail accesses to find promotion candidates, resCount counts exact-tier
	// accesses per resident so eviction can pick the coldest.
	sketch   *sig.HeavySketch
	resCount map[uint64]uint64

	// Cached coldest resident. Counts only grow, so a cached minimum stays
	// a minimum until its own count moves (or it leaves the tier) — which
	// coldest() detects by revalidating against resCount — or a new resident
	// adopts with a smaller count, which adopt() invalidates explicitly.
	// The cache makes the common full-tier case (a tail candidate that is
	// not hotter than the coldest resident) O(1) instead of a scan per
	// access.
	coldAddr uint64
	coldCnt  uint64
	coldOK   bool
}

// NewHybrid returns a hybrid store. tailSlots sizes the signature tail,
// exactBudget caps the resident exact addresses (0 = unbounded exact tier),
// promoteAfter is the sketch count at which a tail address self-promotes,
// and sketchCap bounds the candidate sketch.
func NewHybrid(tailSlots, exactBudget, promoteAfter, sketchCap int) *Hybrid {
	h := &Hybrid{
		pages:  make(map[uint64]*hpage),
		tail:   sig.NewSignature(tailSlots),
		budget: exactBudget,
	}
	if promoteAfter < 1 {
		promoteAfter = 1
	}
	h.threshold = uint64(promoteAfter)
	if exactBudget > 0 {
		h.sketch = sig.NewHeavySketch(sketchCap)
		h.resCount = make(map[uint64]uint64, exactBudget)
	}
	return h
}

// exactSlot resolves addr's exact-tier cell, nil page when absent.
func (h *Hybrid) exactSlot(addr uint64) (*hpage, uint64, bool) {
	p := h.pages[addr>>hpageBits]
	if p == nil {
		return nil, 0, false
	}
	off := addr & hpageMask
	return p, off, p.resident&(1<<off) != 0
}

// adopt makes addr resident: page allocation, bitmap, accounting, and —
// in bounded mode — carrying the tail's current (approximate) history
// across so promotion does not drop the address's last accesses.
func (h *Hybrid) adopt(addr uint64, cnt uint64) *hpage {
	key := addr >> hpageBits
	p := h.pages[key]
	if p == nil {
		p = new(hpage)
		h.pages[key] = p
		h.allocated++
	}
	off := addr & hpageMask
	if p.resident&(1<<off) != 0 {
		return p
	}
	p.resident |= 1 << off
	h.resident++
	if h.budget > 0 {
		if w, ok := h.tail.LookupWrite(addr); ok {
			p.writes[off] = w
		}
		if r, ok := h.tail.LookupRead(addr); ok {
			p.reads[off] = r
		}
		h.resCount[addr] = cnt
		if h.coldOK && cnt < h.coldCnt {
			h.coldOK = false
		}
		h.sketch.Forget(addr)
	}
	return p
}

// demote evicts a resident back to the tail: exact state is written into
// the signature (where it is subject to collisions again, like any tail
// address) and the page is freed once empty.
func (h *Hybrid) demote(addr uint64) {
	key := addr >> hpageBits
	p := h.pages[key]
	if p == nil {
		return
	}
	off := addr & hpageMask
	if p.resident&(1<<off) == 0 {
		return
	}
	if s := p.writes[off]; !s.Empty() {
		h.tail.SetWrite(addr, s)
	}
	if s := p.reads[off]; !s.Empty() {
		h.tail.SetRead(addr, s)
	}
	p.writes[off], p.reads[off] = sig.Slot{}, sig.Slot{}
	p.resident &^= 1 << off
	h.resident--
	delete(h.resCount, addr)
	if p.resident == 0 {
		delete(h.pages, key)
		h.allocated--
	}
}

// coldest returns a resident with the smallest exact-tier access count,
// preferring the cached minimum when it is still valid; a scan (ties break
// toward the lower address, for determinism) refills the cache otherwise.
func (h *Hybrid) coldest() (addr, cnt uint64, ok bool) {
	if h.coldOK {
		if c, live := h.resCount[h.coldAddr]; live && c == h.coldCnt {
			return h.coldAddr, h.coldCnt, true
		}
		h.coldOK = false
	}
	for a, c := range h.resCount {
		if !ok || c < cnt || (c == cnt && a < addr) {
			addr, cnt, ok = a, c, true
		}
	}
	if ok {
		h.coldAddr, h.coldCnt, h.coldOK = addr, cnt, true
	}
	return
}

// observe counts one tail access and reports whether it promoted addr. The
// hysteresis against thrashing is twofold: an address must accumulate
// threshold sketched accesses before it becomes a candidate at all, and a
// full exact tier only evicts a resident that is strictly colder than the
// candidate.
func (h *Hybrid) observe(addr uint64) bool {
	h.sketch.Offer(addr)
	cnt := h.sketch.Count(addr)
	if cnt < h.threshold {
		return false
	}
	if h.resident >= h.budget {
		victim, vcnt, ok := h.coldest()
		if !ok || vcnt >= cnt {
			return false
		}
		h.demote(victim)
	}
	h.adopt(addr, cnt)
	return true
}

// Promote implements sig.Promoter: external seeding from the producer's
// heavy-hitter sketch. A seeded address is trusted to be globally hot, so a
// full exact tier evicts its coldest resident unconditionally; the seed
// enters with at least the self-promotion threshold as its count so the
// next promotion round does not immediately pick it as the coldest.
func (h *Hybrid) Promote(addr uint64) {
	if h.budget == 0 {
		return // every address is already exact
	}
	if _, _, res := h.exactSlot(addr); res {
		return
	}
	cnt := h.sketch.Count(addr)
	if cnt < h.threshold {
		cnt = h.threshold
	}
	if h.resident >= h.budget {
		victim, _, ok := h.coldest()
		if !ok {
			return
		}
		h.demote(victim)
	}
	h.adopt(addr, cnt)
}

// LookupWrite implements sig.Store.
func (h *Hybrid) LookupWrite(addr uint64) (sig.Slot, bool) {
	if p, off, res := h.exactSlot(addr); res {
		s := p.writes[off]
		return s, !s.Empty()
	}
	if h.budget == 0 {
		return sig.Slot{}, false
	}
	return h.tail.LookupWrite(addr)
}

// LookupRead implements sig.Store.
func (h *Hybrid) LookupRead(addr uint64) (sig.Slot, bool) {
	if p, off, res := h.exactSlot(addr); res {
		s := p.reads[off]
		return s, !s.Empty()
	}
	if h.budget == 0 {
		return sig.Slot{}, false
	}
	return h.tail.LookupRead(addr)
}

// SetWrite implements sig.Store.
func (h *Hybrid) SetWrite(addr uint64, s sig.Slot) {
	if p, off, res := h.exactSlot(addr); res {
		p.writes[off] = s
		if h.resCount != nil {
			h.resCount[addr]++
		}
		return
	}
	if h.budget == 0 {
		p := h.adopt(addr, 0)
		p.writes[addr&hpageMask] = s
		return
	}
	if h.observe(addr) {
		p, off, _ := h.exactSlot(addr)
		p.writes[off] = s
		h.resCount[addr]++
		return
	}
	h.tail.SetWrite(addr, s)
}

// SetRead implements sig.Store.
func (h *Hybrid) SetRead(addr uint64, s sig.Slot) {
	if p, off, res := h.exactSlot(addr); res {
		p.reads[off] = s
		if h.resCount != nil {
			h.resCount[addr]++
		}
		return
	}
	if h.budget == 0 {
		p := h.adopt(addr, 0)
		p.reads[addr&hpageMask] = s
		return
	}
	if h.observe(addr) {
		p, off, _ := h.exactSlot(addr)
		p.reads[off] = s
		h.resCount[addr]++
		return
	}
	h.tail.SetRead(addr, s)
}

// Remove implements sig.Store. A resident is cleared exactly; a tail
// address pays the signature's usual collateral clearing.
func (h *Hybrid) Remove(addr uint64) {
	if p, off, res := h.exactSlot(addr); res {
		p.writes[off], p.reads[off] = sig.Slot{}, sig.Slot{}
		p.resident &^= 1 << off
		h.resident--
		delete(h.resCount, addr)
		if p.resident == 0 {
			delete(h.pages, addr>>hpageBits)
			h.allocated--
		}
		return
	}
	if h.budget == 0 {
		return
	}
	h.sketch.Forget(addr)
	h.tail.Remove(addr)
}

// TierBytes implements sig.Tiered.
func (h *Hybrid) TierBytes() (exact, tail uint64) {
	exact = h.allocated * hpageBytes
	if h.resCount != nil {
		exact += uint64(len(h.resCount)) * 16
	}
	if h.sketch != nil {
		exact += uint64(h.sketch.Len()) * 32
	}
	return exact, h.tail.Bytes()
}

// ExactResident implements sig.Tiered.
func (h *Hybrid) ExactResident() int { return h.resident }

// Bytes implements sig.Store: both tiers.
func (h *Hybrid) Bytes() uint64 {
	exact, tail := h.TierBytes()
	return exact + tail
}

// ModeledBytes implements sig.Store: the exact tier at its true size plus
// the tail under the paper's 4 B/slot model.
func (h *Hybrid) ModeledBytes() uint64 {
	exact, _ := h.TierBytes()
	return exact + h.tail.ModeledBytes()
}

// EnableTracking implements sig.Tracker by forwarding to the signature
// tail — the tier with an Eq. (2) accuracy question to answer.
func (h *Hybrid) EnableTracking() { h.tail.EnableTracking() }

// Accuracy implements sig.Tracker.
func (h *Hybrid) Accuracy() (sig.AccuracyStats, bool) { return h.tail.Accuracy() }

// Occupancy reports the tail signature's write-slot occupancy, feeding the
// same occupancy gauge every signature-backed worker publishes.
func (h *Hybrid) Occupancy() float64 { return h.tail.Occupancy() }
