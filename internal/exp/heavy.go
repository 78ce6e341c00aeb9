package exp

import "sort"

// heavySketch tracks approximately the most frequently accessed addresses
// (paper §IV-A: "we also monitor how many times an address is accessed
// dynamically ... to ensure that the top ten most heavily accessed addresses
// are always evenly distributed among worker threads"). It feeds the §IV-A
// ablation (dealRedistributed).
//
// The paper keeps exact counts in a map; we use the SpaceSaving algorithm
// with a small capacity instead, which bounds the cost per access regardless
// of how many distinct addresses the target touches, while still identifying
// heavy hitters whose frequency exceeds 1/capacity of the stream — far
// coarser than the top-10 needs. Entries live in flat slices with a map only
// as the address index: the eviction scan for the minimum count walks a
// contiguous uint64 slice (~capacity loads) instead of iterating map buckets.
type heavySketch struct {
	idx    map[uint64]int // address -> slot in addrs/counts
	addrs  []uint64
	counts []uint64
	cap    int
}

// newHeavySketch returns a sketch tracking up to capacity addresses
// (minimum 16).
func newHeavySketch(capacity int) *heavySketch {
	if capacity < 16 {
		capacity = 16
	}
	return &heavySketch{
		idx:    make(map[uint64]int, capacity+1),
		addrs:  make([]uint64, 0, capacity),
		counts: make([]uint64, 0, capacity),
		cap:    capacity,
	}
}

// Offer counts one access to addr.
func (h *heavySketch) Offer(addr uint64) {
	if i, ok := h.idx[addr]; ok {
		h.counts[i]++
		return
	}
	if len(h.addrs) < h.cap {
		h.idx[addr] = len(h.addrs)
		h.addrs = append(h.addrs, addr)
		h.counts = append(h.counts, 1)
		return
	}
	// SpaceSaving: evict the minimum and inherit its count.
	min := 0
	for i := 1; i < len(h.counts); i++ {
		if h.counts[i] < h.counts[min] {
			min = i
		}
	}
	delete(h.idx, h.addrs[min])
	h.idx[addr] = min
	h.addrs[min] = addr
	h.counts[min]++
}

// Top returns up to n addresses ordered by descending estimated count.
// Ties break by address for determinism.
func (h *heavySketch) Top(n int) []uint64 {
	ord := make([]int, len(h.addrs))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool {
		i, j := ord[a], ord[b]
		if h.counts[i] != h.counts[j] {
			return h.counts[i] > h.counts[j]
		}
		return h.addrs[i] < h.addrs[j]
	})
	if n > len(ord) {
		n = len(ord)
	}
	out := make([]uint64, n)
	for i := 0; i < n; i++ {
		out[i] = h.addrs[ord[i]]
	}
	return out
}
