package trace

// Compactor is the recording-side half of range compression: an exact,
// consecutive-only run detector between the instrumentation hook and a
// Writer. It folds a run of accesses that are literally adjacent in the
// stream — same instruction metadata, addresses advancing by a fixed stride,
// iteration vectors advancing by a fixed delta, equal timestamps — into one
// DDT2 range record; anything else (including the first non-extending event)
// flushes the open run and passes through as points, so replaying the trace
// reproduces the recorded stream event-for-event in order.
//
// Consecutive-only is a deliberate limitation: two instructions whose
// accesses interleave (a[i] = b[i] sweeping two arrays) never form runs here,
// because reordering them on the wire would change the per-address
// interleaving the profile depends on. The profiler's own producer carries
// per-instruction detectors and a last-touch table to compress interleaved
// streams safely; the trace layer stays order-preserving and simple.
//
// Compactor serializes its callers the way SyncWriter does, so it can be
// installed directly as the hook of a multi-threaded recording run (where
// distinct timestamps keep runs from forming, and events simply pass
// through). A target proven single-threaded takes the Unlocked hook instead
// and skips the mutex.

import (
	"sync"

	"ddprof/internal/event"
)

// compactMin is the run length worth a range record: a site's points cost
// four bytes each and a range record, which names no site and spells its
// fields out, fifteen to twenty, so runs shorter than 5 flush as points.
const compactMin = 5

// Compactor folds consecutive strided accesses into range records on their
// way into w. The wrapped Writer must not be used directly while the
// Compactor is live.
type Compactor struct {
	mu sync.Mutex
	w  *Writer
	// The open candidate run: its first access as it arrived, then the
	// per-element address and iteration-vector deltas (set by the second
	// element) and the element count (0 none, 1 a bare point).
	head              event.Access
	stride, iterDelta uint64
	count             uint32
}

// NewCompactor wraps w.
func NewCompactor(w *Writer) *Compactor { return &Compactor{w: w} }

// Access implements the hook under the Compactor's mutex.
func (c *Compactor) Access(a event.Access) {
	c.mu.Lock()
	c.access(&a)
	c.mu.Unlock()
}

// Unlocked returns the same Compactor as a hook that does not take the mutex
// per event — for recording runs whose target provably calls the hook from
// one thread only. Count, Flush, Close and Err stay on the Compactor.
func (c *Compactor) Unlocked() event.Hook { return (*unlockedCompactor)(c) }

type unlockedCompactor Compactor

func (u *unlockedCompactor) Access(a event.Access) { (*Compactor)(u).access(&a) }

// access extends the open run or flushes and restarts it.
func (c *Compactor) access(a *event.Access) {
	if a.Rep != 0 || (a.Kind != event.Read && a.Kind != event.Write) {
		c.flushLocked()
		c.w.point(a)
		return
	}
	// Every field a Range shares across its elements must match exactly.
	if h := &c.head; c.count > 0 && a.Loc == h.Loc && a.Var == h.Var && a.CtxID == h.CtxID &&
		a.Thread == h.Thread && a.Kind == h.Kind && a.Flags == h.Flags && a.TS == h.TS {
		if c.count == 1 {
			c.stride = a.Addr - h.Addr
			c.iterDelta = a.IterVec - h.IterVec
			c.count = 2
			return
		}
		if c.count < maxWireRangeCount &&
			a.Addr == h.Addr+uint64(c.count)*c.stride &&
			a.IterVec == h.IterVec+uint64(c.count)*c.iterDelta {
			c.count++
			return
		}
	}
	c.flushLocked()
	c.head = *a
	c.count = 1
}

// flushLocked drains the open run: long enough and wire-expressible runs go
// out as one range record, everything else as points.
func (c *Compactor) flushLocked() {
	n := c.count
	c.count = 0
	if n == 0 {
		return
	}
	h := &c.head
	if n >= compactMin {
		r := event.Range{
			Base: h.Addr, Stride: c.stride, TS: h.TS, IterVec: h.IterVec, IterDelta: c.iterDelta,
			Loc: h.Loc, Var: h.Var, CtxID: h.CtxID, Count: n,
			Thread: h.Thread, Kind: h.Kind, Flags: h.Flags,
		}
		if wireRangeOK(&r) {
			c.w.Range(r)
			return
		}
	}
	for c.w.point(h); n > 1; n-- {
		h.Addr += c.stride
		h.IterVec += c.iterDelta
		c.w.point(h)
	}
}

// Flush drains the open run without closing the underlying Writer.
func (c *Compactor) Flush() {
	c.mu.Lock()
	c.flushLocked()
	c.mu.Unlock()
}

// Count returns the number of events recorded so far, open run included.
func (c *Compactor) Count() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Count() + uint64(c.count)
}

// Close drains the open run and flushes the trace.
func (c *Compactor) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.flushLocked()
	return c.w.Close()
}

// Err returns the first serialization error, if any.
func (c *Compactor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.w.Err()
}
