// Package queue provides the bounded queues of the profiler's parallel
// pipeline (paper §IV).
//
// Two implementations:
//
//   - MPSC: a lock-free multi-producer/single-consumer ring of runs, every
//     profiler worker's inbound queue. Multi-threaded targets push from every
//     target thread (paper §V-A), so the worker's queue needs multiple
//     producers — "the different implementation of lock-free queues" the
//     paper cites as one source of the higher MT memory consumption; a
//     sequential target is the one-producer case. The lock-based series of
//     Figure 5 puts a mutex around it (core's Config.LockBased).
//   - SPSC: a lock-free single-producer/single-consumer ring, the queue of
//     the paper's §IV design; the benchmark ledger times it.
//
// Both are bounded and allocation-free after construction.
package queue

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"time"
)

// pad keeps hot atomics on separate cache lines.
type pad [56]byte

// SPSC is a lock-free single-producer/single-consumer bounded ring.
type SPSC[T any] struct {
	buf  []T
	mask uint64
	_    pad
	head atomic.Uint64 // next index to pop (consumer-owned)
	_    pad
	tail atomic.Uint64 // next index to push (producer-owned)
	_    pad
}

// NewSPSC returns a ring with capacity rounded up to a power of two.
func NewSPSC[T any](capacity int) *SPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &SPSC[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// TryPush appends v; it fails if the ring is full. Producer-side only.
func (q *SPSC[T]) TryPush(v T) bool {
	t := q.tail.Load()
	if t-q.head.Load() >= uint64(len(q.buf)) {
		return false
	}
	q.buf[t&q.mask] = v
	q.tail.Store(t + 1)
	return true
}

// TryPop removes the oldest element; it fails if the ring is empty.
// Consumer-side only.
func (q *SPSC[T]) TryPop() (T, bool) {
	var zero T
	h := q.head.Load()
	if h == q.tail.Load() {
		return zero, false
	}
	v := q.buf[h&q.mask]
	q.buf[h&q.mask] = zero // release references for GC
	q.head.Store(h + 1)
	return v, true
}

// Push spins until v is accepted.
func (q *SPSC[T]) Push(v T) {
	for i := 0; !q.TryPush(v); i++ {
		backoff(i)
	}
}

// Len returns the approximate number of queued elements.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// runHdr describes the run published at one ring position: seq is position+1
// once the run is there (never the value a later lap waits for, so headers need
// no reset), covered the positions it spans, filled how many of them, from the
// first, hold elements.
type runHdr struct {
	seq             atomic.Uint64
	covered, filled uint32
}

// peekMax is how many positions Peek coalesces behind the head run: enough to
// amortize the release over runs of one, small enough to free space steadily.
const peekMax = 256

// MPSC is a lock-free multi-producer/single-consumer bounded ring whose unit
// of publication is a run: a producer claims positions with one fetch-add,
// copies its elements into the ring and publishes them with one store; the
// consumer reads a run where it lies and frees it with one store. The 16-byte
// header per position keeps a ring of 48-byte elements at 64 bytes each,
// whatever the run lengths.
type MPSC[T any] struct {
	buf   []T
	hdr   []runHdr
	mask  uint64
	clear bool // T contains pointers: zero released slots for GC
	_     pad
	head  atomic.Uint64 // every position before it is free; consumer-published
	next  uint64        // consumer-local: the position after the runs handed out
	out   []T           // consumer-local: the elements the last Peek handed out
	cur   []T           // consumer-local: what TryPop has left of them
	_     pad
	tail  atomic.Uint64 // next unclaimed position
	seen  atomic.Uint64 // a head some producer loaded, <= head: Part's room check
	_     [48]byte
}

// NewMPSC returns a ring with capacity rounded up to a power of two.
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	var zero T
	return &MPSC[T]{buf: make([]T, n), hdr: make([]runHdr, n), mask: uint64(n - 1),
		clear: hasPointers(reflect.TypeOf(&zero).Elem())}
}

// hasPointers reports whether values of t keep heap objects reachable.
// Released slots of such types must be zeroed; plain-data payloads (the
// profiler's access records) skip the clear.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32,
		reflect.Int64, reflect.Uint, reflect.Uint8, reflect.Uint16,
		reflect.Uint32, reflect.Uint64, reflect.Uintptr, reflect.Float32,
		reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	default:
		return true
	}
}

// Claim reserves n consecutive positions with one fetch-add and returns the
// first; the caller owes them to the ring in order, as one or more parts (Part,
// then Publish). Claims are FIFO, whoever publishes first, and a run longer
// than the ring makes progress: its early parts are consumed while its late
// ones wait. Hold unpublished claims in one ring at a time: waiting on ring A
// while owing positions to ring B can deadlock with the reverse.
func (q *MPSC[T]) Claim(n int) uint64 { return q.tail.Add(uint64(n)) - uint64(n) }

// Part returns the slots of the next part of a claimed run — pos is the part's
// first position, n the positions the run has left — once they are free. A
// part ends with the run or at the end of the array, so len(part) <= n.
//
// The room check reads seen, on the producers' own line, and loads head — the
// consumer's line — only when seen shows no room: about once a lap of the
// ring, not once a run, which matters when a batch splits into W short runs.
// Any head once loaded is at most the current one, so a stale seen, whichever
// producer stored it, only errs towards loading head again.
func (q *MPSC[T]) Part(pos uint64, n int) []T {
	i := int(pos & q.mask)
	n = min(n, len(q.buf)-i)
	end := pos + uint64(n)
	if end-q.seen.Load() > uint64(len(q.buf)) {
		h := q.head.Load()
		for k := 0; end-h > uint64(len(q.buf)); k++ {
			backoff(k) // ring full (or an earlier claimant lagging): wait it out
			h = q.head.Load()
		}
		q.seen.Store(h)
	}
	return q.buf[i : i+n]
}

// Publish hands the part at pos to the consumer with one store: it covers
// len(part) positions, and the first filled >= 1 of them hold elements (fewer
// than covered when the producer merged elements as it copied).
func (q *MPSC[T]) Publish(pos uint64, covered, filled int) {
	h := &q.hdr[pos&q.mask]
	h.covered, h.filled = uint32(covered), uint32(filled)
	h.seq.Store(pos + 1)
}

// Push spins until v is accepted: a run of one.
func (q *MPSC[T]) Push(v T) {
	pos := q.Claim(1)
	q.Part(pos, 1)[0] = v
	q.Publish(pos, 1, 1)
}

// release frees everything handed out so far with one head store.
func (q *MPSC[T]) release() {
	if q.next != q.head.Load() {
		if q.clear {
			clear(q.out) // release references for GC
		}
		q.out, q.cur = nil, nil
		q.head.Store(q.next)
	}
}

// Peek frees what the previous Peek handed out and returns, as a slice of the
// ring, the published run at the head plus the gapless published runs directly
// behind it (peekMax positions at most, never past the end of the array); empty
// if the head run is not published. The slice is the caller's until its next
// Peek or TryPop. Single consumer only.
func (q *MPSC[T]) Peek() []T {
	q.release()
	h := q.next
	lo := h & q.mask
	hi := lo
	for hd := &q.hdr[lo]; hd.seq.Load() == h+1; hd = &q.hdr[h&q.mask] {
		h += uint64(hd.covered)
		hi += uint64(hd.filled)
		if hd.filled != hd.covered || h&q.mask == 0 || h-q.next >= peekMax {
			break
		}
	}
	q.next, q.out = h, q.buf[lo:hi]
	return q.out
}

// TryPop removes the oldest element: it Peeks when it has used up the last
// Peek's elements and frees them as it takes the last; single consumer only.
func (q *MPSC[T]) TryPop() (T, bool) {
	if len(q.cur) == 0 {
		if q.cur = q.Peek(); len(q.cur) == 0 {
			var zero T
			return zero, false
		}
	}
	v := q.cur[0]
	if q.cur = q.cur[1:]; len(q.cur) == 0 {
		q.release()
	}
	return v, true
}

// Len returns the approximate number of claimed positions not yet freed.
func (q *MPSC[T]) Len() int {
	h := q.head.Load() // before tail: head never passes a tail read after it
	return int(q.tail.Load() - h)
}

// Cap returns the ring capacity.
func (q *MPSC[T]) Cap() int { return len(q.buf) }

// Backoff is the pipeline-wide wait policy, applied by queue push loops and
// the profiler worker loops alike so that lock-free/lock-based mode
// comparisons (Figure 5/6) measure queue discipline rather than ad-hoc
// backoff differences. It escalates with the number of consecutive failed
// attempts i: busy-spin (cheapest when the peer is mid-operation), then
// scheduler yields (another runnable goroutine may hold the slot), then
// short parks (the peer is genuinely slow; burning a core buys nothing).
func Backoff(i int) {
	switch {
	case i < 64:
		// spin
	case i < 4096:
		runtime.Gosched()
	default:
		time.Sleep(20 * time.Microsecond)
	}
}

// backoff is the internal alias the queue push loops use.
func backoff(i int) { Backoff(i) }
