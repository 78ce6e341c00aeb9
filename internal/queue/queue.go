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
//     Figure 5 puts a mutex around it (core's Config.LockBased). Both of its
//     ends block rather than poll: a consumer with nothing published (Wait)
//     and a producer whose part does not fit (Part) spin briefly, then park
//     until the other end wakes them, so an idle end gives its core back.
//   - SPSC: a lock-free single-producer/single-consumer ring, the queue of
//     the paper's §IV design; the benchmark ledger times it. Its Push polls
//     (Backoff).
//
// Both are bounded and allocation-free after construction.
package queue

import (
	"math"
	"reflect"
	"runtime"
	"sync"
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
		Backoff(i)
	}
}

// Len returns the approximate number of queued elements.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// runHdr describes the run published at one ring position: seq is position+1
// once the run is there (never the value a later lap waits for, so headers need
// no reset), n the positions it spans.
type runHdr struct {
	seq atomic.Uint64
	n   uint32
}

// peekMax is how many positions Peek coalesces behind the head run: enough to
// amortize the release over runs of one, small enough to free space steadily.
const peekMax = 256

// The parking policy of an MPSC's two ends. The consumer re-reads the head
// run's header spinWait times (a producer mid-copy), then parks. A producer
// short of room re-reads the head spinWait times, then up to roomYields more,
// yielding the processor before each, and only then parks: it is the
// pipeline's critical path, a full ring frees room a batch at a time, and a
// goroutine the runtime wakes is queued on its waker's processor, where an
// idle processor takes tens of microseconds to steal it, so a wait of a few
// batches is cheaper yielded than parked. A parked producer is woken once its
// part would fit with a 1/roomSlack share of the ring to spare beyond it (or
// the ring is drained up to the part): the consumer then still has that much
// queued ahead of the part, which covers the producer's wake-up, and the
// producer gets a burst of room rather than a part's worth.
const (
	spinWait   = 64
	roomYields = 1024
	roomSlack  = 2 // a 1/roomSlack share of the ring
)

// MPSC is a lock-free multi-producer/single-consumer bounded ring whose unit
// of publication is a run: a producer claims positions with one fetch-add,
// copies its elements into the ring and publishes them with one store; the
// consumer reads a run where it lies and frees it with one store. The 16-byte
// header per position keeps a ring of 48-byte elements at 64 bytes each,
// whatever the run lengths.
//
// Either end that cannot go on parks. The consumer announces its park in
// waiter and re-checks the head run before it blocks on wake; Publish loads
// waiter once and wakes it only when it publishes that run. A producer short of
// room registers in wakeAt, under mu, the head it waits for and re-checks the
// head before it blocks on room; the consumer's release loads wakeAt once and
// broadcasts only when its new head reaches it. Each side stores its own word
// before it loads the other's (sequentially consistent atomics), so one of the
// two always sees the other: no wake-up is lost.
type MPSC[T any] struct {
	buf   []T
	hdr   []runHdr
	mask  uint64
	clear bool          // T contains pointers: zero released slots for GC
	wake  chan struct{} // the parked consumer's wake-up: one token at most
	mu    sync.Mutex    // guards the parked producers' registrations in wakeAt
	room  sync.Cond     // parked producers; L is &mu
	_     pad
	head  atomic.Uint64 // every position before it is free; consumer-published
	next  uint64        // consumer-local: the position after the runs handed out
	out   []T           // consumer-local: the elements the last Peek handed out
	cur   []T           // consumer-local: what TryPop has left of them
	_     pad
	tail  atomic.Uint64 // next unclaimed position
	seen  atomic.Uint64 // a head some producer loaded, <= head: Part's room check
	_     [48]byte
	// The park words, each written only by an end about to park and read on
	// every publication or release by the other.
	waiter atomic.Uint64 // position+1 of the run a parked consumer waits for; 0: none
	wakeAt atomic.Uint64 // the lowest head a parked producer waits for; MaxUint64: none
	_      [48]byte
}

// NewMPSC returns a ring with capacity rounded up to a power of two.
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	var zero T
	q := &MPSC[T]{buf: make([]T, n), hdr: make([]runHdr, n), mask: uint64(n - 1),
		clear: hasPointers(reflect.TypeOf(&zero).Elem()), wake: make(chan struct{}, 1)}
	q.room.L = &q.mu
	q.wakeAt.Store(math.MaxUint64)
	return q
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
// producer stored it, only errs towards loading head again. A part that does
// not fit (the ring is full, or an earlier claimant lags) waits in waitRoom.
func (q *MPSC[T]) Part(pos uint64, n int) []T {
	i := int(pos & q.mask)
	n = min(n, len(q.buf)-i)
	end := pos + uint64(n)
	if end-q.seen.Load() > uint64(len(q.buf)) {
		h := q.head.Load()
		if end-h > uint64(len(q.buf)) {
			h = q.waitRoom(pos, end)
		}
		q.seen.Store(h)
	}
	return q.buf[i : i+n]
}

// waitRoom returns a head at which the part [pos, end) fits, parking the
// producer until the consumer's release wakes it if spinning and yielding do
// not find one. It asks to be woken at the head that leaves roomSlack to spare,
// or at pos if that comes first: the ring cannot drain past a part that is
// not yet published, and at pos everything before the part is consumed.
func (q *MPSC[T]) waitRoom(pos, end uint64) uint64 {
	size := uint64(len(q.buf))
	for k := 0; k < spinWait+roomYields; k++ {
		if h := q.head.Load(); end-h <= size {
			return h
		}
		if k >= spinWait {
			runtime.Gosched()
		}
	}
	at := min(pos, end-size/roomSlack)
	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if at < q.wakeAt.Load() {
			q.wakeAt.Store(at) // announce the park
		}
		if h := q.head.Load(); end-h <= size { // re-check: a release before the announcement saw no waiter
			return h
		}
		q.room.Wait()
	}
}

// Publish hands the part at pos, its n = len(part) elements, to the consumer
// with one store. It wakes the consumer if it is parked waiting for this part.
// Exactly one Publish can claim a park announcement, so the wake channel never
// holds two tokens.
func (q *MPSC[T]) Publish(pos uint64, n int) {
	h := &q.hdr[pos&q.mask]
	h.n = uint32(n)
	h.seq.Store(pos + 1)
	if q.waiter.Load() == pos+1 && q.waiter.CompareAndSwap(pos+1, 0) {
		q.wake <- struct{}{}
	}
}

// Push waits until v is accepted: a run of one.
func (q *MPSC[T]) Push(v T) {
	pos := q.Claim(1)
	q.Part(pos, 1)[0] = v
	q.Publish(pos, 1)
}

// release frees everything handed out so far with one head store, and wakes
// the parked producers once the new head reaches the one they wait for.
func (q *MPSC[T]) release() {
	if q.next != q.head.Load() {
		if q.clear {
			clear(q.out) // release references for GC
		}
		q.out, q.cur = nil, nil
		q.head.Store(q.next)
		if q.wakeAt.Load() <= q.next {
			q.mu.Lock()
			q.wakeAt.Store(math.MaxUint64)
			q.room.Broadcast() // each re-checks, and one still short re-registers
			q.mu.Unlock()
			// Run the woken producer here and now: it was queued on this
			// processor, where it would wait for the consumer's next park.
			runtime.Gosched()
		}
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
	for hd := &q.hdr[lo]; hd.seq.Load() == h+1; hd = &q.hdr[h&q.mask] {
		if h += uint64(hd.n); h&q.mask == 0 || h-q.next >= peekMax {
			break
		}
	}
	q.next, q.out = h, q.buf[lo:lo+h-q.next]
	return q.out
}

// Wait blocks until the run at the head is published; call it when Peek or
// TryPop came back empty. It re-reads the head run's header spinWait times,
// then parks: it announces the park in waiter, re-checks the header (a
// Publish that came before the announcement did not see it) and blocks until
// the run's Publish wakes it. Single consumer only.
func (q *MPSC[T]) Wait() {
	h := q.next
	hd := &q.hdr[h&q.mask]
	for k := 0; k < spinWait; k++ {
		if hd.seq.Load() == h+1 {
			return
		}
	}
	q.waiter.Store(h + 1)
	if hd.seq.Load() == h+1 && q.waiter.CompareAndSwap(h+1, 0) {
		return
	}
	<-q.wake // sent by the Publish that took the announcement
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

// Backoff is the polling wait of SPSC.Push and of callers that poll a ring
// (the benchmark ledger's consumers); the MPSC's own ends park instead. It
// escalates with the number of consecutive failed attempts i: busy-spin
// (cheapest when the peer is mid-operation), then scheduler yields (another
// runnable goroutine may hold the slot), then short sleeps (the peer is
// genuinely slow; burning a core buys nothing).
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
