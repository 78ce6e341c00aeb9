// Package queue provides the bounded queues of the profiler's parallel
// pipeline (paper §IV).
//
// Three implementations with one shape:
//
//   - SPSC: a lock-free single-producer/single-consumer ring. In
//     sequential-target mode the main thread is the only producer and each
//     worker the only consumer of its queue, so SPSC suffices; this is the
//     "lock-free" design responsible for the paper's 1.3–1.6× speedup over
//     the lock-based profiler.
//   - MPSC: a lock-free multi-producer/single-consumer ring (Vyukov bounded
//     queue). Multi-threaded targets push from every target thread inside
//     its lock region (paper §V-A), so the worker's queue needs multiple
//     producers — "the different implementation of lock-free queues" the
//     paper cites as one source of the higher MT memory consumption.
//   - Locked: a mutex-protected ring, kept as the ablation baseline for the
//     lock-based series in Figure 5.
//
// All queues are bounded and allocation-free after construction.
package queue

import (
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
		backoff(i)
	}
}

// Len returns the approximate number of queued elements.
func (q *SPSC[T]) Len() int { return int(q.tail.Load() - q.head.Load()) }

// Cap returns the ring capacity.
func (q *SPSC[T]) Cap() int { return len(q.buf) }

// mpscCell pairs an element with its sequence number (Vyukov scheme). The
// cell is padded to a cache line: producers write cell i while the consumer
// polls cell i+1's seq, and without padding the two land on the same line
// and ping-pong it between cores on every push/pop pair.
type mpscCell[T any] struct {
	seq atomic.Uint64
	val T
	_   [cellPad]byte
}

// cellPad rounds mpscCell's seq+val up to 64 bytes for the element shape the
// profiler pushes (48-byte accesses). Other shapes still work, just without
// the exact-line guarantee.
const cellPad = 8

// MPSC is a lock-free multi-producer/single-consumer bounded ring.
type MPSC[T any] struct {
	cells []mpscCell[T]
	mask  uint64
	clear bool // T contains pointers: zero cells on pop for GC
	_     pad
	head  uint64 // consumer position; plain — see TryPop
	_     pad
	tail  atomic.Uint64 // producers CAS here
	_     pad
}

// NewMPSC returns a ring with capacity rounded up to a power of two.
func NewMPSC[T any](capacity int) *MPSC[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	q := &MPSC[T]{cells: make([]mpscCell[T], n), mask: uint64(n - 1)}
	var zero T
	q.clear = hasPointers(reflect.TypeOf(&zero).Elem())
	for i := range q.cells {
		q.cells[i].seq.Store(uint64(i))
	}
	return q
}

// hasPointers reports whether values of t keep heap objects reachable. Popped
// cells of such types must be zeroed; plain-data payloads (the profiler's
// access records) skip the per-pop clear.
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

// TryPush appends v; it fails if the ring is full. Safe for any number of
// concurrent producers.
func (q *MPSC[T]) TryPush(v T) bool {
	for {
		t := q.tail.Load()
		cell := &q.cells[t&q.mask]
		seq := cell.seq.Load()
		switch {
		case seq == t:
			if q.tail.CompareAndSwap(t, t+1) {
				cell.val = v
				cell.seq.Store(t + 1)
				return true
			}
		case seq < t:
			return false // cell not yet consumed: full
		default:
			// Another producer claimed t; retry with a fresh tail.
		}
	}
}

// TryPop removes the oldest element; single consumer only.
//
// head is a plain field: only the consumer touches it, and the cell seq
// store below already publishes the slot back to producers with the needed
// ordering, so an atomic head would buy nothing but a second full barrier on
// every pop. Consequently Len is only meaningful from the consumer goroutine
// or after the queue has quiesced.
func (q *MPSC[T]) TryPop() (T, bool) {
	h := q.head
	cell := &q.cells[h&q.mask]
	if cell.seq.Load() != h+1 {
		var zero T
		return zero, false
	}
	v := cell.val
	if q.clear {
		var zero T
		cell.val = zero // release references for GC
	}
	cell.seq.Store(h + uint64(len(q.cells)))
	q.head = h + 1
	return v, true
}

// Claim reserves n consecutive positions with one fetch-add and returns the
// first; the caller owes a Fill for each, in increasing order. Claims are FIFO,
// whoever fills first. Cells are filled independently, so a stalled producer
// never blocks another's cell, and a run longer than the ring makes progress:
// its early cells are popped while its late ones wait. Hold unfilled claims in
// one ring at a time: waiting on ring A while owing cells to ring B can
// deadlock with the reverse. Interoperates with TryPush (same tail RMW).
func (q *MPSC[T]) Claim(n int) uint64 { return q.tail.Add(uint64(n)) - uint64(n) }

// Fill writes v into claimed position pos, waiting while the ring is full.
func (q *MPSC[T]) Fill(pos uint64, v *T) {
	cell := &q.cells[pos&q.mask]
	for i := 0; cell.seq.Load() != pos; i++ {
		backoff(i) // ring full (or an earlier claimant lagging): wait it out
	}
	cell.val = *v
	cell.seq.Store(pos + 1)
}

// Push spins until v is accepted: a one-cell claim, filled at once.
func (q *MPSC[T]) Push(v T) { q.Fill(q.Claim(1), &v) }

// Len returns the approximate number of queued elements. Valid only from the
// consumer goroutine or while the queue is quiescent (head is consumer-local).
func (q *MPSC[T]) Len() int { return int(q.tail.Load() - q.head) }

// Cap returns the ring capacity.
func (q *MPSC[T]) Cap() int { return len(q.cells) }

// Locked is the lock-based ring used as the Figure 5 ablation baseline.
// "The major synchronization overhead comes from locking and unlocking the
// queues" (paper §IV) — this type is that overhead.
type Locked[T any] struct {
	mu   sync.Mutex
	buf  []T
	head uint64
	tail uint64
	mask uint64
}

// NewLocked returns a ring with capacity rounded up to a power of two.
func NewLocked[T any](capacity int) *Locked[T] {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Locked[T]{buf: make([]T, n), mask: uint64(n - 1)}
}

// TryPush appends v; it fails if the ring is full.
func (q *Locked[T]) TryPush(v T) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.tail-q.head >= uint64(len(q.buf)) {
		return false
	}
	q.buf[q.tail&q.mask] = v
	q.tail++
	return true
}

// TryPop removes the oldest element; it fails if the ring is empty.
func (q *Locked[T]) TryPop() (T, bool) {
	var zero T
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.head == q.tail {
		return zero, false
	}
	v := q.buf[q.head&q.mask]
	q.buf[q.head&q.mask] = zero
	q.head++
	return v, true
}

// Push spins until v is accepted.
func (q *Locked[T]) Push(v T) {
	for i := 0; !q.TryPush(v); i++ {
		backoff(i)
	}
}

// Len returns the number of queued elements.
func (q *Locked[T]) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return int(q.tail - q.head)
}

// Cap returns the ring capacity.
func (q *Locked[T]) Cap() int { return len(q.buf) }

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
