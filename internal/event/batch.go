package event

import (
	"fmt"
	"sync/atomic"
)

// BatchHook is a Hook that also takes events in bulk (every core.Profiler).
// The slices are the caller's and only valid for the call.
type BatchHook interface {
	Hook
	AccessBatch(accesses []Access, ranges []Range)
}

// BatchSize is the capacity of an executor thread's private event buffer
// (24 KB); ddbench mt-threads and seq-serial measure the same from 128 to 2048.
const BatchSize = 512

// The widest stamp and thread ID a run may hand a profiler: a signature slot
// keeps 32 bits of a stamp and 9 of a thread (sig.ThreadMask). Anything wider
// is refused where it is born — the executors (Release, Acquire, a spawn) —
// or where it comes in off the wire (the DDT2 decoder), never narrowed.
const (
	MaxTS     = 1<<32 - 1
	MaxThread = 511
)

// StampLimit is what Release and Acquire panic with when the run's clock has
// passed MaxTS; the executors end the run with it as a runtime error.
type StampLimit struct{ TS uint64 }

func (e StampLimit) Error() string {
	return fmt.Sprintf("sync-epoch stamp %d is past %d, the widest a store slot keeps (event.MaxTS)", e.TS, uint64(MaxTS))
}

// SyncOp names a synchronisation point of the target: a release — Fork is the
// parent's, before its spawned threads start — or the acquire pairing with it.
type SyncOp uint8

const ( // release, acquire
	SyncFork, SyncStart SyncOp = iota, iota + 4
	SyncUnlock, SyncLock
	SyncArrive, SyncPass
	SyncExit, SyncJoin
)

// SyncTap is an optional extension of a Hook, for test oracles: the executors
// report every synchronisation point, on the thread that performs it. obj is
// the mutex (else nil); buffered counts the thread's events not yet handed over.
type SyncTap interface {
	Sync(thread int32, op SyncOp, obj any, buffered int)
}

// Batcher is the seam between one executor thread and the hook: the thread's
// private event buffer and its clock. Events leave the thread when the buffer
// fills and before every release operation, never later, so an event that
// happens-before another thread's has reached the hook before that one can.
// A hook without AccessBatch gets a one-event buffer: the per-event call.
// TS, the stamp for the thread's next event (0: unstamped run), is a Lamport
// epoch over the run's shared counter: moved past every epoch handed out so
// far at a release, caught up with the counter at an acquire, inherited from
// the parent's fork at a thread's start (so siblings start in one epoch). So
// happens-before across threads implies a strictly larger TS, and the access
// path touches nothing shared.
type Batcher struct {
	TS     uint64
	buf    []Access
	sink   BatchHook
	hook   Hook
	tap    SyncTap
	clock  *atomic.Uint64 // nil: unstamped run
	thread int32
}

// NewBatcher returns the main thread's seam to hook (nil: none).
func NewBatcher(hook Hook, stamped bool) Batcher {
	b := Batcher{hook: hook}
	if stamped && hook != nil {
		b.clock = new(atomic.Uint64)
		b.TS = b.clock.Add(1)
	}
	b.sink, _ = hook.(BatchHook)
	b.tap, _ = hook.(SyncTap)
	return b.Child(0)
}

// Child returns the seam of a thread b's thread starts after its
// Release(SyncFork, nil): a buffer of its own, b's hook, clock and epoch.
func (b *Batcher) Child(thread int32) Batcher {
	c := *b
	c.thread = thread
	if c.sink != nil {
		c.buf = make([]Access, 0, BatchSize)
	} else if c.hook != nil {
		c.buf = make([]Access, 0, 1)
	}
	if c.tap != nil {
		c.tap.Sync(thread, SyncStart, nil, 0)
	}
	return c
}

// Next returns the slot for the next event; fill every field, then call Done.
func (b *Batcher) Next() *Access {
	b.buf = b.buf[:len(b.buf)+1]
	return &b.buf[len(b.buf)-1]
}

// Done completes the event whose slot Next returned.
func (b *Batcher) Done() {
	if len(b.buf) == cap(b.buf) {
		b.Flush()
	}
}

// Flush delivers the buffered events, in program order.
func (b *Batcher) Flush() {
	if b.sink != nil && len(b.buf) > 0 {
		b.sink.AccessBatch(b.buf, nil)
	}
	for i := 0; b.sink == nil && i < len(b.buf); i++ {
		b.hook.Access(b.buf[i])
	}
	b.buf = b.buf[:0]
}

// Release is called immediately before op lets another thread proceed. It
// panics with StampLimit when the epoch it moves the thread to is past MaxTS,
// except at SyncExit: an exiting thread stamps nothing more (its release runs
// on the executors' error unwind, where it must not panic), and the joiner's
// Acquire refuses the epoch instead.
func (b *Batcher) Release(op SyncOp, obj any) {
	b.Flush()
	if b.tap != nil {
		b.tap.Sync(b.thread, op, obj, 0)
	}
	if b.clock != nil {
		b.TS = b.clock.Add(1)
		if b.TS > MaxTS && op != SyncExit {
			panic(StampLimit{b.TS})
		}
	}
}

// Acquire is called immediately after op let this thread proceed. It panics
// with StampLimit when the epoch it catches up with is past MaxTS.
func (b *Batcher) Acquire(op SyncOp, obj any) {
	if b.tap != nil {
		b.tap.Sync(b.thread, op, obj, len(b.buf))
	}
	if b.clock != nil {
		if b.TS = b.clock.Load(); b.TS > MaxTS {
			panic(StampLimit{b.TS})
		}
	}
}
