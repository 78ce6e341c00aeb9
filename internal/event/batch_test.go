package event

import (
	"reflect"
	"testing"
)

// batchSink records how events were handed over: one entry per call, -1 for a
// per-event Access call, the batch length for AccessBatch.
type batchSink struct {
	calls []int
	evs   []Access
	syncs []string
}

func (s *batchSink) Access(a Access) {
	s.calls = append(s.calls, -1)
	s.evs = append(s.evs, a)
}

func (s *batchSink) AccessBatch(accesses []Access, ranges []Range) {
	s.calls = append(s.calls, len(accesses))
	s.evs = append(s.evs, accesses...)
}

func (s *batchSink) Sync(thread int32, op SyncOp, obj any, buffered int) {
	s.syncs = append(s.syncs, syncTag(thread, op, buffered))
}

func syncTag(thread int32, op SyncOp, buffered int) string {
	return string(rune('0'+thread)) + ":" + string(rune('0'+op)) + ":" + string(rune('0'+buffered))
}

// perEvent hides the bulk seam (and the tap) of a sink.
type perEvent struct{ Hook }

func emit(b *Batcher, addr uint64) {
	a := b.Next()
	*a = Access{Addr: addr, TS: b.TS, Kind: Write}
	b.Done()
}

// TestBatcherHandOff: a BatchHook gets its events when the buffer fills and
// before every release, in order and never later; any other hook gets the
// per-event call.
func TestBatcherHandOff(t *testing.T) {
	s := &batchSink{}
	b := NewBatcher(s, false)
	for i := 0; i < BatchSize+3; i++ {
		emit(&b, uint64(i))
	}
	if !reflect.DeepEqual(s.calls, []int{BatchSize}) {
		t.Fatalf("after BatchSize+3 events: calls %v, want one full batch", s.calls)
	}
	b.Acquire(SyncLock, nil) // an acquire hands nothing over
	if len(s.calls) != 1 {
		t.Fatalf("acquire flushed: calls %v", s.calls)
	}
	b.Release(SyncUnlock, nil)
	b.Release(SyncUnlock, nil) // nothing buffered: no empty batch
	if !reflect.DeepEqual(s.calls, []int{BatchSize, 3}) {
		t.Fatalf("after release: calls %v, want [%d 3]", s.calls, BatchSize)
	}
	for i, a := range s.evs {
		if a.Addr != uint64(i) || a.TS != 0 {
			t.Fatalf("event %d = %+v: out of order or stamped in an unstamped run", i, a)
		}
	}
	want := []string{syncTag(0, SyncStart, 0), syncTag(0, SyncLock, 3), syncTag(0, SyncUnlock, 0), syncTag(0, SyncUnlock, 0)}
	if !reflect.DeepEqual(s.syncs, want) {
		t.Fatalf("tap saw %v, want %v (thread:op:buffered)", s.syncs, want)
	}

	s = &batchSink{}
	b = NewBatcher(perEvent{s}, false)
	emit(&b, 1)
	emit(&b, 2)
	b.Release(SyncExit, nil)
	if !reflect.DeepEqual(s.calls, []int{-1, -1}) || len(s.syncs) != 0 {
		t.Fatalf("per-event hook: calls %v syncs %v", s.calls, s.syncs)
	}

	none := NewBatcher(nil, true) // no hook: every call is a no-op
	none.Release(SyncFork, nil)
	c := none.Child(1)
	c.Acquire(SyncLock, nil)
	c.Flush()
}

// TestBatcherEpochs walks the Lamport clock through a fork, a lock hand-off
// and a join: stamps start at 1, siblings start in the fork's epoch however
// late they run, and every happens-before edge ends in a strictly larger one.
func TestBatcherEpochs(t *testing.T) {
	s := &batchSink{}
	main := NewBatcher(s, true)
	if main.TS != 1 {
		t.Fatalf("main starts at epoch %d, want 1", main.TS)
	}
	main.Release(SyncFork, nil)
	fork := main.TS
	a := main.Child(0)
	a.Acquire(SyncLock, nil)
	a.Release(SyncUnlock, nil) // a's epoch moves on …
	b := main.Child(1)         // … and a sibling starting afterwards still gets the fork's
	if fork <= 1 || a.TS <= fork || b.TS != fork {
		t.Fatalf("fork %d, a after unlock %d, late sibling %d", fork, a.TS, b.TS)
	}
	b.Acquire(SyncLock, nil) // takes the lock a released
	if b.TS < a.TS {
		t.Fatalf("b acquired at %d, before a's release epoch %d", b.TS, a.TS)
	}
	emit(&b, 7)
	b.Release(SyncExit, nil)
	a.Release(SyncExit, nil)
	main.Acquire(SyncJoin, nil)
	if main.TS < b.TS || main.TS < a.TS {
		t.Fatalf("main joined at %d, children exited at %d and %d", main.TS, a.TS, b.TS)
	}
	if got := s.evs[0].TS; got == 0 || got >= main.TS {
		t.Fatalf("b's event stamped %d, main after the join is at %d", got, main.TS)
	}
}

// TestBatcherRefusesWideStamps: the shared clock hands out MaxTS, and the
// release or acquire that would move a thread past it panics with StampLimit,
// naming the limit — except the exiting thread's, which stamps nothing more.
func TestBatcherRefusesWideStamps(t *testing.T) {
	refused := func(name string, f func()) {
		t.Helper()
		defer func() {
			t.Helper()
			r := recover()
			want := "sync-epoch stamp 4294967296 is past 4294967295, the widest a store slot keeps (event.MaxTS)"
			if e, ok := r.(StampLimit); !ok || e.Error() != want {
				t.Errorf("%s: recovered %v, want StampLimit %q", name, r, want)
			}
		}()
		f()
	}
	main := NewBatcher(&batchSink{}, true)
	main.clock.Store(MaxTS - 1)
	main.Release(SyncFork, nil)
	if main.TS != MaxTS {
		t.Fatalf("release to the last epoch: TS %d, want %d", main.TS, uint64(MaxTS))
	}
	a, b := main.Child(0), main.Child(1)
	refused("release past MaxTS", func() { a.Release(SyncUnlock, nil) })
	refused("acquire past MaxTS", func() { b.Acquire(SyncLock, nil) })
	b.Release(SyncExit, nil) // on the error unwind: no panic
}
