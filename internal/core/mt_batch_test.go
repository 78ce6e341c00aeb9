package core

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// TestMTOrderingInvariant holds MT to the invariant its doc states. Four
// threads take turns, under a real mutex, writing one shared word; every
// write is tagged with its global turn number, and between turns a thread
// emits private traffic that straddles buffer boundaries. Each thread hands
// its events over the way an executor does (event.Batcher: on a full buffer
// and before the unlock). If a write ordered before another by the lock
// reached its worker after it, some WAW would join non-consecutive turns;
// and since every pair is ordered, the race rule must flag nothing.
func TestMTOrderingInvariant(t *testing.T) {
	const threads, turns = 4, 3000
	for _, cfg := range []Config{
		{Mode: ModeMT, Workers: 2, Backend: "perfect", QueueCap: 256},
		{Mode: ModeMT, Workers: 3, Backend: "perfect", QueueCap: 4096},
	} {
		m := mustNew(t, cfg)
		main := event.NewBatcher(m, true)
		put := func(b *event.Batcher, addr uint64, line int, th int32) {
			*b.Next() = event.Access{Addr: addr, TS: b.TS, Loc: loc.Pack(3, line), Thread: th, Kind: event.Write}
			b.Done()
		}
		var mu sync.Mutex
		var wg sync.WaitGroup
		turn := 0
		main.Release(event.SyncFork, nil)
		for th := int32(0); th < threads; th++ {
			wg.Add(1)
			out := main.Child(th)
			go func(th int32) {
				defer wg.Done()
				defer out.Release(event.SyncExit, nil)
				for {
					mu.Lock()
					out.Acquire(event.SyncLock, &mu)
					if turn == turns {
						mu.Unlock()
						return
					}
					turn++
					put(&out, 0x5000, turn, th)
					out.Release(event.SyncUnlock, &mu)
					mu.Unlock()
					for i := 0; i < 37*int(th+1); i++ {
						put(&out, 0x100000*uint64(th+1)+8*uint64(i), turns+1, th)
					}
				}
			}(th)
		}
		wg.Wait()
		main.Acquire(event.SyncJoin, nil)
		res := m.Flush()
		waws := 0
		res.Deps.Range(func(k dep.Key, st dep.Stats) bool {
			if st.Reversed {
				t.Errorf("%+v flagged as a race (%+v); every pair is ordered", k, st)
			}
			if k.Type != dep.WAW || k.Sink.Line() > turns {
				return true
			}
			waws++
			if k.Sink.Line() != k.Src.Line()+1 {
				t.Errorf("turn %d's write followed turn %d's in the worker", k.Sink.Line(), k.Src.Line())
			}
			return !t.Failed()
		})
		if waws != turns-1 {
			t.Errorf("%d WAW dependences between turns, want %d", waws, turns-1)
		}
	}
}

// TestMTRunsLongerThanRing: three threads hand 512-event batches to three
// workers whose rings hold 64 events, so every run is published in parts and
// producers wait on one another's space — with and without the Figure 5
// ablation's ring locks, which are never held across that wait. It must
// terminate (`-race -count=10` in the verify notes) with every access counted,
// and the ring memory must be the same fixed function of Config on every run.
func TestMTRunsLongerThanRing(t *testing.T) {
	const threads, batches = 3, 40
	run := func(lockBased bool) *Result {
		m := mustNew(t, Config{Mode: ModeMT, Workers: 3, QueueCap: 64, LockBased: lockBased, Backend: "perfect"})
		var wg sync.WaitGroup
		for th := int32(0); th < threads; th++ {
			wg.Add(1)
			go func(th int32) {
				defer wg.Done()
				batch := make([]event.Access, event.BatchSize)
				for b := 0; b < batches; b++ {
					for i := range batch {
						batch[i] = event.Access{Addr: 0x1000*uint64(th+1) + 8*uint64(i%97), TS: 1,
							Loc: loc.Pack(4, 1+i%5), Thread: th, Kind: event.Kind(i % 2)}
					}
					m.AccessBatch(batch, nil)
				}
			}(th)
		}
		wg.Wait()
		return m.Flush()
	}
	first, second, locked := run(false), run(false), run(true)
	for _, res := range []*Result{first, second, locked} {
		if want := uint64(threads * batches * event.BatchSize); res.Stats.Accesses != want {
			t.Errorf("%d accesses profiled, want %d", res.Stats.Accesses, want)
		}
		if want := uint64(3 * 64 * 64); res.Stats.QueueBytes != want {
			t.Errorf("QueueBytes = %d, want workers x QueueCap x 64 = %d", res.Stats.QueueBytes, want)
		}
	}
	sameProfile(t, "mt-long-runs", first, second)
	sameProfile(t, "mt-long-runs-locked", first, locked)
}

// TestMTBatchAllocFree: a steady-state executor batch through AccessBatch in
// either pipelined mode — owner pass, claims, copies into the rings, the
// workers reading them in place — allocates nothing: the rings are allocated
// by New, so the warm-up is the stores' alone.
func TestMTBatchAllocFree(t *testing.T) {
	for _, mode := range []Mode{ModeParallel, ModeMT} {
		m := mustNew(t, Config{Mode: mode, Workers: 2, SlotsPerWorker: 1 << 16})
		batch := make([]event.Access, 0, event.BatchSize)
		for i := uint64(0); len(batch)+3 <= cap(batch); i++ {
			w := event.Access{Addr: 0x1000 + 8*i, Kind: event.Write, Loc: loc.Pack(1, 1), TS: 1}
			r := event.Access{Addr: 0x1000 + 8*i, Kind: event.Read, Loc: loc.Pack(1, 2), TS: 1}
			batch = append(batch, w, r, r) // the engine folds the second read
		}
		for i := 0; i < 400; i++ {
			m.AccessBatch(batch, nil)
		}
		if n := testing.AllocsPerRun(400, func() { m.AccessBatch(batch, nil) }); n != 0 {
			t.Errorf("%v: AccessBatch allocates %.1f times per %d-event batch, want 0", mode, n, len(batch))
		}
		m.Flush()
	}
}

// TestMTFreedAfterFlush: once flushed and dropped, a profiler — rings, stores
// and all — is garbage at the next collection. Scratch that spread keeps
// between segments must not hold it longer (a sync.Pool inside it did, for
// two collections: the peak heap of back-to-back runs then held two
// profilers).
func TestMTFreedAfterFlush(t *testing.T) {
	freed := make(chan struct{})
	func() {
		m := mustNew(t, Config{Mode: ModeParallel, Workers: 4, SlotsPerWorker: 1 << 12})
		// On a ring, which only the profiler holds.
		runtime.SetFinalizer(m.rings[0], func(*ring) { close(freed) })
		batch := make([]event.Access, event.BatchSize)
		for i := range batch {
			batch[i] = event.Access{Addr: 0x1000 + 8*uint64(i), Kind: event.Write, Loc: loc.Pack(1, 1)}
		}
		m.AccessBatch(batch, nil)
		m.Flush()
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a flushed profiler is still reachable after a collection")
	}
}

func TestMTConcurrentProducers(t *testing.T) {
	// 4 target threads hammer disjoint addresses plus one shared (locked)
	// address; the pipeline must not lose or duplicate per-thread accesses.
	const perThread = 20000
	m := mustNew(t, Config{Mode: ModeMT, Workers: 4, Backend: "perfect"})
	var ts struct {
		sync.Mutex
		n uint64
	}
	stamp := func() uint64 {
		ts.Lock()
		defer ts.Unlock()
		ts.n++
		return ts.n
	}
	var wg sync.WaitGroup
	for thr := int32(0); thr < 4; thr++ {
		wg.Add(1)
		go func(thr int32) {
			defer wg.Done()
			base := uint64(0x100000 * (int(thr) + 1))
			for i := 0; i < perThread; i++ {
				a := base + uint64(8*(i%64))
				m.Access(event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, int(thr)+1), Thread: thr, TS: stamp()})
				m.Access(event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 10+int(thr)), Thread: thr, TS: stamp()})
			}
		}(thr)
	}
	wg.Wait()
	got := m.Flush()
	if got.Stats.Accesses != 4*2*perThread {
		t.Errorf("accesses = %d, want %d", got.Stats.Accesses, 4*2*perThread)
	}
	// Each thread's private RAW must exist with full count (per-thread,
	// per-address order preserved through the MPSC queue).
	for thr := int32(0); thr < 4; thr++ {
		k := dep.Key{Type: dep.RAW, Sink: loc.Pack(1, 10+int(thr)), SinkThread: int16(thr), Src: loc.Pack(1, int(thr)+1), SrcThread: int16(thr)}
		st, ok := got.Deps.Lookup(k)
		if !ok {
			t.Fatalf("thread %d RAW missing", thr)
		}
		if st.Count != perThread {
			t.Errorf("thread %d RAW count = %d, want %d", thr, st.Count, perThread)
		}
		if st.Reversed {
			t.Errorf("thread %d private dep flagged as race", thr)
		}
	}
}
