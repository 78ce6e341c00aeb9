package core

import (
	"math/rand"
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// synthStream builds a deterministic pseudo-random access stream over n
// addresses with a heavy skew towards a few hot addresses, mimicking the
// uneven access frequencies §IV-A discusses.
func synthStream(events, addrs int, seed int64) []event.Access {
	r := rand.New(rand.NewSource(seed))
	out := make([]event.Access, 0, events)
	for i := 0; i < events; i++ {
		var a uint64
		if r.Intn(100) < 30 {
			a = uint64(0x8000 + 8*r.Intn(4)) // 30% of traffic on 4 addresses
		} else {
			a = uint64(0x10000 + 8*r.Intn(addrs))
		}
		k := event.Read
		if r.Intn(100) < 40 {
			k = event.Write
		}
		out = append(out, event.Access{
			Addr: a,
			Kind: k,
			Loc:  loc.Pack(1, 1+r.Intn(50)),
			Var:  loc.VarID(r.Intn(10)),
		})
	}
	return out
}

// depsEqual verifies both sets contain exactly the same keys with the same
// counts.
func depsEqual(t *testing.T, want, got *dep.Set, label string) {
	t.Helper()
	if want.Unique() != got.Unique() {
		t.Errorf("%s: unique %d vs %d", label, want.Unique(), got.Unique())
	}
	want.Range(func(k dep.Key, st dep.Stats) bool {
		gst, ok := got.Lookup(k)
		if !ok {
			t.Errorf("%s: missing %+v", label, k)
			return false
		}
		if gst.Count != st.Count {
			t.Errorf("%s: count mismatch %+v: want %d got %d", label, k, st.Count, gst.Count)
			return false
		}
		return true
	})
}

func runSerial(t testing.TB, evs []event.Access) *Result {
	return feed(mustNew(t, Config{Backend: "perfect"}), evs)
}

// TestParallelMatchesSerial is the core §IV correctness claim: "we can
// easily ensure that our parallel profiler produces the same data
// dependences as the serial version."
func TestParallelMatchesSerial(t *testing.T) {
	evs := synthStream(200000, 500, 1)
	want := runSerial(t, evs)

	for _, workers := range []int{1, 2, 4, 8} {
		p := mustNew(t, Config{
			Mode:    ModeParallel,
			Workers: workers,
			Backend: "perfect",
		})
		for _, a := range evs {
			p.Access(a)
		}
		got := p.Flush()
		depsEqual(t, want.Deps, got.Deps, "parallel")
		if got.Stats.Accesses != uint64(len(evs)) {
			t.Errorf("accesses = %d, want %d", got.Stats.Accesses, len(evs))
		}
		if len(got.WorkerEvents) != workers {
			t.Fatalf("WorkerEvents = %v, want one count per worker", got.WorkerEvents)
		}
		sum := uint64(0)
		for _, n := range got.WorkerEvents {
			if n == 0 {
				t.Errorf("%d workers: WorkerEvents = %v, want every worker fed", workers, got.WorkerEvents)
			}
			sum += n
		}
		if sum != uint64(len(evs)) {
			t.Errorf("%d workers: WorkerEvents sum to %d, want %d", workers, sum, len(evs))
		}
	}
}

func TestLockBasedMatchesLockFree(t *testing.T) {
	evs := synthStream(100000, 300, 2)
	want := runSerial(t, evs)
	p := mustNew(t, Config{
		Mode:      ModeParallel,
		Workers:   4,
		LockBased: true,
		Backend:   "perfect",
	})
	for _, a := range evs {
		p.Access(a)
	}
	depsEqual(t, want.Deps, p.Flush().Deps, "lock-based")
}

func TestParallelWithRealSignatures(t *testing.T) {
	// Large per-worker signatures: results must equal perfect.
	evs := synthStream(100000, 400, 5)
	want := runSerial(t, evs)
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 4, SlotsPerWorker: 1 << 18})
	for _, a := range evs {
		p.Access(a)
	}
	got := p.Flush()
	depsEqual(t, want.Deps, got.Deps, "signature-parallel")
	if got.Stats.StoreBytes == 0 || got.Stats.StoreModeledBytes == 0 {
		t.Error("store byte accounting missing")
	}
	// Four workers hold the 2^18 slots between them (sig.Signature.Shard).
	if got.Stats.StoreModeledBytes != 4*(1<<18) || got.Stats.StoreBytes != 32*(1<<18) {
		t.Errorf("store bytes = %d (%d modeled), want 2^18 slots at 32 B (4 B) over all four workers",
			got.Stats.StoreBytes, got.Stats.StoreModeledBytes)
	}
}

func TestMTMatchesSerialForSequentialPushes(t *testing.T) {
	// Pushing a sequential stream through the MT profiler from one goroutine
	// must reproduce the serial dependences (with monotone timestamps, no
	// races flagged).
	evs := synthStream(50000, 300, 6)
	for i := range evs {
		evs[i].TS = uint64(i + 1)
	}
	want := runSerial(t, evs)
	m := mustNew(t, Config{Mode: ModeMT, Workers: 4, Backend: "perfect"})
	for _, a := range evs {
		m.Access(a)
	}
	got := m.Flush()
	depsEqual(t, want.Deps, got.Deps, "mt")
	reversed := 0
	got.Deps.Range(func(_ dep.Key, st dep.Stats) bool {
		if st.Reversed {
			reversed++
		}
		return true
	})
	if reversed != 0 {
		t.Errorf("%d deps flagged reversed in a monotone stream", reversed)
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

func TestFlushTwicePanics(t *testing.T) {
	p := mustNew(t, Config{Mode: ModeParallel, Workers: 1, Backend: "perfect"})
	p.Flush()
	defer func() {
		if recover() == nil {
			t.Error("second Flush did not panic")
		}
	}()
	p.Flush()
}
