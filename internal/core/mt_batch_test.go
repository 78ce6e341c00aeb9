package core

import (
	"math/rand"
	"sync"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// mtBatchStream is a random 4-thread stream in the shape the executors emit:
// per-thread non-decreasing epochs that collide across threads (so the race
// rule's equal-epoch arm fires), half the traffic on four addresses of one
// owner (so one ring runs hot), reads that repeat (so the
// consumer-side collapse fires), collapsed reads, removes, and strided runs.
// It returns the AccessBatch form — points plus RangeRef slots into rngs —
// and the same stream as points only.
func mtBatchStream(r *rand.Rand, n int) (slots []event.Access, rngs []event.Range, points []event.Access) {
	var epoch [4]uint64
	for len(points) < n {
		th := int32(r.Intn(4))
		epoch[th] += uint64(r.Intn(8) / 7)
		a := event.Access{
			Addr:    0x40000 + 8*uint64(r.Intn(512)),
			TS:      1 + epoch[th],
			IterVec: uint64(r.Intn(3)),
			Loc:     loc.Pack(2, 1+r.Intn(12)),
			Var:     loc.VarID(r.Intn(4)),
			Thread:  th,
			Kind:    event.Read,
		}
		if r.Intn(2) == 0 {
			a.Addr = 0x8000 + 32*uint64(r.Intn(4)) // words ≡ 0 mod 4: one owner at W = 2 and 4
		}
		switch k := r.Intn(20); {
		case k == 0:
			a.Kind = event.Remove
		case k == 1:
			a.Rep = uint16(r.Intn(5))
		case k == 2:
			run := event.Range{Base: a.Addr, Stride: 8 * uint64(r.Intn(3)), Count: uint32(r.Intn(40)),
				TS: a.TS, IterVec: a.IterVec, IterDelta: 1, Loc: a.Loc, Var: a.Var, Thread: th,
				Kind: event.Kind(r.Intn(2))}
			slots = append(slots, event.Access{Addr: uint64(len(rngs)), Kind: event.RangeRef})
			rngs = append(rngs, run)
			for j := uint32(0); j < run.Count; j++ {
				points = append(points, run.At(j))
			}
			continue
		case k < 9:
			a.Kind = event.Write
		}
		for rep := r.Intn(3); rep >= 0; rep-- {
			slots = append(slots, a)
			points = append(points, a)
		}
	}
	return slots, rngs, points
}

// checkMTBatchEquivalence: the stream cut at random batch boundaries through
// AccessBatch must profile exactly like the same stream through Access.
func checkMTBatchEquivalence(t *testing.T, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	slots, rngs, points := mtBatchStream(r, 12000+r.Intn(12000))
	cfg := Config{Mode: ModeMT, Workers: 2 + r.Intn(3), QueueCap: 64 << r.Intn(4), Backend: "perfect"}
	if seed%5 == 4 {
		cfg.Workers = 70 // more rings than spread counts on its stack
	}
	want := feed(mustNew(t, cfg), points)

	m := mustNew(t, cfg)
	for rest := slots; len(rest) > 0; {
		n := 1 + r.Intn(16)
		if r.Intn(3) == 0 {
			n = 1 + r.Intn(3*event.BatchSize) // longer than a claim segment, than a small ring
		}
		n = min(n, len(rest))
		m.AccessBatch(rest[:n], rngs)
		rest = rest[n:]
	}
	got := m.Flush()
	requireSameProfile(t, "mt-batch", want, got)
	if flagged := countReversed(got.Deps); flagged == 0 {
		t.Errorf("seed %d: no dependence flagged; the stream no longer exercises the race rule", seed)
	}
}

func countReversed(s *dep.Set) (n int) {
	s.Range(func(_ dep.Key, st dep.Stats) bool {
		if st.Reversed {
			n++
		}
		return true
	})
	return n
}

func TestMTBatchEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		checkMTBatchEquivalence(t, seed)
	}
}

// FuzzMTBatchEquivalence lets the fuzz engine pick the stream, the cuts and
// the pipeline shape (in `make fuzz`).
func FuzzMTBatchEquivalence(f *testing.F) {
	f.Add(int64(1))
	f.Add(int64(2))
	f.Fuzz(checkMTBatchEquivalence)
}

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

// TestMTCollapsesStampedReads: with sync-epoch stamps a thread's identical
// reads carry identical stamps, so spread collapses them in a real timestamped
// run — and the profile stays byte-identical to the same run delivered one
// event at a time, runs of one in which nothing can collapse.
func TestMTCollapsesStampedReads(t *testing.T) {
	w, _ := workloads.ByName("rgbyuv")
	p := w.Build(workloads.Config{Scale: 0.1})
	run := func(perEvent bool) *Result {
		m := mustNew(t, Config{Mode: ModeMT, Workers: 2, Backend: "perfect", Meta: p.Meta})
		var hook event.Hook = m
		if perEvent {
			hook = event.HookFunc(m.Access)
		}
		if _, err := vm.Run(p, hook, interp.Options{Timestamps: true}); err != nil {
			t.Fatal(err)
		}
		return m.Flush()
	}
	want, got := run(true), run(false)
	requireSameProfile(t, "mt-stamped-collapse", want, got)
	if want.Stats.DupCollapsed != 0 || got.Stats.DupCollapsed == 0 {
		t.Errorf("DupCollapsed = %d in batches, %d per event; want > 0 and 0",
			got.Stats.DupCollapsed, want.Stats.DupCollapsed)
	}
}

// TestAccessCountsRep: a collapsed read counts 1+Rep accesses through either
// seam of every pipeline.
func TestAccessCountsRep(t *testing.T) {
	evs := []event.Access{
		{Addr: 0x10, Kind: event.Write, Loc: loc.Pack(1, 1)},
		{Addr: 0x10, Kind: event.Read, Loc: loc.Pack(1, 2), Rep: 3},
	}
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		for _, batch := range []bool{false, true} {
			p, err := New(Config{Mode: mode, Workers: 2, Backend: "perfect"})
			if err != nil {
				t.Fatal(err)
			}
			if batch {
				p.AccessBatch(evs, nil)
			} else {
				p.Access(evs[0])
				p.Access(evs[1])
			}
			if got := p.Flush().Stats.Accesses; got != 5 {
				t.Errorf("%v batch=%v: %d accesses, want 5", mode, batch, got)
			}
		}
	}
}

// TestMTRunsLongerThanRing: three threads hand 512-event batches to three
// workers whose rings hold 64 events, so every run is published in parts and
// producers wait on one another's space. It must terminate (`-race -count=10`
// in the verify notes) with every access counted, and the ring memory must be
// the same fixed function of Config on every run.
func TestMTRunsLongerThanRing(t *testing.T) {
	const threads, batches = 3, 40
	run := func() *Result {
		m := mustNew(t, Config{Mode: ModeMT, Workers: 3, QueueCap: 64, Backend: "perfect"})
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
	first, second := run(), run()
	for _, res := range []*Result{first, second} {
		if want := uint64(threads * batches * event.BatchSize); res.Stats.Accesses != want {
			t.Errorf("%d accesses profiled, want %d", res.Stats.Accesses, want)
		}
		if want := uint64(3 * 64 * 64); res.Stats.QueueBytes != want {
			t.Errorf("QueueBytes = %d, want workers x QueueCap x 64 = %d", res.Stats.QueueBytes, want)
		}
	}
	requireSameProfile(t, "mt-long-runs", first, second)
}

// TestMTBatchAllocFree: a steady-state executor batch through MT.AccessBatch —
// counting sort, claims, copies into the rings, the workers reading them in
// place — allocates nothing.
func TestMTBatchAllocFree(t *testing.T) {
	m := mustNew(t, Config{Mode: ModeMT, Workers: 2, SlotsPerWorker: 1 << 16})
	batch := make([]event.Access, 0, event.BatchSize)
	for i := uint64(0); len(batch)+3 <= cap(batch); i++ {
		w := event.Access{Addr: 0x1000 + 8*i, Kind: event.Write, Loc: loc.Pack(1, 1), TS: 1}
		r := event.Access{Addr: 0x1000 + 8*i, Kind: event.Read, Loc: loc.Pack(1, 2), TS: 1}
		batch = append(batch, w, r, r) // the second read collapses
	}
	for i := 0; i < 400; i++ {
		m.AccessBatch(batch, nil)
	}
	if n := testing.AllocsPerRun(400, func() { m.AccessBatch(batch, nil) }); n != 0 {
		t.Errorf("MT.AccessBatch allocates %.1f times per %d-event batch, want 0", n, len(batch))
	}
	if res := m.Flush(); res.Stats.DupCollapsed == 0 {
		t.Error("no duplicate read collapsed")
	}
}
