package core

import (
	"fmt"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// equivStream is one workload of the fast-vs-slow equivalence suite: a
// deterministic access stream plus the loop metadata to classify it.
type equivStream struct {
	name string
	meta *prog.Meta
	evs  []event.Access
}

// equivSuite builds streams covering every hot-path special case: carried
// RAW/WAR/WAW, reductions, induction self-dependences, consecutive duplicate
// reads (the producer filter's target), variable lifetime, nested loops, and
// timestamped cross-thread accesses.
func equivSuite() []equivStream {
	var suite []equivStream

	{
		// Carried RAW at distance 1 plus within-iteration RAW, over a window
		// of addresses so every worker owns some of the stream.
		m := prog.NewMeta()
		l := m.AddLoop(prog.Loop{Name: "carried"})
		ctx := m.PushCtx(0, l)
		var evs []event.Access
		for it := uint32(0); it < 200; it++ {
			iv := event.PackIterVec([]uint32{it})
			a := 0x1000 + uint64(it%64)*8
			if it > 0 {
				prev := 0x1000 + uint64((it-1)%64)*8
				evs = append(evs, event.Access{Addr: prev, Kind: event.Read, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv})
			}
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv})
		}
		suite = append(suite, equivStream{"carried-raw", m, evs})
	}

	{
		// Reduction and induction flags: sum += a[i]; i++ per iteration,
		// with the duplicate-read shape (same read repeated back to back).
		m := prog.NewMeta()
		l := m.AddLoop(prog.Loop{Name: "reduce"})
		ctx := m.PushCtx(0, l)
		var evs []event.Access
		const sum, ind = 0x8000, 0x8008
		for it := uint32(0); it < 150; it++ {
			iv := event.PackIterVec([]uint32{it})
			a := 0x2000 + uint64(it)*8
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv},
				event.Access{Addr: sum, Kind: event.Read, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction},
				event.Access{Addr: sum, Kind: event.Write, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction},
				event.Access{Addr: ind, Kind: event.Read, Loc: loc.Pack(2, 22), CtxID: ctx, IterVec: iv, Flags: event.FlagInduction},
				event.Access{Addr: ind, Kind: event.Write, Loc: loc.Pack(2, 22), CtxID: ctx, IterVec: iv, Flags: event.FlagInduction})
		}
		suite = append(suite, equivStream{"reduction-dups", m, evs})
	}

	{
		// Variable lifetime: write, free, re-write the same addresses; the
		// second write must be INIT, and the cache must not resurrect the
		// removed history.
		var evs []event.Access
		for i := 0; i < 50; i++ {
			a := 0x3000 + uint64(i%8)*8
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 30)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(3, 31)},
				event.Access{Addr: a, Kind: event.Remove},
				event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 32)})
		}
		suite = append(suite, equivStream{"lifetime", prog.NewMeta(), evs})
	}

	{
		// Two-level nest: the inner loop carries one dependence, the outer
		// another, exercising the multi-lane iteration-vector compare.
		m := prog.NewMeta()
		lo := m.AddLoop(prog.Loop{Name: "outer"})
		li := m.AddLoop(prog.Loop{Name: "inner"})
		octx := m.PushCtx(0, lo)
		ictx := m.PushCtx(octx, li)
		var evs []event.Access
		for o := uint32(0); o < 12; o++ {
			for i := uint32(0); i < 12; i++ {
				iv := event.PackIterVec([]uint32{o, i})
				inner := 0x4000 + uint64(i%4)*8
				outer := 0x5000 + uint64(o%4)*8
				evs = append(evs,
					event.Access{Addr: inner, Kind: event.Write, Loc: loc.Pack(4, 40), CtxID: ictx, IterVec: iv},
					event.Access{Addr: inner, Kind: event.Read, Loc: loc.Pack(4, 41), CtxID: ictx, IterVec: iv},
					event.Access{Addr: outer, Kind: event.Write, Loc: loc.Pack(4, 42), CtxID: ictx, IterVec: iv})
			}
		}
		suite = append(suite, equivStream{"nested", m, evs})
	}

	{
		// Cross-thread accesses with timestamp reversals (MT race check).
		var evs []event.Access
		ts := uint64(1)
		for i := 0; i < 80; i++ {
			a := 0x6000 + uint64(i%16)*8
			w := event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(5, 50), Thread: int32(i % 3), TS: ts + 2}
			r := event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(5, 51), Thread: int32((i + 1) % 3), TS: ts}
			ts += 3
			evs = append(evs, w, r) // read's TS precedes the write's: reversed
		}
		suite = append(suite, equivStream{"threads-ts", prog.NewMeta(), evs})
	}

	return suite
}

// feed pushes a stream through a profiler and flushes.
// mustNew is New for tests: a Config New refuses fails the test.
func mustNew(t testing.TB, cfg Config) Profiler {
	t.Helper()
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func feed(p Profiler, evs []event.Access) *Result {
	for _, a := range evs {
		p.Access(a)
	}
	return p.Flush()
}

// requireSameProfile asserts two results are byte-identical in everything
// user-visible: the dependence set with all Stats fields, and LoopDeps.
func requireSameProfile(t *testing.T, label string, want, got *Result) {
	t.Helper()
	if want.Deps.Unique() != got.Deps.Unique() {
		t.Fatalf("%s: unique deps %d vs %d", label, want.Deps.Unique(), got.Deps.Unique())
	}
	want.Deps.Range(func(k dep.Key, st dep.Stats) bool {
		gst, ok := got.Deps.Lookup(k)
		if !ok {
			t.Errorf("%s: missing dep %+v", label, k)
			return false
		}
		if gst != st {
			t.Errorf("%s: stats mismatch for %+v:\n want %+v\n got  %+v", label, k, st, gst)
			return false
		}
		return true
	})
	if len(want.Loops) != len(got.Loops) {
		t.Fatalf("%s: LoopDeps loops %d vs %d", label, len(want.Loops), len(got.Loops))
	}
	for id, wld := range want.Loops {
		gld := got.Loops[id]
		if gld == nil {
			t.Fatalf("%s: loop %d missing from LoopDeps", label, id)
		}
		if *wld != *gld {
			t.Fatalf("%s: LoopDeps mismatch for loop %d:\n want %+v\n got  %+v", label, id, *wld, *gld)
		}
	}
	if want.Stats.Accesses != got.Stats.Accesses {
		t.Errorf("%s: accesses %d vs %d", label, want.Stats.Accesses, got.Stats.Accesses)
	}
}

// bareEngine is the reference every shortcut is held to: the stream through
// one Engine over an exact store, with nothing in front of it — no producer,
// so no duplicate-read filter and no collapse. With emptied set, the instance
// cache is cleared before every event, so every record misses and goes through
// the dependence set's and the per-loop aggregates' Ref: Algorithm 1 with a
// map operation per instance.
func bareEngine(s equivStream, raceCheck, emptied bool) *Result {
	eng := NewEngine(sig.NewPerfectSignature(), s.meta, raceCheck)
	res := &Result{}
	for _, a := range s.evs {
		if emptied {
			eng.cache = [depCacheSize]depCacheEntry{}
		}
		eng.Process(a)
		if a.Kind <= event.Write {
			res.Stats.Accesses += 1 + uint64(a.Rep)
		}
	}
	res.Deps, res.Loops = eng.Deps(), eng.LoopDeps()
	res.Stats.DepCacheHits, res.Stats.DepCacheProbes = eng.CacheStats()
	return res
}

// TestInstanceCacheExact holds the instance cache to the engine without one,
// on the equivalence suite and every bundled workload's captured stream.
func TestInstanceCacheExact(t *testing.T) {
	for _, s := range goldenStreams(t, interp.Run) {
		want, got := bareEngine(s, true, true), bareEngine(s, true, false)
		if want.Stats.DepCacheHits != 0 || want.Stats.DepCacheProbes == 0 {
			t.Errorf("%s: emptied cache hit %d of %d probes, want 0 of > 0",
				s.name, want.Stats.DepCacheHits, want.Stats.DepCacheProbes)
		}
		if got.Stats.DepCacheHits == 0 {
			t.Errorf("%s: the cache never hit", s.name)
		}
		requireSameProfile(t, s.name, want, got)
	}
}

// TestFastSlowEquivalence holds every pipeline — instance cache, duplicate-read
// filter, MT collapse and merge included — to the engine with none of them.
func TestFastSlowEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			for _, cfg := range []Config{
				{Mode: ModeSerial},
				{Mode: ModeParallel, Workers: 3, QueueCap: 4}, // non-power-of-two: the modulo owner path
				{Mode: ModeMT, Workers: 2, QueueCap: 256},
			} {
				cfg.Backend, cfg.Meta = "perfect", s.meta
				p, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				slow := bareEngine(s, cfg.Mode == ModeMT, true) // MT engines always run the race rule
				requireSameProfile(t, fmt.Sprintf("%s/%v", s.name, cfg.Mode), slow, feed(p, s.evs))
			}
		})
	}
}

// TestSerialParallelLoopDepsEquivalence pins the mergeLoopAggs semantics: a
// carried dependence whose instances land on several workers (same source
// lines, different addresses) must count once in LoopDeps, exactly as in a
// serial run — the double-count the per-worker count merge used to produce.
func TestSerialParallelLoopDepsEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			serial := feed(mustNew(t, Config{
				Backend: "perfect",
				Meta:    s.meta,
			}), s.evs)
			for _, workers := range []int{2, 3, 4} {
				par := feed(mustNew(t, Config{
					Mode:     ModeParallel,
					Workers:  workers,
					QueueCap: 4,
					Backend:  "perfect",
					Meta:     s.meta,
				}), s.evs)
				requireSameProfile(t, fmt.Sprintf("%s/%dw", s.name, workers), serial, par)
			}
		})
	}
}

// TestLoopDepsNoDoubleCountAcrossWorkers is the sharpest form of the merge
// fix: one carried RAW spread over many addresses must report CarriedRAW == 1
// regardless of worker count.
func TestLoopDepsNoDoubleCountAcrossWorkers(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "spread"})
	ctx := m.PushCtx(0, l)
	var evs []event.Access
	for it := uint32(1); it < 100; it++ {
		iv := event.PackIterVec([]uint32{it})
		prev := 0x9000 + uint64(it-1)*8 // consecutive addresses: every worker owns some
		cur := 0x9000 + uint64(it)*8
		evs = append(evs,
			event.Access{Addr: prev, Kind: event.Read, Loc: loc.Pack(6, 60), CtxID: ctx, IterVec: iv},
			event.Access{Addr: cur, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: iv})
	}
	// The first iteration writes too, so the read always has a source.
	evs = append([]event.Access{{Addr: 0x9000, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: event.PackIterVec([]uint32{0})}}, evs...)

	for _, workers := range []int{1, 2, 4, 8} {
		res := feed(mustNew(t, Config{
			Mode:    ModeParallel,
			Workers: workers,
			Backend: "perfect",
			Meta:    m,
		}), evs)
		ld := res.Loops[l]
		if ld == nil {
			t.Fatalf("workers=%d: no LoopDeps entry", workers)
		}
		if ld.CarriedRAW != 1 {
			t.Errorf("workers=%d: CarriedRAW = %d, want 1 (key-set union, not count sum)", workers, ld.CarriedRAW)
		}
		if ld.MinRAWDist != 1 {
			t.Errorf("workers=%d: MinRAWDist = %d, want 1", workers, ld.MinRAWDist)
		}
	}
}

// TestControlChunksNotCountedAsData pins the pushOpen metrics fix: flush and
// epoch-mark control pushes must land in ControlChunks, never in Chunks.
func TestControlChunksNotCountedAsData(t *testing.T) {
	p := mustNew(t, Config{
		Mode:    ModeParallel,
		Workers: 2,
		Backend: "perfect",
	})
	p.Access(event.Access{Addr: 0x100, Kind: event.Write, Loc: loc.Pack(1, 1)})
	p.Access(event.Access{Addr: 0x108, Kind: event.Write, Loc: loc.Pack(1, 2)})
	res := p.Flush()
	// Two open chunks flushed as data + two flush sentinels as control.
	if res.Stats.Chunks != 2 {
		t.Errorf("Chunks = %d, want 2 (one partial data chunk per worker)", res.Stats.Chunks)
	}
	if res.Stats.ControlChunks != 2 {
		t.Errorf("ControlChunks = %d, want 2 (one flush sentinel per worker)", res.Stats.ControlChunks)
	}
}
