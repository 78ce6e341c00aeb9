package core

// The harness's hand-built streams (harness_test.go has the corpus and the
// table that runs them).

import (
	"math/rand"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

// equivSuite builds streams covering every hot-path special case: carried
// RAW/WAR/WAW, reductions, induction self-dependences, consecutive duplicate
// reads (the duplicate-read filter's target), variable lifetime, nested loops, and
// timestamped cross-thread accesses.
func equivSuite() []*equivStream {
	var suite []*equivStream

	{
		// Carried RAW at distance 1 plus within-iteration RAW, over a window
		// of addresses so every worker owns some of the stream.
		m, ctx := loopCtx("carried")
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
		suite = append(suite, newStream("carried-raw", gSuite, m, evs))
	}

	{
		// Reduction and induction flags: sum += a[i]; i++ per iteration,
		// with the duplicate-read shape (same read repeated back to back).
		m, ctx := loopCtx("reduce")
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
		suite = append(suite, newStream("reduction-dups", gSuite, m, evs))
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
		suite = append(suite, newStream("lifetime", gSuite, prog.NewMeta(), evs))
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
		suite = append(suite, newStream("nested", gSuite, m, evs))
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
		suite = append(suite, newStream("threads-ts", gSuite, prog.NewMeta(), evs))
	}

	return suite
}

// loopCtx is metadata of one loop, and the context inside it.
func loopCtx(name string) (*prog.Meta, uint32) {
	m := prog.NewMeta()
	return m, m.PushCtx(0, m.AddLoop(prog.Loop{Name: name}))
}

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
		out = append(out, event.Access{Addr: a, Kind: k, Loc: loc.Pack(1, 1+r.Intn(50)), Var: loc.VarID(r.Intn(10))})
	}
	return out
}

// mtThreadStream builds a deterministic 4-thread target stream: per-thread
// private accesses, cross-thread shared writes, and periodic timestamp
// reversals that must surface as Reversed dependences (§V-B).
func mtThreadStream(threads, n int) []event.Access {
	var evs []event.Access
	ts := uint64(1)
	for i := 0; i < n; i++ {
		th := int32(i % threads)
		priv := 0x10000 + uint64(th)*0x1000 + uint64(i%128)*8
		shared := 0x20000 + uint64(i%32)*8
		evs = append(evs,
			event.Access{Addr: priv, Kind: event.Write, Loc: loc.Pack(9, 90), Thread: th, TS: ts},
			event.Access{Addr: priv, Kind: event.Read, Loc: loc.Pack(9, 91), Thread: th, TS: ts + 1},
			event.Access{Addr: shared, Kind: event.Write, Loc: loc.Pack(9, 92), Thread: th, TS: ts + 2})
		if i%7 == 0 {
			// A read stamped before the write it follows: not mutually
			// exclusive, must be flagged as a potential race.
			evs = append(evs, event.Access{Addr: shared, Kind: event.Read, Loc: loc.Pack(9, 93), Thread: (th + 1) % int32(threads), TS: ts})
		}
		ts += 4
	}
	return evs
}

// tightThreads is four threads over 3,000 shared words, far more than a
// tight signature's slots; stamps repeat across threads, so the race rule
// has pairs to judge (it flags none: the stream is in stamp order).
func tightThreads() *equivStream {
	var evs []event.Access
	for i := 0; i < 12000; i++ {
		a := event.Access{Addr: 0x40000 + uint64(i*7919%3000)*8, Kind: event.Read, Loc: loc.Pack(2, 1+i%9), Thread: int32(i % 4), TS: uint64(i/5 + 1)}
		if i%3 == 0 {
			a.Kind = event.Write
		}
		evs = append(evs, a)
	}
	return newStream("tight-threads", gHand|gTight, prog.NewMeta(), evs)
}

// loopUnionStream is one carried RAW spread over many consecutive addresses,
// so every worker holds instances of it: it must count once in LoopDeps, the
// loops' key sets unioned at the merge, not their counts summed.
func loopUnionStream() *equivStream {
	m, ctx := loopCtx("spread")
	// The first iteration writes too, so the read always has a source.
	evs := []event.Access{{Addr: 0x9000, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: event.PackIterVec([]uint32{0})}}
	for it := uint32(1); it < 100; it++ {
		iv := event.PackIterVec([]uint32{it})
		evs = append(evs,
			event.Access{Addr: 0x9000 + uint64(it-1)*8, Kind: event.Read, Loc: loc.Pack(6, 60), CtxID: ctx, IterVec: iv},
			event.Access{Addr: 0x9000 + uint64(it)*8, Kind: event.Write, Loc: loc.Pack(6, 61), CtxID: ctx, IterVec: iv})
	}
	return newStream("loop-union", gHand, m, evs)
}

// deepNest runs a five-level nest, one loop deeper than an iteration vector
// holds. In the innermost context each iteration reads, then writes, the word
// of its innermost counter, so one RAW template is carried by whichever loop
// moved last: the fourth at most instances, in turn the third and the second
// when those move, and none when only the outermost moves, which the vector
// does not hold. After each innermost loop a read one context out takes its
// first word's last write: two contexts that share four loops.
func deepNest() *equivStream {
	m := prog.NewMeta()
	var ctxs [5]uint32
	ctx := uint32(0)
	for d := range ctxs {
		ctx = m.PushCtx(ctx, m.AddLoop(prog.Loop{Name: "deep"}))
		ctxs[d] = ctx
	}
	var evs []event.Access
	for i0 := uint32(0); i0 < 2; i0++ {
		for i1 := uint32(0); i1 < 2; i1++ {
			for i2 := uint32(0); i2 < 2; i2++ {
				for i3 := uint32(0); i3 < 3; i3++ {
					for i4 := uint32(0); i4 < 4; i4++ {
						iv := event.PackIterVec([]uint32{i0, i1, i2, i3, i4})
						a := 0xA000 + uint64(i4)*8
						evs = append(evs,
							event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(7, 71), CtxID: ctxs[4], IterVec: iv},
							event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(7, 70), CtxID: ctxs[4], IterVec: iv})
					}
					iv := event.PackIterVec([]uint32{i0, i1, i2, i3})
					evs = append(evs, event.Access{Addr: 0xA000, Kind: event.Read, Loc: loc.Pack(7, 72), CtxID: ctxs[3], IterVec: iv})
				}
			}
		}
	}
	return newStream("deep-nest", gHand, m, evs)
}

// dupReads is one write and 5,000 identical untimestamped reads of its word,
// as a sequential replay pushes them: the engine's duplicate-read fold's whole
// diet.
func dupReads() *equivStream {
	evs := []event.Access{{Addr: 0x800, Kind: event.Write, Loc: loc.Pack(1, 1)}}
	for i := 0; i < 5000; i++ {
		evs = append(evs, event.Access{Addr: 0x800, Kind: event.Read, Loc: loc.Pack(1, 2)})
	}
	return newStream("dup-reads", gHand, prog.NewMeta(), evs)
}

// producerEdges is a stream of routing sharp edges — interleaved strided
// instructions, duplicate reads abutting runs, stride breaks, descending and
// zero strides, Remove events cutting runs, same-address ping-pong between
// two instructions.
func producerEdges() *equivStream {
	m, ctx := loopCtx("edge")
	var evs []event.Access
	iv := func(it uint32) uint64 { return event.PackIterVec([]uint32{it}) }
	// Two interleaved strided instructions over the same iteration space, a
	// third reading the first's addresses one iteration behind (carried RAW),
	// plus periodic dups and breaks.
	for it := uint32(0); it < 3000; it++ {
		a := 0x10000 + uint64(it)*8
		b := 0x80000 + uint64(it)*16
		evs = append(evs,
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: b, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv(it)})
		if it > 0 {
			evs = append(evs, event.Access{Addr: a - 8, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)})
		}
		if it%5 == 0 {
			// Re-read the current address: a duplicate read the engine folds,
			// then a distinct-location read of the same address (not foldable).
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 13), CtxID: ctx, IterVec: iv(it)})
		}
		if it%97 == 0 {
			// Stride break: one far-away write from the same instruction.
			evs = append(evs, event.Access{Addr: 0x500000 + uint64(it)*8, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv(it)})
		}
		if it%131 == 0 {
			evs = append(evs, event.Access{Addr: a, Kind: event.Remove})
		}
	}
	// Descending and zero-stride runs.
	for it := uint32(0); it < 500; it++ {
		evs = append(evs,
			event.Access{Addr: 0x40000 - uint64(it)*8, Kind: event.Write, Loc: loc.Pack(2, 20), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: 0x60000, Kind: event.Read, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv(it)})
	}
	// Same-address ping-pong between two instructions.
	for it := uint32(0); it < 400; it++ {
		a := 0x90000 + uint64(it/2)*8
		evs = append(evs,
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 30), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 31), CtxID: ctx, IterVec: iv(it)})
	}
	return newStream("producer-edges", gHand, m, evs)
}

// rangedStream is a stream in its AccessBatch form: point slots plus RangeRef
// slots indexing rngs.
type rangedStream struct {
	slots []event.Access
	rngs  []event.Range
}

// points expands the stream: every range in element order at its slot.
func (s *rangedStream) points() []event.Access {
	var evs []event.Access
	for _, a := range s.slots {
		if a.Kind != event.RangeRef {
			evs = append(evs, a)
			continue
		}
		for r, j := &s.rngs[a.Addr], uint32(0); j < r.Count; j++ {
			evs = append(evs, r.At(j))
		}
	}
	return evs
}

func (s *rangedStream) point(a event.Access) { s.slots = append(s.slots, a) }

func (s *rangedStream) rng(r event.Range) {
	s.slots = append(s.slots, event.Access{Kind: event.RangeRef, Addr: uint64(len(s.rngs))})
	s.rngs = append(s.rngs, r)
}

// compressRuns rewrites every maximal run of consecutive events that is a
// Range — one instruction, constant address and iteration strides — as one:
// the stride compression a DDT2 client may apply to what it sends.
func compressRuns(evs []event.Access) *rangedStream {
	s := &rangedStream{}
	for i := 0; i < len(evs); {
		a := evs[i]
		n := 1
		if a.Kind <= event.Remove && i+1 < len(evs) {
			r := event.Range{
				Base: a.Addr, Stride: evs[i+1].Addr - a.Addr, TS: a.TS,
				IterVec: a.IterVec, IterDelta: evs[i+1].IterVec - a.IterVec,
				Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread, Kind: a.Kind, Flags: a.Flags,
			}
			for i+n < len(evs) && evs[i+n] == r.At(uint32(n)) {
				n++
			}
			if r.Count = uint32(n); n > 1 {
				s.rng(r)
			}
		}
		if n == 1 {
			s.point(a)
		}
		i += n
	}
	return s
}

// rangeEdges is ranges of every geometry, points between them, and a hot
// phase on ten addresses of one owner which later ranges then sweep across.
func rangeEdges() *equivStream {
	m, ctx := loopCtx("ranges")
	mkr := func(base uint64, stride int64, count uint32, line int, kind event.Kind, itBase uint32) event.Range {
		return event.Range{
			Base: base, Stride: uint64(stride), Count: count,
			IterVec: event.PackIterVec([]uint32{itBase}), IterDelta: 1,
			Loc: loc.Pack(7, line), Var: loc.VarID(line), CtxID: ctx, Kind: kind,
		}
	}
	s := &rangedStream{}
	for _, r := range []event.Range{
		mkr(0x1000, 8, 1000, 70, event.Write, 0),      // unit stride: every owner in turn
		mkr(0x1000, 8, 1000, 71, event.Read, 0),       // RAW against the writes
		mkr(0x9000, 16, 777, 72, event.Write, 5),      // stride 2 words
		mkr(0x20000, 64, 333, 73, event.Write, 0),     // stride a multiple of W: one owner
		mkr(0x33000, -8, 500, 74, event.Write, 9),     // descending
		mkr(0x44440, 0, 200, 75, event.Write, 0),      // zero stride: repeated address
		mkr(0x44440, 0, 200, 79, event.Read, 0),       // zero stride reads: duplicate reads
		mkr(0x51234, 12, 400, 76, event.Write, 0),     // unaligned stride
		mkr(0x60000, 8, 1, 77, event.Write, 0),        // single element
		mkr(0x60000, 8, 0, 77, event.Write, 0),        // empty
		mkr(^uint64(0)-64, 8, 30, 78, event.Write, 0), // wraps 2^64
	} {
		s.rng(r)
		// Points abutting the range: a read of its last element, repeated
		// four times, then the element's storage is freed.
		rd := event.Access{Addr: r.Last(), Kind: event.Read, Loc: loc.Pack(7, 80), CtxID: ctx}
		for range 4 {
			s.point(rd)
		}
		s.point(event.Access{Addr: r.Last(), Kind: event.Remove})
	}
	// The hot phase: ten addresses with one owner at every tested worker
	// count (word indices 24 apart), a dense run of repeats on one chunk.
	hot := func(k int) uint64 { return 0x70000 + uint64(k)*192 }
	for k := 0; k < 10; k++ {
		s.rng(mkr(hot(k), 0, 1500, 81, event.Write, 0))
		s.rng(mkr(hot(k), 0, 1500, 82, event.Read, 0))
	}
	s.rng(mkr(hot(0), 8, 100, 83, event.Write, 0))
	s.rng(mkr(hot(0), 8, 100, 84, event.Read, 0))
	s.rng(mkr(hot(3), -8, 100, 85, event.Remove, 0))
	return newWireStream("range-edges", gHand|gTight, m, s)
}

// mtBatchStream is a random 4-thread stream in the shape the executors emit,
// in its AccessBatch form: per-thread non-decreasing epochs that collide
// across threads (so the race rule's equal-epoch arm fires), half the
// traffic on four addresses of one owner (so one ring runs hot), reads that
// repeat (so the engine's fold fires), runs of up to seven identical reads,
// removes, and strided runs.
func mtBatchStream(r *rand.Rand, n int) *rangedStream {
	s := &rangedStream{}
	var epoch [4]uint64
	for events := 0; events < n; {
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
			for rep := r.Intn(5); rep > 0; rep-- {
				s.point(a)
				events++
			}
		case k == 2:
			run := event.Range{Base: a.Addr, Stride: 8 * uint64(r.Intn(3)), Count: uint32(r.Intn(40)),
				TS: a.TS, IterVec: a.IterVec, IterDelta: 1, Loc: a.Loc, Var: a.Var, Thread: th,
				Kind: event.Kind(r.Intn(2))}
			s.rng(run)
			events += int(run.Count)
			continue
		case k < 9:
			a.Kind = event.Write
		}
		for rep := r.Intn(3); rep >= 0; rep-- {
			s.point(a)
			events++
		}
	}
	return s
}
