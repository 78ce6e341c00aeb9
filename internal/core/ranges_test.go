package core

import (
	"fmt"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/workloads"
)

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

// accessRange hands p one range on its own: the one-slot batch.
func accessRange(p *Profiler, r event.Range) {
	p.AccessBatch([]event.Access{{Kind: event.RangeRef}}, []event.Range{r})
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
		if a.Kind <= event.Remove && a.Rep == 0 && i+1 < len(evs) {
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

// rangeEdges is the hand-built stream of TestAccessRangeEquivalence: ranges
// of every geometry, points between them, and a hot phase on ten addresses of
// one owner which later ranges then sweep across.
func rangeEdges() (*rangedStream, *prog.Meta) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "ranges"})
	ctx := m.PushCtx(0, l)
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
		mkr(0x44440, 0, 200, 79, event.Read, 0),       // zero stride reads: the duplicate filter's shape
		mkr(0x51234, 12, 400, 76, event.Write, 0),     // unaligned stride
		mkr(0x60000, 8, 1, 77, event.Write, 0),        // single element
		mkr(0x60000, 8, 0, 77, event.Write, 0),        // empty
		mkr(^uint64(0)-64, 8, 30, 78, event.Write, 0), // wraps 2^64
	} {
		s.rng(r)
		// Points abutting the range: a read of its last element that repeats
		// (the second arrives pre-collapsed, as the trace decoder hands it
		// over), then the element's storage is freed.
		rd := event.Access{Addr: r.Last(), Kind: event.Read, Loc: loc.Pack(7, 80), CtxID: ctx}
		s.point(rd)
		rd.Rep = 2
		s.point(rd)
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
	return s, m
}

// TestAccessRangeEquivalence holds ranges to being their points: over every
// store (the signature also at a size where the stream's addresses collide) and the serial, parallel and MT profilers, a stream handed
// over with its ranges — one one-slot batch each (accessRange), or as RangeRef
// slots of one AccessBatch — leaves the profile of the expanded stream through
// Access, and counts every data range it ingested.
func TestAccessRangeEquivalence(t *testing.T) {
	s, m := rangeEdges()
	evs := s.points()
	backends := []string{"perfect", "signature", "signature:slots=64"}
	var wantRanges, wantElems uint64
	for _, r := range s.rngs {
		if r.Count > 0 && r.Kind <= event.Write {
			wantRanges, wantElems = wantRanges+1, wantElems+uint64(r.Count)
		}
	}

	run := func(t *testing.T, mk func(backend string) *Profiler) {
		for _, backend := range backends {
			want := digestResult(feed(mk(backend), evs))
			check := func(how string, got *Result) {
				if digestResult(got) != want {
					t.Errorf("%s: %s profile differs from the expanded stream's", backend, how)
				}
				if got.Stats.Ranges != wantRanges || got.Stats.RangeElements != wantElems {
					t.Errorf("%s: %s counted %d ranges of %d elements, want %d of %d",
						backend, how, got.Stats.Ranges, got.Stats.RangeElements, wantRanges, wantElems)
				}
			}

			p := mk(backend)
			for _, a := range s.slots {
				if a.Kind == event.RangeRef {
					accessRange(p, s.rngs[a.Addr])
				} else {
					p.Access(a)
				}
			}
			check("one-range-batch", p.Flush())

			p = mk(backend)
			p.AccessBatch(s.slots, s.rngs)
			check("AccessBatch", p.Flush())
		}
	}
	t.Run("serial", func(t *testing.T) {
		run(t, func(b string) *Profiler { return mustNew(t, Config{Backend: b, Meta: m}) })
	})
	for _, workers := range []int{1, 2, 4, 8, 3} {
		workers := workers
		t.Run(fmt.Sprintf("parallel-%dw", workers), func(t *testing.T) {
			run(t, func(b string) *Profiler {
				return mustNew(t, Config{Mode: ModeParallel, Workers: workers, QueueCap: 256, Backend: b, Meta: m})
			})
		})
	}
	// The rings are shorter than a long range's share of a segment.
	t.Run("mt", func(t *testing.T) {
		run(t, func(b string) *Profiler {
			return mustNew(t, Config{Mode: ModeMT, Workers: 3, QueueCap: 64, Backend: b, Meta: m})
		})
	})
}

// TestRangeRefWithoutRanges: a RangeRef slot handed over without the ranges
// it indexes is refused on the caller's goroutine, by every mode, and nothing
// of its batch is profiled.
func TestRangeRefWithoutRanges(t *testing.T) {
	batch := []event.Access{
		{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1)},
		{Kind: event.RangeRef},
	}
	for _, mode := range []Mode{ModeSerial, ModeParallel, ModeMT} {
		for _, one := range []bool{false, true} {
			p := mustNew(t, Config{Mode: mode, Workers: 2, Backend: "perfect"})
			func() {
				const want = "core: AccessBatch: a RangeRef slot without the ranges it indexes"
				defer func() {
					if got := recover(); got != want {
						t.Errorf("%v one=%v: recovered %v, want the refusal %q", mode, one, got, want)
					}
				}()
				if one {
					p.Access(batch[1])
				} else {
					p.AccessBatch(batch, nil)
				}
			}()
			if res := p.Flush(); res.Stats.Accesses != 0 || res.Deps.Unique() != 0 {
				t.Errorf("%v one=%v: %d accesses, %d dependences profiled from a refused batch", mode, one, res.Stats.Accesses, res.Deps.Unique())
			}
		}
	}
}

// producerEdges is a stream of routing sharp edges — interleaved strided
// instructions, duplicate reads abutting runs, stride breaks, descending and
// zero strides, Remove events cutting runs, same-address ping-pong between
// two instructions.
func producerEdges() equivStream {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "edge"})
	ctx := m.PushCtx(0, l)

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
			event.Access{Addr: b, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv(it)},
		)
		if it > 0 {
			evs = append(evs, event.Access{Addr: a - 8, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)})
		}
		if it%5 == 0 {
			// Re-read the current address: the duplicate filter's shape, then
			// a distinct-location read of the same address (not collapsible).
			evs = append(evs,
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 12), CtxID: ctx, IterVec: iv(it)},
				event.Access{Addr: a, Kind: event.Read, Loc: loc.Pack(1, 13), CtxID: ctx, IterVec: iv(it)},
			)
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
			event.Access{Addr: 0x60000, Kind: event.Read, Loc: loc.Pack(2, 21), CtxID: ctx, IterVec: iv(it)},
		)
	}
	// Same-address ping-pong between two instructions.
	for it := uint32(0); it < 400; it++ {
		a := 0x90000 + uint64(it/2)*8
		evs = append(evs,
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 30), CtxID: ctx, IterVec: iv(it)},
			event.Access{Addr: a, Kind: event.Write, Loc: loc.Pack(3, 31), CtxID: ctx, IterVec: iv(it)},
		)
	}
	return equivStream{"producer-edges", m, evs}
}

// TestStrideCompressionEquivalence runs the golden corpus — every workload
// plus the equivalence suite's special-case streams and the routing edges —
// through serial, parallel and MT both as recorded and stride-compressed
// (compressRuns), and holds the parallel profile to the serial one, diffing
// the full profiles, so a mismatch prints the offending dependence key and
// stats, not just a digest.
func TestStrideCompressionEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full workload corpus")
	}
	streams := append(equivSuite(), producerEdges())
	for _, w := range workloads.All() {
		p := w.Build(workloads.Config{Scale: 0.25, Threads: 4})
		var c goldenCap
		if _, err := interp.Run(p, &c, interp.Options{}); err != nil {
			t.Fatalf("capture %s: %v", w.Name, err)
		}
		streams = append(streams, equivStream{"wl-" + w.Name, p.Meta, c.evs})
	}

	mk := func(kind string, meta *prog.Meta) *Profiler {
		cfg := Config{Backend: "perfect", Meta: meta}
		switch kind {
		case "parallel":
			cfg.Mode, cfg.Workers, cfg.QueueCap = ModeParallel, 4, 256
		case "mt":
			cfg.Mode, cfg.Workers, cfg.QueueCap = ModeMT, 2, 256
		}
		return mustNew(t, cfg)
	}

	rangesSeen := 0
	for _, s := range streams {
		s := s
		t.Run(s.name, func(t *testing.T) {
			c := compressRuns(s.evs)
			rangesSeen += len(c.rngs)
			var serial *Result
			for _, kind := range []string{"serial", "parallel", "mt"} {
				points := feed(mk(kind, s.meta), s.evs)
				p := mk(kind, s.meta)
				p.AccessBatch(c.slots, c.rngs)
				requireSameProfile(t, fmt.Sprintf("%s/%s", s.name, kind), points, p.Flush())
				switch kind {
				case "serial":
					serial = points
				case "parallel":
					requireSameProfile(t, s.name+"/parallel vs serial", serial, points)
				}
			}
		})
	}
	if rangesSeen == 0 {
		t.Error("no stream compressed a single range: the comparison is vacuous")
	}
}
