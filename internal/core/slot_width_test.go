package core

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/minilang"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/trace"
)

// TestSlotNarrowingIsPinned feeds a race-checking engine the boundary of
// every field a store slot keeps narrower than the event carries it, through
// both signature arms and the exact store, and pins what comes out: one write
// then one read of the same address, judged by the RAW they close and by the
// write left resident. The widest stamp and thread a slot keeps (event.MaxTS,
// event.MaxThread) are kept whole; one past them never reaches a profiler —
// the executors and the DDT2 decoder refuse it, and the thread rows below
// check both. A context past its width wraps, and nothing counts it (ROADMAP
// item 4) — the rows marked "wraps" record today's wrong answer so that
// widening it, or counting it, has a test to change. A bare engine still
// gives the context rows' answer; a profiler cannot be built that would (core.New
// refuses the metadata).
func TestSlotNarrowingIsPinned(t *testing.T) {
	const addr = 0x1000
	access := func(kind event.Kind, line int, thread int32, ctx uint32, iter, ts uint64) event.Access {
		return event.Access{Kind: kind, Addr: addr, Loc: loc.Pack(1, line), Thread: thread, CtxID: ctx, IterVec: iter, TS: ts}
	}
	write := func(thread int32, ctx uint32, ts uint64) event.Access {
		return access(event.Write, 1, thread, ctx, 1, ts)
	}
	// The read runs in context 1 (armsMeta's outer loop), one iteration on.
	read := func(thread int32, ts uint64) event.Access {
		return access(event.Read, 2, thread, 1, 2, ts)
	}
	for _, tc := range []struct {
		name      string
		w, r      event.Access
		srcThread int16  // of the RAW
		reversed  bool   // the §V race flag
		carried   bool   // the loop verdict
		ctx       uint32 // of the resident write
	}{
		// The widest stamp against a small one from another thread: any bit
		// of it lost would read it smaller and miss the reversal …
		{"stamp 2^32-1 before 7", write(0, 0, event.MaxTS), read(1, 7), 0, true, false, 0},
		// … and the other way round flag an ordered pair.
		{"stamp 7 before 2^32-1", write(0, 0, 7), read(1, event.MaxTS), 0, false, false, 0},
		{"stamp 2^32-1 equal, other thread", write(0, 0, event.MaxTS), read(1, event.MaxTS), 0, true, false, 0},

		{"thread 511", write(event.MaxThread, 0, 9), read(0, 9), event.MaxThread, true, false, 0},

		{"ctx 65,535", write(0, sig.CtxMask, 0), read(0, 0), 0, false, false, sig.CtxMask},
		{"ctx 65,536 wraps", write(0, sig.CtxMask+1, 0), read(0, 0), 0, false, false, 0},
		// wraps: context 65,537 is remembered as context 1, the read's own,
		// and a pair no loop joins is reported carried by the outer loop.
		{"ctx 65,537 wraps", write(0, sig.CtxMask+2, 0), read(0, 0), 0, false, true, 1},
	} {
		stamped := sig.NewSignature(64)
		stamped.KeepStamps() // NewEngine cannot see behind plainStore to ask
		for arm, st := range map[string]sig.Store{
			"fused":     sig.NewSignature(64),
			"interface": plainStore{stamped},
			"perfect":   sig.NewPerfectSignature(),
		} {
			e := NewEngine(st, armsMeta(), true)
			e.Process(tc.w)
			e.Process(tc.r)
			raws := e.Deps().FilterType(dep.RAW)
			if len(raws) != 1 {
				t.Fatalf("%s/%s: %d RAW dependences, want 1", tc.name, arm, len(raws))
			}
			k := raws[0]
			stt, _ := e.Deps().Lookup(k)
			if k.SrcThread != tc.srcThread || k.SinkThread != int16(tc.r.Thread) ||
				stt.Reversed != tc.reversed || stt.Carried != tc.carried {
				t.Errorf("%s/%s: RAW from thread %d, reversed %v, carried %v; want thread %d, %v, %v",
					tc.name, arm, k.SrcThread, stt.Reversed, stt.Carried, tc.srcThread, tc.reversed, tc.carried)
			}
			w, _ := st.LookupWrite(addr)
			if w.Ctx() != tc.ctx || w.TS != tc.w.TS || w.Thread() != int32(tc.srcThread) {
				t.Errorf("%s/%s: resident write has ctx %d, stamp %#x, thread %d; want %d, %#x, %d",
					tc.name, arm, w.Ctx(), w.TS, w.Thread(), tc.ctx, tc.w.TS, tc.srcThread)
			}
		}
	}

	// Thread 512: the executors refuse to spawn it, and the decoder refuses a
	// define record naming it; thread 511 reaches a race-checking profiler
	// from both and is the RAW's source.
	spawn := func(threads int) *minilang.Program {
		p := minilang.New(fmt.Sprintf("spawn-%d", threads))
		p.MainFunc(func(b *minilang.Block) {
			b.Decl("x", minilang.Ci(0))
			b.Spawn(threads, func(s *minilang.Block) {
				s.If(minilang.Eq(minilang.Tid(), minilang.Ci(threads-1)), func(s *minilang.Block) {
					s.Assign("x", minilang.Ci(1))
				}, nil)
			})
			b.Decl("seen", minilang.V("x"))
		})
		return p
	}
	fromThread := func(res *Result) (src int16) {
		src = -1
		for _, k := range res.Deps.FilterType(dep.RAW) {
			if k.SinkThread == 0 && k.SrcThread != 0 {
				src = k.SrcThread
			}
		}
		return src
	}
	for _, ex := range executors {
		p := mustNew(t, Config{Mode: ModeMT, Workers: 2})
		_, err := ex.run(spawn(event.MaxThread+1), p, interp.Options{Timestamps: true})
		if src := fromThread(p.Flush()); err != nil || src != event.MaxThread {
			t.Errorf("%s: spawn of 512 threads: err %v, RAW from thread %d; want nil, %d", ex.name, err, src, event.MaxThread)
		}
		const want = "minilang runtime error: spawn of 513 threads: thread 512 is past 511, the widest thread ID a store slot keeps (event.MaxThread)"
		p = mustNew(t, Config{Mode: ModeMT, Workers: 2})
		_, err = ex.run(spawn(event.MaxThread+2), p, interp.Options{Timestamps: true})
		p.Flush()
		if err == nil || err.Error() != want {
			t.Errorf("%s: spawn of 513 threads: err %v, want %q", ex.name, err, want)
		}
	}
	for _, thread := range []int32{event.MaxThread, event.MaxThread + 1} {
		var buf bytes.Buffer
		w, _ := trace.NewWriter(&buf)
		w.Access(write(thread, 0, 9))
		w.Access(read(0, 9))
		_ = w.Close()
		p := mustNew(t, Config{Mode: ModeMT, Workers: 2})
		_, err := trace.Replay(bytes.NewReader(buf.Bytes()), p.Access)
		src := fromThread(p.Flush())
		if thread == event.MaxThread && (err != nil || src != event.MaxThread) {
			t.Errorf("decoder, thread 511: err %v, RAW from thread %d; want nil, 511", err, src)
		}
		const want = "trace: event 0: thread 512 is past 511, the widest a store slot keeps"
		if thread > event.MaxThread && (err == nil || err.Error() != want) {
			t.Errorf("decoder, thread 512: err %v, want %q", err, want)
		}
	}

	// core.New: metadata with context 65,535 is taken, with 65,536 refused.
	meta := prog.NewMeta()
	for meta.NumCtxs() <= sig.CtxMask {
		meta.PushCtx(0, meta.AddLoop(prog.Loop{}))
	}
	modes := []Mode{ModeSerial, ModeParallel, ModeMT}
	for _, mode := range modes {
		mustNew(t, Config{Mode: mode, Workers: 2, Meta: meta}).Flush()
	}
	meta.PushCtx(0, meta.AddLoop(prog.Loop{}))
	const want = "core: Meta has 65537 loop contexts; a store slot tells 65536 apart"
	for _, mode := range modes {
		if _, err := New(Config{Mode: mode, Workers: 2, Meta: meta}); err == nil || err.Error() != want {
			t.Errorf("%v, %d contexts: err = %v, want %q", mode, meta.NumCtxs(), err, want)
		}
	}
}

// TestEngineAsksForStamps: a race-checking engine makes the signature it is
// given keep stamps, whoever built it; any other engine leaves it at the
// two-word record, and the stamps it is handed do not come back.
func TestEngineAsksForStamps(t *testing.T) {
	w := event.Access{Kind: event.Write, Addr: 0x1000, Loc: loc.Pack(1, 1), TS: event.MaxTS}
	pair, stamps := uint64(unsafe.Sizeof(sig.Pair{})), uint64(unsafe.Sizeof(sig.Stamps(0)))
	for _, race := range []bool{false, true} {
		g := sig.NewSignature(1 << 10)
		bare := g.Bytes()
		NewEngine(g, nil, race).Process(w)
		got, _ := g.LookupWrite(w.Addr)
		if want := bare / pair * (pair + stamps); race && (g.Bytes() != want || got.TS != w.TS) {
			t.Errorf("race check: Bytes %d -> %d, resident stamp %#x; want %d and %#x", bare, g.Bytes(), got.TS, want, w.TS)
		}
		if !race && (g.Bytes() != bare || got.TS != 0) {
			t.Errorf("no race check: Bytes %d -> %d, resident stamp %#x; want unchanged and 0", bare, g.Bytes(), got.TS)
		}
	}
}

// TestAccessBatchRefusesWideStamps: a race-checking profiler of every mode
// takes event.MaxTS and refuses a batch with a stamp one past it — a point, or
// a range element — on the caller's goroutine, naming the limit; one that does
// not check races takes the stamp (it never stores it).
func TestAccessBatchRefusesWideStamps(t *testing.T) {
	const want = "core: AccessBatch: a stamp is past 4294967295, the widest a store slot keeps (event.MaxTS)"
	batch := func(ts uint64) ([]event.Access, []event.Range) {
		return []event.Access{
			{Kind: event.Write, Addr: 0x1000, Loc: loc.Pack(1, 1), TS: 1},
			{Kind: event.Read, Addr: 0x1008, Loc: loc.Pack(1, 2), TS: ts},
		}, nil
	}
	ranged := func(ts uint64) ([]event.Access, []event.Range) {
		return []event.Access{{Kind: event.RangeRef}},
			[]event.Range{{Kind: event.Write, Base: 0x2000, Stride: 8, Count: 3, Loc: loc.Pack(1, 3), TS: ts}}
	}
	feed := func(p Profiler, accesses []event.Access, ranges []event.Range) (refused any) {
		defer func() { refused = recover() }()
		p.AccessBatch(accesses, ranges)
		return nil
	}
	for _, cfg := range []Config{
		{Mode: ModeSerial, RaceCheck: true},
		{Mode: ModeParallel, Workers: 2, RaceCheck: true},
		{Mode: ModeMT, Workers: 2},
		{Mode: ModeSerial},
	} {
		for name, mk := range map[string]func(uint64) ([]event.Access, []event.Range){"points": batch, "range": ranged} {
			for _, ts := range []uint64{event.MaxTS, event.MaxTS + 1} {
				p := mustNew(t, cfg)
				accesses, ranges := mk(ts)
				got := feed(p, accesses, ranges)
				p.Flush()
				refuse := ts > event.MaxTS && (cfg.RaceCheck || cfg.Mode == ModeMT)
				if refuse && got != want || !refuse && got != nil {
					t.Errorf("%v race=%v, %s at stamp %d: recovered %v, want refusal %v", cfg.Mode, cfg.RaceCheck, name, ts, got, refuse)
				}
			}
		}
	}
}
