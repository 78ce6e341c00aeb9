package core

import (
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

// TestSlotNarrowingIsPinned feeds a race-checking engine the boundary of
// every field a store slot keeps narrower than the event carries it, through
// both signature arms and the exact store, and pins what comes out: one write
// then one read of the same address, judged by the RAW they close and by the
// write left resident. The stamp is kept whole. Thread and context are not:
// one past their width wraps, and nothing counts it (ROADMAP item 4) — the
// rows marked "wraps" record today's wrong answer so that widening them, or
// counting them, has a test to change. A bare engine still gives the context
// rows' answer; a profiler cannot be built that would (the last row: New
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
		// A stamp past 2^48 against a small one from another thread: 48 bits
		// of it would read 5 < 7 and miss the reversal.
		{"stamp 2^48+5 before 7", write(0, 0, 1<<48+5), read(1, 7), 0, true, false, 0},
		// And the other way round 48 bits would flag an ordered pair.
		{"stamp 7 before 2^48+5", write(0, 0, 7), read(1, 1<<48+5), 0, false, false, 0},
		{"stamp 2^64-1 equal, other thread", write(0, 0, ^uint64(0)), read(1, ^uint64(0)), 0, true, false, 0},

		{"thread 511", write(sig.ThreadMask, 0, 9), read(0, 9), sig.ThreadMask, true, false, 0},
		// wraps: thread 512 is remembered as thread 0, so the RAW names the
		// wrong source and the equal-stamp rule sees one thread.
		{"thread 512 wraps", write(sig.ThreadMask+1, 0, 9), read(0, 9), 0, false, false, 0},

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
	w := event.Access{Kind: event.Write, Addr: 0x1000, Loc: loc.Pack(1, 1), TS: 1<<48 + 5}
	for _, race := range []bool{false, true} {
		g := sig.NewSignature(1 << 10)
		bare := g.Bytes()
		NewEngine(g, nil, race).Process(w)
		got, _ := g.LookupWrite(w.Addr)
		if race && (g.Bytes() != bare/2*3 || got.TS != w.TS) {
			t.Errorf("race check: Bytes %d -> %d, resident stamp %#x; want ×3/2 and %#x", bare, g.Bytes(), got.TS, w.TS)
		}
		if !race && (g.Bytes() != bare || got.TS != 0) {
			t.Errorf("no race check: Bytes %d -> %d, resident stamp %#x; want unchanged and 0", bare, g.Bytes(), got.TS)
		}
	}
}
