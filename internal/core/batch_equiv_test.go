package core

import (
	"fmt"
	"reflect"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
)

// feedCut is feed with an epoch cut before every cut-th event (0: none).
func feedCut(p Profiler, evs []event.Access, cut int) *Result {
	for i, a := range evs {
		if cut > 0 && i > 0 && i%cut == 0 {
			p.EpochMark(uint32(i / cut))
		}
		p.Access(a)
	}
	return p.Flush()
}

// feedBatched pushes a stream through the bulk-ingest seam in uneven batch
// sizes, with feedCut's epoch cuts between batches. With collapse set it
// pre-folds consecutive duplicate reads into repetition counts first — the
// shape the trace decoder's duplicate filter hands over — so the engines' Rep
// replay gets exercised end to end.
func feedBatched(p Profiler, evs []event.Access, batch int, collapse bool, cut int) *Result {
	var pending []event.Access
	flush := func() {
		if len(pending) > 0 {
			p.AccessBatch(pending, nil)
			pending = pending[:0]
		}
	}
	for i, a := range evs {
		if cut > 0 && i > 0 && i%cut == 0 {
			flush()
			p.EpochMark(uint32(i / cut))
		}
		if collapse && len(pending) > 0 {
			if last := &pending[len(pending)-1]; a.Kind == event.Read &&
				last.Kind == event.Read && last.Rep != event.MaxRep {
				cmp := *last
				cmp.Rep = 0
				if cmp == a {
					last.Rep++
					continue
				}
			}
		}
		pending = append(pending, a)
		if len(pending) >= batch {
			flush()
		}
	}
	flush()
	return p.Flush()
}

// TestAccessBatchEquivalence holds AccessBatch to its contract: for every
// pipeline, any batching of a stream — including pre-collapsed duplicate
// reads, and with epochs cut between batches, next to the lifetime stream's
// Remove events among others — must produce a profile, and epoch deltas,
// byte-identical to per-event Access calls.
func TestAccessBatchEquivalence(t *testing.T) {
	for _, s := range equivSuite() {
		s := s
		t.Run(s.name, func(t *testing.T) {
			var log *deltaLog
			mk := func(kind string) Profiler {
				log = &deltaLog{}
				cfg := Config{Backend: "perfect", Meta: s.meta, OnEpochDelta: log.add}
				switch kind {
				case "parallel":
					cfg.Mode, cfg.Workers, cfg.QueueCap = ModeParallel, 3, 4
				case "mt":
					cfg.Mode, cfg.Workers, cfg.QueueCap = ModeMT, 2, 256
				}
				return mustNew(t, cfg)
			}
			for _, kind := range []string{"serial", "parallel", "mt"} {
				for _, cut := range []int{0, 3} {
					want := feedCut(mk(kind), s.evs, cut)
					wantDeltas := log.encoded(t)
					for _, batch := range []int{1, 7, 1024} {
						for _, collapse := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s/cut%d/batch%d/collapse=%v", s.name, kind, cut, batch, collapse)
							got := feedBatched(mk(kind), s.evs, batch, collapse, cut)
							requireSameProfile(t, label, want, got)
							if want.Stats.ControlChunks != got.Stats.ControlChunks {
								t.Errorf("%s: %d control chunks, per-event %d", label, got.Stats.ControlChunks, want.Stats.ControlChunks)
							}
							if gotDeltas := log.encoded(t); !reflect.DeepEqual(wantDeltas, gotDeltas) {
								t.Errorf("%s: epoch deltas differ from per-event ingestion's", label)
							}
						}
					}
				}
			}
		})
	}
}

// TestAccessBatchRanges checks the RangeRef side-table path: a batch holding
// compressed strided runs must profile identically to the same ranges handed
// over one at a time (accessRange), interleaved with point accesses.
func TestAccessBatchRanges(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "strided"})
	ctx := m.PushCtx(0, l)

	var evs []event.Access
	var rngs []event.Range
	var slots []event.Access // the AccessBatch form: points plus RangeRef slots
	for it := uint32(0); it < 60; it++ {
		iv := event.PackIterVec([]uint32{it})
		w := event.Access{Addr: 0x6000 + uint64(it%16)*8, Kind: event.Write,
			Loc: loc.Pack(5, 50), CtxID: ctx, IterVec: iv, TS: uint64(4*it + 1)}
		evs = append(evs, w)
		slots = append(slots, w)
		r := event.Range{Base: 0x6000, Stride: 8, Count: 16, Kind: event.Read,
			Loc: loc.Pack(5, 51), CtxID: ctx, IterVec: iv, TS: uint64(4*it + 2)}
		slots = append(slots, event.Access{Addr: uint64(len(rngs)), Kind: event.RangeRef})
		rngs = append(rngs, r)
	}

	for _, kind := range []string{"serial", "parallel"} {
		mk := func() Profiler {
			cfg := Config{Backend: "perfect", Meta: m}
			if kind == "parallel" {
				cfg.Mode, cfg.Workers, cfg.QueueCap = ModeParallel, 3, 4
			}
			return mustNew(t, cfg)
		}
		ref := mk()
		ri := 0
		for _, a := range slots {
			if a.Kind == event.RangeRef {
				accessRange(ref, rngs[ri])
				ri++
				continue
			}
			ref.Access(a)
		}
		want := ref.Flush()

		bp := mk()
		bp.AccessBatch(slots, rngs)
		got := bp.Flush()
		requireSameProfile(t, "ranges/"+kind, want, got)
		if got.Stats.Ranges == 0 || got.Stats.RangeElements == 0 {
			t.Errorf("ranges/%s: batch ingest recorded no range stats (%+v)", kind, got.Stats)
		}
	}
}
