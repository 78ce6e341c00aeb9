package core

import (
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
)

func wr(addr uint64, line int) event.Access {
	return event.Access{Addr: addr, Kind: event.Write, Loc: loc.Pack(1, line)}
}

func rd(addr uint64, line int) event.Access {
	return event.Access{Addr: addr, Kind: event.Read, Loc: loc.Pack(1, line)}
}

func lookup(t *testing.T, s *dep.Set, ty dep.Type, sink, src int) dep.Stats {
	t.Helper()
	k := dep.Key{Type: ty, Sink: loc.Pack(1, sink), Src: loc.Pack(1, src)}
	st, ok := s.Lookup(k)
	if !ok {
		t.Fatalf("missing %v dep %d<-%d; have %v", ty, sink, src, s.Keys())
	}
	return st
}

func TestAlgorithm1Basics(t *testing.T) {
	e := NewEngine(sig.NewPerfectSignature(), nil, false)

	// write a@10 -> INIT
	e.Process(wr(0x100, 10))
	// read a@20 -> RAW 20<-10
	e.Process(rd(0x100, 20))
	// write a@30 -> WAW 30<-10, WAR 30<-20
	e.Process(wr(0x100, 30))
	// read a@40 -> RAW 40<-30
	e.Process(rd(0x100, 40))

	s := e.Deps()
	if _, ok := s.Lookup(dep.Key{Type: dep.INIT, Sink: loc.Pack(1, 10)}); !ok {
		t.Error("first write must produce INIT")
	}
	lookup(t, s, dep.RAW, 20, 10)
	lookup(t, s, dep.WAW, 30, 10)
	lookup(t, s, dep.WAR, 30, 20)
	lookup(t, s, dep.RAW, 40, 30)
	if s.Unique() != 5 {
		t.Errorf("Unique = %d, want 5: %v", s.Unique(), s.Keys())
	}
}

func TestNoRARDependence(t *testing.T) {
	// Paper §III-B: "we ignore read-after-read (RAR) dependences".
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	e.Process(rd(0x100, 10))
	e.Process(rd(0x100, 20))
	if e.Deps().Unique() != 0 {
		t.Errorf("reads alone must not create dependences: %v", e.Deps().Keys())
	}
}

func TestWARAfterReadOnlyHistory(t *testing.T) {
	// read x; first write x => WAR (and INIT). The paper's pseudocode would
	// miss this; the prose semantics requires it.
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	e.Process(rd(0x100, 10))
	e.Process(wr(0x100, 20))
	s := e.Deps()
	lookup(t, s, dep.WAR, 20, 10)
	if _, ok := s.Lookup(dep.Key{Type: dep.INIT, Sink: loc.Pack(1, 20)}); !ok {
		t.Error("first write after reads is still an INIT")
	}
}

func TestSelfDependenceSameLine(t *testing.T) {
	// i = i + 1 in a loop: read then write the same address on one line,
	// repeatedly. Expect RAW 60<-60 and WAR 60<-60 like Figure 1.
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	for it := 0; it < 3; it++ {
		e.Process(rd(0x200, 60))
		e.Process(wr(0x200, 60))
	}
	s := e.Deps()
	if st := lookup(t, s, dep.RAW, 60, 60); st.Count != 2 {
		t.Errorf("RAW 60<-60 count = %d, want 2", st.Count)
	}
	if st := lookup(t, s, dep.WAR, 60, 60); st.Count != 3 {
		t.Errorf("WAR 60<-60 count = %d, want 3", st.Count)
	}
}

func TestDistinctAddressesIndependent(t *testing.T) {
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	e.Process(wr(0x100, 10))
	e.Process(rd(0x200, 20)) // different address: no RAW
	s := e.Deps()
	if _, ok := s.Lookup(dep.Key{Type: dep.RAW, Sink: loc.Pack(1, 20), Src: loc.Pack(1, 10)}); ok {
		t.Error("RAW built across distinct addresses")
	}
}

func TestVariableLifetimeRemove(t *testing.T) {
	// write a; free a; write a' at same address => second write is a fresh
	// INIT, not a WAW: the false dependence the paper's lifetime analysis
	// avoids.
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	e.Process(wr(0x300, 10))
	e.Process(event.Access{Addr: 0x300, Kind: event.Remove})
	e.Process(wr(0x300, 20))
	s := e.Deps()
	if _, ok := s.Lookup(dep.Key{Type: dep.WAW, Sink: loc.Pack(1, 20), Src: loc.Pack(1, 10)}); ok {
		t.Error("WAW across a freed address is a false dependence")
	}
	if _, ok := s.Lookup(dep.Key{Type: dep.INIT, Sink: loc.Pack(1, 20)}); !ok {
		t.Error("write to recycled address must be INIT again")
	}
}

func TestCarriedClassification(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "L"})
	ctx := m.PushCtx(0, l)
	e := NewEngine(sig.NewPerfectSignature(), m, false)

	// Each iteration reads A (written by the previous iteration) before
	// writing it -> carried RAW 20<-10. B is written and read within one
	// iteration -> independent RAW 21<-11.
	for it := uint32(0); it < 2; it++ {
		iv := event.PackIterVec([]uint32{it})
		if it > 0 {
			e.Process(event.Access{Addr: 0xA0, Kind: event.Read, Loc: loc.Pack(1, 20), CtxID: ctx, IterVec: iv})
		}
		e.Process(event.Access{Addr: 0xA0, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv})
		e.Process(event.Access{Addr: 0xB0 + uint64(it)*8, Kind: event.Write, Loc: loc.Pack(1, 11), CtxID: ctx, IterVec: iv})
		e.Process(event.Access{Addr: 0xB0 + uint64(it)*8, Kind: event.Read, Loc: loc.Pack(1, 21), CtxID: ctx, IterVec: iv})
	}
	st := lookup(t, e.Deps(), dep.RAW, 20, 10)
	if !st.Carried {
		t.Error("cross-iteration RAW must be carried")
	}
	st = lookup(t, e.Deps(), dep.RAW, 21, 11)
	if st.Carried {
		t.Error("same-iteration RAW must be independent")
	}
	ld := e.LoopDeps()[l]
	if ld == nil || ld.CarriedRAW != 1 {
		t.Errorf("LoopDeps carried RAW = %+v, want exactly 1", ld)
	}
}

func TestReductionRecognition(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "L"})
	ctx := m.PushCtx(0, l)
	e := NewEngine(sig.NewPerfectSignature(), m, false)
	// sum = sum + x across iterations: both read and write flagged reduction
	// on the same line.
	for it := uint32(0); it < 4; it++ {
		iv := event.PackIterVec([]uint32{it})
		e.Process(event.Access{Addr: 0xC0, Kind: event.Read, Loc: loc.Pack(1, 50), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction})
		e.Process(event.Access{Addr: 0xC0, Kind: event.Write, Loc: loc.Pack(1, 50), CtxID: ctx, IterVec: iv, Flags: event.FlagReduction})
	}
	ld := e.LoopDeps()[l]
	if ld == nil || ld.CarriedRAW == 0 {
		t.Fatal("reduction loop must still show a carried RAW")
	}
	if ld.CarriedRAWRed != ld.CarriedRAW {
		t.Errorf("carried RAW should be recognized as reduction: %+v", ld)
	}
}

func TestRaceCheckReversedTimestamps(t *testing.T) {
	e := NewEngine(sig.NewPerfectSignature(), nil, true)
	e.Process(event.Access{Addr: 0xD0, Kind: event.Write, Loc: loc.Pack(1, 5), TS: 100})
	// A read that *occurred* before the write (TS 90) but was pushed after:
	// the dependence must be flagged reversed.
	e.Process(event.Access{Addr: 0xD0, Kind: event.Read, Loc: loc.Pack(1, 6), TS: 90})
	st := lookup(t, e.Deps(), dep.RAW, 6, 5)
	if !st.Reversed {
		t.Error("timestamp reversal not flagged")
	}
	// Normal order: not reversed.
	e2 := NewEngine(sig.NewPerfectSignature(), nil, true)
	e2.Process(event.Access{Addr: 0xD0, Kind: event.Write, Loc: loc.Pack(1, 5), TS: 100})
	e2.Process(event.Access{Addr: 0xD0, Kind: event.Read, Loc: loc.Pack(1, 6), TS: 110})
	if st := lookup(t, e2.Deps(), dep.RAW, 6, 5); st.Reversed {
		t.Error("in-order access flagged as reversed")
	}
}

func TestThreadIDsInDeps(t *testing.T) {
	e := NewEngine(sig.NewPerfectSignature(), nil, false)
	e.Process(event.Access{Addr: 0xE0, Kind: event.Write, Loc: loc.Pack(1, 7), Thread: 1})
	e.Process(event.Access{Addr: 0xE0, Kind: event.Read, Loc: loc.Pack(1, 8), Thread: 2})
	k := dep.Key{Type: dep.RAW, Sink: loc.Pack(1, 8), SinkThread: 2, Src: loc.Pack(1, 7), SrcThread: 1}
	if _, ok := e.Deps().Lookup(k); !ok {
		t.Errorf("cross-thread RAW with thread IDs missing; have %v", e.Deps().Keys())
	}
}

func TestDependenceDistance(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "L"})
	ctx := m.PushCtx(0, l)
	e := NewEngine(sig.NewPerfectSignature(), m, false)
	// a[i] written at iteration i, read back at iteration i+3: distance 3.
	const lag = 3
	for it := uint32(0); it < 10; it++ {
		iv := event.PackIterVec([]uint32{it})
		e.Process(event.Access{Addr: 0x100 + uint64(it)*8, Kind: event.Write, Loc: loc.Pack(1, 10), CtxID: ctx, IterVec: iv})
		if it >= lag {
			e.Process(event.Access{Addr: 0x100 + uint64(it-lag)*8, Kind: event.Read, Loc: loc.Pack(1, 20), CtxID: ctx, IterVec: iv})
		}
	}
	st := lookup(t, e.Deps(), dep.RAW, 20, 10)
	if !st.Carried {
		t.Fatal("lagged RAW must be carried")
	}
	if st.MinDist != lag || st.MaxDist != lag {
		t.Errorf("distance = [%d,%d], want [%d,%d]", st.MinDist, st.MaxDist, lag, lag)
	}
}

func TestDependenceDistanceMixed(t *testing.T) {
	m := prog.NewMeta()
	l := m.AddLoop(prog.Loop{Name: "L"})
	ctx := m.PushCtx(0, l)
	e := NewEngine(sig.NewPerfectSignature(), m, false)
	// One address read at varying lags 1 and 4 after its write.
	for _, pair := range [][2]uint32{{0, 1}, {5, 9}} {
		wIv := event.PackIterVec([]uint32{pair[0]})
		rIv := event.PackIterVec([]uint32{pair[1]})
		e.Process(event.Access{Addr: 0x200, Kind: event.Write, Loc: loc.Pack(1, 1), CtxID: ctx, IterVec: wIv})
		e.Process(event.Access{Addr: 0x200, Kind: event.Read, Loc: loc.Pack(1, 2), CtxID: ctx, IterVec: rIv})
	}
	st := lookup(t, e.Deps(), dep.RAW, 2, 1)
	if st.MinDist != 1 || st.MaxDist != 4 {
		t.Errorf("distance = [%d,%d], want [1,4]", st.MinDist, st.MaxDist)
	}
}
