package core

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"

	"ddprof/internal/dep"
	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/prog"
	"ddprof/internal/sig"
	"ddprof/internal/workloads"
)

// plainStore hides a store's concrete type behind the bare sig.Store method
// set: an engine over it does not see the *sig.Signature, so it takes the
// interface arm.
type plainStore struct{ sig.Store }

// recordWorkload captures the access stream of one workload program.
func recordWorkload(tb testing.TB, name string, scale float64) equivStream {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("no workload %s", name)
	}
	p := w.Build(workloads.Config{Scale: scale})
	var c goldenCap
	if _, err := interp.Run(p, &c, interp.Options{}); err != nil {
		tb.Fatal(err)
	}
	return equivStream{name, p.Meta, c.evs}
}

// armsMeta is a two-level nest: context 1 is the outer loop, 2 the inner.
func armsMeta() *prog.Meta {
	m := prog.NewMeta()
	lo := m.AddLoop(prog.Loop{Name: "outer"})
	li := m.AddLoop(prog.Loop{Name: "inner"})
	m.PushCtx(m.PushCtx(0, lo), li)
	return m
}

// armsOp decodes eight fuzz bytes into one engine operation: a point
// read/write/remove (reads may carry Rep > 0) over a 64 Ki-word window, so
// every tested slot count sees collisions and several pages.
func armsOp(b []byte, ts *uint64) event.Access {
	word := uint64(b[1]) | uint64(b[2])<<8
	addr := 0x1000 + 8*word
	*ts += uint64(b[7] & 3)
	stamp := *ts
	if b[7]&0x80 != 0 && stamp > 8 {
		stamp -= 8 // reaches behind earlier accesses: a reversal under raceCheck
	}
	if b[7]&0x40 != 0 {
		stamp += 1 << 48 // beyond what a slot once kept of a stamp
	}
	a := event.Access{
		Addr: addr, TS: stamp,
		IterVec: event.PackIterVec([]uint32{uint32(b[6] & 7), uint32(b[5] & 15)}),
		Loc:     loc.Pack(1, int(b[3]&7)+1),
		Var:     loc.VarID(b[3] >> 3 & 3),
		CtxID:   uint32(b[4] >> 4 % 3),
		Thread:  int32(b[4] & 3),
		Flags:   event.Flags(b[4] >> 2 & 3),
	}
	sel := b[0] & 7
	switch {
	case sel <= 2:
		a.Kind = event.Read
		if b[0]&0x40 != 0 {
			a.Rep = uint16(b[6])
		}
	case sel <= 5:
		a.Kind = event.Write
	default:
		a.Kind = event.Remove
	}
	if b[0]&0x20 != 0 {
		a.Addr += 4 // an unaligned address shares its word's slot
	}
	return a
}

// FuzzEngineArms holds the engine's two store arms to each other: the same
// stream through an Engine over a *sig.Signature (fused pair probe) and over
// an equal signature behind plainStore (sig.Store calls only) must leave
// identical profiles, instance-cache traffic and store contents, at slot
// counts on both sides of the mask/modulo and page-size boundaries; and so
// must a *sig.PerfectSignature (fused record probe) and one behind
// plainStore, unaligned addresses going to its side map.
func FuzzEngineArms(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3, 1, 0, 9, 0x15, 3, 2, 1, 0, 1, 0, 9, 0x15, 3, 2, 1}, 8))
	f.Add(bytes.Repeat([]byte{0x83, 0, 0, 1, 0x21, 0x07, 40, 5, 0x80, 0, 0, 2, 0x21, 0x07, 40, 5}, 4))
	f.Add(bytes.Repeat([]byte{0xA4, 0xFF, 0xFF, 3, 0x2E, 0x21, 47, 0x83, 0x46, 0xFF, 0xFF, 3, 0x2E, 0x21, 200, 0x81, 6, 0xFF, 0xFF, 0, 0, 0, 0, 0}, 4))
	// Race check on; stamps step across 2^48 both ways between two threads.
	f.Add(bytes.Repeat([]byte{0x14, 7, 0, 1, 0, 0, 0, 0x41, 0x10, 7, 0, 2, 1, 0, 0, 0x01, 0x13, 7, 0, 3, 1, 0, 0, 0x42, 0x14, 7, 0, 1, 0, 0, 0, 0x81}, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, slots := range []int{1, 2, 1000, 4096, 4097, 1 << 14} {
			checkArms(t, fmt.Sprintf("slots %d", slots), sig.NewSignature(slots), sig.NewSignature(slots), data)
		}
		checkArms(t, "perfect", sig.NewPerfectSignature(), sig.NewPerfectSignature(), data)
	})
}

// fusable is a store the engine drives through its fused arm.
type fusable interface {
	sig.Store
	KeepStamps()
}

// checkArms runs data through an engine over fusedSig and one over plainSig
// behind plainStore; the two stores must be equal and empty.
func checkArms(t *testing.T, name string, fusedSig, plainSig fusable, data []byte) {
	meta := armsMeta()
	race := len(data) > 0 && data[0]&0x10 != 0
	fused := NewEngine(fusedSig, meta, race)
	if race {
		// NewEngine cannot see the store behind the wrapper to ask.
		plainSig.KeepStamps()
	}
	plain := NewEngine(plainStore{plainSig}, meta, race)
	if (fused.sg == nil) == (fused.pf == nil) || plain.sg != nil || plain.pf != nil {
		t.Fatalf("%s: arm selection: want the fused arm over %T, the interface arm over the wrapper", name, fusedSig)
	}

	touched := make(map[uint64]struct{})
	var ts uint64
	for ; len(data) >= 8; data = data[8:] {
		a := armsOp(data[:8], &ts)
		touched[a.Addr] = struct{}{}
		fused.Process(a)
		plain.Process(a)
	}

	if got, want := encodeSet(t, fused.Deps()), encodeSet(t, plain.Deps()); !bytes.Equal(got, want) {
		t.Fatalf("%s: DDP1 differs between arms\nfused %v\nplain %v", name, fused.Deps().Keys(), plain.Deps().Keys())
	}
	if got, want := fused.LoopDeps(), plain.LoopDeps(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: LoopDeps differ: fused %v, plain %v", name, got, want)
	}
	fh, fp := fused.CacheStats()
	ph, pp := plain.CacheStats()
	if fh != ph || fp != pp {
		t.Fatalf("%s: cache stats differ: fused %d/%d, plain %d/%d", name, fh, fp, ph, pp)
	}
	for addr := range touched {
		fw, fwok := fusedSig.LookupWrite(addr)
		pw, pwok := plainSig.LookupWrite(addr)
		fr, frok := fusedSig.LookupRead(addr)
		pr, prok := plainSig.LookupRead(addr)
		if fw != pw || fwok != pwok || fr != pr || frok != prok {
			t.Fatalf("%s: stores differ at %#x: write %v/%v vs %v/%v, read %v/%v vs %v/%v",
				name, addr, fw, fwok, pw, pwok, fr, frok, pr, prok)
		}
	}
}

// TestPackedKeyRoundTrip: packKey(...).key() returns every field at its
// extremes, and two identities differing in exactly one field never compare
// equal packed.
func TestPackedKeyRoundTrip(t *testing.T) {
	locs := []loc.SourceLoc{0, 1, math.MaxUint32}
	vars := []loc.VarID{0, 1, math.MaxUint32}
	threads := []int16{0, 1, -1, math.MinInt16, math.MaxInt16}
	types := []dep.Type{dep.RAW, dep.WAR, dep.WAW, dep.INIT}
	var keys []dep.Key
	for _, ty := range types {
		for _, sink := range locs {
			for _, src := range locs {
				for _, v := range vars {
					for _, st := range threads {
						for _, rt := range threads {
							keys = append(keys, dep.Key{Type: ty, Sink: sink, Src: src, Var: v, SinkThread: st, SrcThread: rt})
						}
					}
				}
			}
		}
	}
	pack := func(k dep.Key) pkey { return packKey(k.Type, k.Sink, k.Src, k.Var, k.SinkThread, k.SrcThread) }
	seen := make(map[pkey]dep.Key, len(keys))
	for _, k := range keys {
		p := pack(k)
		if got := p.key(); got != k {
			t.Fatalf("round trip: %+v -> %+v", k, got)
		}
		if prev, dup := seen[p]; dup {
			t.Fatalf("%+v and %+v pack equal", prev, k)
		}
		seen[p] = k
	}
	// One-field neighbours, explicitly: each differs from base in one field.
	base := dep.Key{Type: dep.RAW, Sink: 7, Src: 7, Var: 7, SinkThread: 7, SrcThread: 7}
	for i, k := range []dep.Key{
		{Type: dep.WAR, Sink: 7, Src: 7, Var: 7, SinkThread: 7, SrcThread: 7},
		{Type: dep.RAW, Sink: 8, Src: 7, Var: 7, SinkThread: 7, SrcThread: 7},
		{Type: dep.RAW, Sink: 7, Src: 8, Var: 7, SinkThread: 7, SrcThread: 7},
		{Type: dep.RAW, Sink: 7, Src: 7, Var: 8, SinkThread: 7, SrcThread: 7},
		{Type: dep.RAW, Sink: 7, Src: 7, Var: 7, SinkThread: 8, SrcThread: 7},
		{Type: dep.RAW, Sink: 7, Src: 7, Var: 7, SinkThread: 7, SrcThread: 8},
	} {
		if pack(k) == pack(base) {
			t.Errorf("neighbour %d packs equal to base", i)
		}
	}
}

// TestProcessAllocFree pins the fused arm's steady state at zero allocations
// per access once the address's page is committed and its dependences are in
// the set, over a signature and over the perfect store (TestMTBatchAllocFree
// does the same for a batch through a pipeline).
func TestProcessAllocFree(t *testing.T) {
	w := event.Access{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1), CtxID: 2}
	r := event.Access{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 2), CtxID: 2}
	for _, tc := range []struct {
		store sig.Store
		race  bool // 32-byte records, or 40 with stamps
	}{
		{sig.NewSignature(1 << 21), false}, {sig.NewSignature(1 << 21), true},
		{sig.NewPerfectSignature(), false}, {sig.NewPerfectSignature(), true},
	} {
		e, race := NewEngine(tc.store, armsMeta(), tc.race), tc.race
		step := func() {
			w.IterVec++
			r.IterVec++
			w.TS++
			r.TS++
			e.Process(w)
			e.Process(r)
		}
		step()
		step()
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Errorf("Engine.Process over %T (race check %v) allocates %.1f times per write+read, want 0", tc.store, race, n)
		}
	}
}
