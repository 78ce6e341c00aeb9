package core

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"testing"
	"unsafe"

	"ddprof/internal/dep"
	"ddprof/internal/event"
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
func recordWorkload(tb testing.TB, name string, scale float64) *equivStream {
	tb.Helper()
	w, ok := workloads.ByName(name)
	if !ok {
		tb.Fatalf("no workload %s", name)
	}
	p := w.Build(workloads.Config{Scale: scale})
	evs, err := capture(p)
	if err != nil {
		tb.Fatal(err)
	}
	return newStream(name, 0, p.Meta, evs)
}

// armsMeta is a two-level nest: context 1 is the outer loop, 2 the inner.
func armsMeta() *prog.Meta {
	m := prog.NewMeta()
	lo := m.AddLoop(prog.Loop{Name: "outer"})
	li := m.AddLoop(prog.Loop{Name: "inner"})
	m.PushCtx(m.PushCtx(0, lo), li)
	return m
}

// armsOps decodes fuzz bytes, eight per op, into engine operations over a
// 64 Ki-word window, so every tested slot count sees collisions and several
// pages: point reads, writes and removes, and
// repeats of the last read, exact or with one field changed, so the run
// kernel meets both folds and near-misses. An op with b[0]&0x80 set ends a
// run: runs lists where the kernel's runs end.
func armsOps(data []byte) (ops []event.Access, runs []int) {
	var ts uint64
	var prev event.Access // the last read decoded, once seen
	seen := false
	for ; len(data) >= 8; data = data[8:] {
		b := data[:8]
		var a event.Access
		if b[0]&7 == 7 && seen {
			a = armsRepeat(prev, b)
		} else {
			a = armsOp(b, &ts)
		}
		ops = append(ops, a)
		if a.Kind == event.Read {
			prev, seen = a, true
		}
		if b[0]&0x80 != 0 {
			runs = append(runs, len(ops))
		}
	}
	return ops, append(runs, len(ops))
}

// armsOp decodes one fresh operation: a point read, write or remove.
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
	switch sel := b[0] & 7; {
	case sel <= 2, sel == 7: // 7 with no read to repeat yet
		a.Kind = event.Read
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

// armsRepeat decodes a repeat of read prev: exact, or with one field changed
// (b[1] % 10 picks which; 0 and 9 leave it exact).
func armsRepeat(a event.Access, b []byte) event.Access {
	d := uint64(b[2]&3) + 1
	switch b[1] % 10 {
	case 1:
		a.Addr += 4 * d // the same word unaligned, or the next words
	case 2:
		a.TS += d
	case 3:
		a.Thread ^= int32(d)
	case 4:
		a.Flags ^= event.Flags(d)
	case 5:
		a.IterVec += d
	case 6:
		a.Loc++
	case 7:
		a.Var ^= loc.VarID(d)
	case 8:
		a.CtxID = (a.CtxID + 1) % 3
	}
	return a
}

// armsFolds counts the reads of ops the run kernel may fold into the read
// before them: the same in every field, within one run. An independent twin
// of the kernel's test: whole-struct equality.
func armsFolds(ops []event.Access, runs []int) (folds uint64) {
	lo := 0
	for _, hi := range runs {
		for i := lo + 1; i < hi; i++ {
			if ops[i-1] == ops[i] && ops[i].Kind == event.Read {
				folds++
			}
		}
		lo = hi
	}
	return folds
}

// FuzzEngineArms holds the engine's store arms and its two ways in to one
// another. Each fused store — a *sig.Signature at slot counts on both sides
// of the mask/modulo and page-size boundaries, and a *sig.PerfectSignature,
// unaligned addresses going to its side map — and an equal store behind
// plainStore (the interface arm) take the same stream twice: one Process
// call per event, and fuzz-chosen runs through ProcessRun; with and without
// the race check. All four engines must leave the profile, loop table and
// store contents of the fused per-event engine with its instance cache
// emptied before every event; the kernel must count every access, and its
// instance-cache traffic may fall short of the per-event path's only by
// folded reads.
func FuzzEngineArms(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{3, 1, 0, 9, 0x15, 3, 2, 1, 0, 1, 0, 9, 0x15, 3, 2, 1}, 8))
	f.Add(bytes.Repeat([]byte{0x83, 0, 0, 1, 0x21, 0x07, 40, 5, 0x80, 0, 0, 2, 0x21, 0x07, 40, 5}, 4))
	f.Add(bytes.Repeat([]byte{0xA4, 0xFF, 0xFF, 3, 0x2E, 0x21, 47, 0x83, 0x46, 0xFF, 0xFF, 3, 0x2E, 0x21, 200, 0x81, 6, 0xFF, 0xFF, 0, 0, 0, 0, 0}, 4))
	// Stamps step across 2^48 both ways between two threads.
	f.Add(bytes.Repeat([]byte{0x14, 7, 0, 1, 0, 0, 0, 0x41, 0x10, 7, 0, 2, 1, 0, 0, 0x01, 0x13, 7, 0, 3, 1, 0, 0, 0x42, 0x14, 7, 0, 1, 0, 0, 0, 0x81}, 3))
	// A write, then a read and its exact repeats, in one run; then, per field, a read, its exact repeat, a near-miss in that
	// field and the near-miss's exact repeat, ending a run.
	f.Add(append([]byte{3, 9, 0, 1, 0x15, 2, 3, 1, 0x40, 9, 0, 2, 0x15, 2, 3, 1},
		bytes.Repeat([]byte{7, 0, 0, 0, 0, 0, 0, 0, 0x47, 0, 0, 0, 0, 0, 1, 0}, 4)...))
	f.Add(func() []byte {
		d := []byte{3, 9, 0, 1, 0x15, 2, 3, 1}
		for field := byte(0); field < 10; field++ {
			d = append(d, 0x40, 9, 0, 2, 0x15, 2, 3, 0, 7, 0, 0, 0, 0, 0, 0, 0,
				7, field, 1, 0, 0, 0, 9, 0, 0x87, 0, 0, 0, 0, 0, 0, 0)
		}
		return d
	}())
	// One sink line reached from two contexts: per outer iteration, a read
	// at line 2 in the outer loop and two in the inner one, then the write
	// at line 1 in the outer loop they all read from. One RAW, two
	// templates, carried at the outer loop from the second iteration on.
	f.Add(func() []byte {
		var d []byte
		for i := byte(0); i < 6; i++ {
			d = append(d, 0, 5, 0, 1, 0x10, 0, i, 1, 0, 5, 0, 1, 0x20, 1, i, 1,
				0, 5, 0, 1, 0x20, 2, i, 1, 3, 5, 0, 0, 0x10, 0, i, 1)
		}
		return d
	}())
	// Two RAWs that collided under the mix Mix replaced, read in turn: sink
	// line 5 from line 1 through variable 0, and from line 2 through
	// variable 3 (line 1 ^ variable 0 = line 2 ^ variable 3).
	f.Add(append([]byte{3, 1, 0, 0, 0, 0, 0, 1, 3, 2, 0, 1, 0, 0, 0, 1},
		bytes.Repeat([]byte{0, 1, 0, 4, 0, 0, 0, 1, 0, 2, 0, 0x1C, 0, 0, 0, 1}, 8)...))
	// One line written and read in successive iterations, with and without
	// the induction flag: a flagged read of an unflagged write, a flagged
	// read of a flagged write (an induction self-dependence, never carried)
	// and an unflagged read of a flagged write. All three RAWs share a key;
	// their templates differ only in the source's or the sink's flag.
	f.Add([]byte{3, 5, 0, 0, 0x10, 0, 0, 1, 0, 5, 0, 0, 0x18, 1, 0, 1,
		3, 5, 0, 0, 0x18, 1, 0, 1, 0, 5, 0, 0, 0x18, 2, 0, 1, 0, 5, 0, 0, 0x10, 3, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, runs := armsOps(data)
		for _, race := range []bool{false, true} {
			for _, slots := range []int{1, 2, 1000, 4096, 4097, 1 << 14} {
				checkArms(t, fmt.Sprintf("slots %d race %v", slots, race), func() fusable { return sig.NewSignature(slots) }, ops, runs, race)
			}
			checkArms(t, fmt.Sprintf("perfect race %v", race), func() fusable { return sig.NewPerfectSignature() }, ops, runs, race)
		}
	})
}

// fusable is a store the engine drives through its fused arm.
type fusable interface {
	sig.Store
	KeepStamps()
}

// checkArms feeds ops to four engines, each over its own store from open:
// fused and behind plainStore, per event and in runs (runs lists where each
// ends). Every engine's profile, loop table and store must match the fused
// per-event engine's with its instance cache emptied before every event, and
// its cache traffic the fused per-event one's, but for folded reads.
func checkArms(t *testing.T, name string, open func() fusable, ops []event.Access, runs []int, race bool) {
	meta := armsMeta()
	type arm struct {
		name string
		st   fusable
		e    *Engine
		run  bool
	}
	var arms []*arm
	for _, plain := range []bool{false, true} {
		for _, run := range []bool{false, true} {
			a := &arm{name: fmt.Sprintf("%s plain %v run %v", name, plain, run), st: open(), run: run}
			var st sig.Store = a.st
			if plain {
				if race {
					a.st.KeepStamps() // NewEngine cannot see behind plainStore to ask
				}
				st = plainStore{a.st}
			}
			a.e = NewEngine(st, meta, race)
			if fused := a.e.sg != nil || a.e.pf != nil; fused == plain || a.e.sg != nil && a.e.pf != nil {
				t.Fatalf("%s: arm selection: want the fused arm over %T, the interface arm over the wrapper", a.name, a.st)
			}
			arms = append(arms, a)
		}
	}

	touched := make(map[uint64]struct{})
	want := uint64(0) // the data accesses ops stand for
	for i := range ops {
		a := &ops[i]
		touched[a.Addr] = struct{}{}
		if a.Kind <= event.Write {
			want++
		}
	}
	for _, a := range arms {
		if !a.run {
			for _, op := range ops {
				a.e.Process(op)
			}
			continue
		}
		lo, got := 0, uint64(0)
		for _, hi := range runs {
			got += a.e.ProcessRun(ops[lo:hi])
			lo = hi
		}
		if got != want {
			t.Fatalf("%s: ProcessRun counted %d accesses, want %d", a.name, got, want)
		}
	}

	// The reference: the fused arm one event at a time with its instance
	// cache emptied before each, so no instance reuses a memo.
	ref := &arm{name: name + " emptied", st: open()}
	ref.e = NewEngine(ref.st, meta, race)
	for _, op := range ops {
		clear(ref.e.cache[:])
		ref.e.Process(op)
	}
	if h, _ := ref.e.CacheStats(); h != 0 {
		t.Fatalf("%s: %d hits in an emptied cache", ref.name, h)
	}
	emptied := &Result{Deps: ref.e.Deps(), Loops: ref.e.LoopDeps()}
	rh, rp := arms[0].e.CacheStats()
	for i, a := range arms {
		if d := profileDiff(emptied, &Result{Deps: a.e.Deps(), Loops: a.e.LoopDeps()}); d != "" {
			t.Fatalf("%s: the profile is not the emptied engine's: %s", a.name, d)
		}
		h, p := a.e.CacheStats()
		if i > 0 && !a.run && (h != rh || p != rp) {
			t.Fatalf("%s: cache stats %d/%d, want %d/%d", a.name, h, p, rh, rp)
		}
		if a.run && (rp-p != rh-h || rp-p > armsFolds(ops, runs)) {
			t.Fatalf("%s: cache stats %d/%d against the per-event %d/%d: more than %d folded reads apart",
				a.name, h, p, rh, rp, armsFolds(ops, runs))
		}
		for addr := range touched {
			fw, fwok := ref.st.LookupWrite(addr)
			pw, pwok := a.st.LookupWrite(addr)
			fr, frok := ref.st.LookupRead(addr)
			pr, prok := a.st.LookupRead(addr)
			if fw != pw || fwok != pwok || fr != pr || frok != prok {
				t.Fatalf("%s: stores differ at %#x: write %v/%v vs %v/%v, read %v/%v vs %v/%v",
					a.name, addr, pw, pwok, fw, fwok, pr, prok, fr, frok)
			}
		}
	}
	h, p := arms[1].e.CacheStats()
	if ph, pp := arms[3].e.CacheStats(); h != ph || p != pp {
		t.Fatalf("%s: the kernel's cache stats differ between arms: fused %d/%d, plain %d/%d", name, h, p, ph, pp)
	}
}

// TestInstanceTemplate: an instance's template changes with every field its
// cache entry's memo depends on, and with no other, so equal templates may
// share a memo and repeats of one static dependence share one entry.
func TestInstanceTemplate(t *testing.T) {
	src := sig.PackSlot(loc.Pack(1, 5), 0, 3, 2, 0x10002, 7)
	snk := event.Access{Addr: 0x100, TS: 9, IterVec: 0x10003, Loc: loc.Pack(1, 6), Var: 4, CtxID: 1, Thread: 3, Kind: event.Read}
	base := templateOf(dep.RAW, src, &snk)
	for _, tc := range []struct {
		name string
		t    dep.Type
		src  func(sig.Slot) sig.Slot
		snk  func(*event.Access)
		same bool
	}{
		{name: "type", t: dep.WAR},
		{name: "source loc", src: func(s sig.Slot) sig.Slot { return sig.PackSlot(loc.Pack(1, 4), 0, 3, 2, s.Iter, s.TS) }},
		{name: "source thread", src: func(s sig.Slot) sig.Slot { return sig.PackSlot(loc.Pack(1, 5), 0, 2, 2, s.Iter, s.TS) }},
		{name: "source ctx", src: func(s sig.Slot) sig.Slot { return sig.PackSlot(loc.Pack(1, 5), 0, 3, 1, s.Iter, s.TS) }},
		{name: "source reduction", src: sig.Slot.WithReduction},
		{name: "source induction", src: sig.Slot.WithInduction},
		{name: "INIT's empty source", src: func(sig.Slot) sig.Slot { return sig.Slot{} }},
		{name: "sink loc", snk: func(a *event.Access) { a.Loc++ }},
		{name: "sink var", snk: func(a *event.Access) { a.Var = math.MaxUint32 }},
		{name: "sink ctx", snk: func(a *event.Access) { a.CtxID = 2 }},
		{name: "sink ctx past a slot's width", snk: func(a *event.Access) { a.CtxID += sig.CtxMask + 1 }},
		{name: "sink thread", snk: func(a *event.Access) { a.Thread = 2 }},
		{name: "sink thread past a slot's width", snk: func(a *event.Access) { a.Thread += sig.ThreadMask + 1 }},
		{name: "sink reduction", snk: func(a *event.Access) { a.Flags |= event.FlagReduction }},
		{name: "sink induction", snk: func(a *event.Access) { a.Flags |= event.FlagInduction }},
		{name: "source iteration", src: func(s sig.Slot) sig.Slot { s.Iter++; return s }, same: true},
		{name: "source stamp", src: func(s sig.Slot) sig.Slot { s.TS++; return s }, same: true},
		{name: "unused header bits", src: func(s sig.Slot) sig.Slot { s.Meta |= 0xF << 57; return s }, same: true},
		{name: "sink address", snk: func(a *event.Access) { a.Addr += 8 }, same: true},
		{name: "sink iteration", snk: func(a *event.Access) { a.IterVec++ }, same: true},
		{name: "sink stamp", snk: func(a *event.Access) { a.TS++ }, same: true},
		{name: "sink kind", snk: func(a *event.Access) { a.Kind = event.Write }, same: true},
		{name: "other flag bits", snk: func(a *event.Access) { a.Flags |= 0xFC }, same: true},
	} {
		s, a := src, snk
		if tc.src != nil {
			s = tc.src(s)
		}
		if tc.snk != nil {
			tc.snk(&a)
		}
		if got := templateOf(tc.t, s, &a); (got == base) != tc.same {
			t.Errorf("%s: template equal to the base's: %v, want %v", tc.name, got == base, tc.same)
		}
	}
	if base == (template{}) || templateOf(dep.INIT, sig.Slot{}, &event.Access{}) == (template{}) {
		t.Error("a real instance has the zero template, which an empty cache entry holds")
	}
	if n := unsafe.Sizeof(depCacheEntry{}); n > 56 {
		t.Errorf("an instance-cache entry is %d bytes, want at most 56", n)
	}
}

// TestProcessAllocFree pins the fused arm's steady state at zero allocations
// per access once the address's page is committed and its dependences are in
// the set, over a signature and over the perfect store, one event at a time
// and through the run kernel, a folded read included (TestMTBatchAllocFree
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
		var run [3]event.Access
		for _, kernel := range []bool{false, true} {
			step := func() {
				w.IterVec++
				r.IterVec++
				w.TS++
				r.TS++
				if kernel {
					run = [3]event.Access{w, r, r}
					e.ProcessRun(run[:])
					return
				}
				e.Process(w)
				e.Process(r)
			}
			step()
			step()
			if n := testing.AllocsPerRun(1000, step); n != 0 {
				t.Errorf("engine over %T (race check %v, run kernel %v) allocates %.1f times per step, want 0", tc.store, race, kernel, n)
			}
		}
	}
}

// TestProcessRunFoldsDuplicateReads: adjacent exact repeats of a read take one
// instance-cache probe in the run kernel, and record every instance they
// stand for; a read that differs from its neighbour in one field is not
// folded.
func TestProcessRunFoldsDuplicateReads(t *testing.T) {
	w := wr(0x100, 1)
	r := rd(0x100, 2)
	other := r
	other.IterVec++
	for _, tc := range []struct {
		name     string
		run      []event.Access
		accesses uint64
		probes   uint64 // every dependence instance recorded
		raws     uint64 // RAW 2<-1 instances
	}{
		{"exact", append([]event.Access{w}, slices.Repeat([]event.Access{r}, 9)...), 10, 2, 9},
		{"near-miss", []event.Access{w, r, other, r}, 4, 4, 3},
		{"write between", []event.Access{w, r, w, r}, 4, 5, 2},
	} {
		e := NewEngine(sig.NewPerfectSignature(), nil, false)
		if got := e.ProcessRun(tc.run); got != tc.accesses {
			t.Errorf("%s: ProcessRun = %d accesses, want %d", tc.name, got, tc.accesses)
		}
		if _, probes := e.CacheStats(); probes != tc.probes {
			t.Errorf("%s: %d instance-cache probes, want %d", tc.name, probes, tc.probes)
		}
		if got := lookup(t, e.Deps(), dep.RAW, 2, 1).Count; got != tc.raws {
			t.Errorf("%s: RAW 2<-1 counted %d times, want %d", tc.name, got, tc.raws)
		}
	}
}
