package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// oracleWriter is the DDT2 reference encoder the slab encoder is held to byte
// for byte: one event at a time, a Go map for the site table, one
// binary.PutUvarint per field. Record bytes are defined by it and by the
// grammar in DESIGN.md; it shares only siteSlot with Writer, since which slot
// a template lands in is the encoder's choice and not part of the format.
type oracleWriter struct {
	bw                     *bufio.Writer
	sites                  map[uint]*oracleSite
	prevAddr, prevIter, ts uint64
	defines, redefines     uint64
}

// oracleSite is a bound slot: the template (an Access with only the site
// fields set) and the address of the site's previous execution.
type oracleSite struct {
	tmpl event.Access
	last uint64
}

func newOracleWriter(w io.Writer) *oracleWriter {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(magic)
	return &oracleWriter{bw: bw, sites: make(map[uint]*oracleSite)}
}

func (w *oracleWriter) put(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.bw.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func (w *oracleWriter) putZig(v int64) { w.put(uint64((v << 1) ^ (v >> 63))) }

func (w *oracleWriter) put16(v uint) {
	w.bw.Write(binary.LittleEndian.AppendUint16(nil, uint16(v)))
}

func (w *oracleWriter) Access(a event.Access) {
	if a.Kind > event.Remove {
		w.bw.Write([]byte{recControl, byte(a.Kind)})
		for _, v := range []uint64{a.Addr, a.TS, uint64(a.Loc), uint64(a.Var), uint64(a.CtxID), a.IterVec, uint64(a.Thread)} {
			w.put(v)
		}
		w.bw.WriteByte(byte(a.Flags))
		return
	}
	slot := siteSlot(&a)
	tmpl := event.Access{Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread, Kind: a.Kind, Flags: a.Flags}
	s := w.sites[slot]
	if s == nil || s.tmpl != tmpl {
		w.defines++
		if s != nil {
			w.redefines++
		}
		s = &oracleSite{tmpl: tmpl, last: w.prevAddr}
		w.sites[slot] = s
		w.bw.WriteByte(recDefine)
		w.put16(slot)
		w.bw.WriteByte(byte(a.Kind))
		for _, v := range []uint64{uint64(a.Loc), uint64(a.Var), uint64(a.CtxID), uint64(a.Thread)} {
			w.put(v)
		}
		w.bw.WriteByte(byte(a.Flags))
	}
	if a.TS != w.ts {
		w.bw.WriteByte(recStamp)
		w.putZig(int64(a.TS - w.ts))
		w.ts = a.TS
	}
	w.put16(slot << 1)
	w.putZig(int64(a.Addr - s.last))
	w.putZig(int64(a.IterVec - w.prevIter))
	s.last, w.prevAddr, w.prevIter = a.Addr, a.Addr, a.IterVec
}

func (w *oracleWriter) Range(r event.Range) {
	w.bw.Write([]byte{recRange, byte(r.Kind)})
	w.putZig(int64(r.Base - w.prevAddr))
	w.putZig(int64(r.Stride))
	w.put(uint64(r.Count))
	w.putZig(int64(r.TS - w.ts))
	for _, v := range []uint64{uint64(r.Loc), uint64(r.Var), uint64(r.CtxID), r.IterVec, r.IterDelta, uint64(r.Thread)} {
		w.put(v)
	}
	w.bw.WriteByte(byte(r.Flags))
	last := r.At(r.Count - 1)
	w.prevAddr, w.prevIter, w.ts = last.Addr, last.IterVec, last.TS
}

// oracleCompactor is the Compactor's reference: the open run lives in an
// event.Range and leaves through At().
type oracleCompactor struct {
	w   *oracleWriter
	run event.Range
}

func (c *oracleCompactor) sameRunMeta(a *event.Access) bool {
	r := &c.run
	return a.Loc == r.Loc && a.Var == r.Var && a.CtxID == r.CtxID &&
		a.Thread == r.Thread && a.Kind == r.Kind && a.Flags == r.Flags &&
		a.TS == r.TS
}

func (c *oracleCompactor) Access(a event.Access) {
	if a.Rep != 0 || (a.Kind != event.Read && a.Kind != event.Write) {
		c.flush()
		c.w.Access(a)
		return
	}
	switch {
	case c.run.Count == 0:
	case c.run.Count == 1:
		if c.sameRunMeta(&a) {
			c.run.Stride = a.Addr - c.run.Base
			c.run.IterDelta = a.IterVec - c.run.IterVec
			c.run.Count = 2
			return
		}
		c.flush()
	default:
		if c.sameRunMeta(&a) && c.run.Count < maxWireRangeCount &&
			a.Addr == c.run.Base+uint64(c.run.Count)*c.run.Stride &&
			a.IterVec == c.run.IterVec+uint64(c.run.Count)*c.run.IterDelta {
			c.run.Count++
			return
		}
		c.flush()
	}
	c.run = event.Range{
		Base: a.Addr, TS: a.TS, IterVec: a.IterVec,
		Loc: a.Loc, Var: a.Var, CtxID: a.CtxID,
		Thread: a.Thread, Kind: a.Kind, Flags: a.Flags,
		Count: 1,
	}
}

func (c *oracleCompactor) flush() {
	r := c.run
	c.run.Count = 0
	if r.Count == 0 {
		return
	}
	if r.Count >= compactMin && wireRangeOK(&r) {
		c.w.Range(r)
		return
	}
	for j := uint32(0); j < r.Count; j++ {
		c.w.Access(r.At(j))
	}
}

// fuzzStream turns fuzz bytes into a record stream that reaches every encoder
// shape: points of all wire-legal kinds, EpochMarks, Rep-carrying reads,
// strided runs (forward, backward, zero stride) for the Compactor to fold,
// explicit ranges, maximal-width varints in every field the decoder takes at
// full width, threads up to event.MaxThread, and address and timestamp deltas
// of both signs and full magnitude (stamps within event.MaxTS).
type fuzzRec struct {
	a       event.Access
	r       event.Range
	isRange bool
}

func fuzzStream(data []byte) []fuzzRec {
	rd := bytes.NewReader(data)
	u64 := func() uint64 {
		var b [8]byte
		rd.Read(b[:])
		return binary.LittleEndian.Uint64(b[:])
	}
	// wide picks a field value: mostly small, sometimes the full width.
	wide := func(sel byte, small uint64) uint64 {
		switch sel & 7 {
		case 0:
			return ^uint64(0)
		case 1:
			return u64()
		}
		return small
	}
	var out []fuzzRec
	addr, ts := uint64(0x10000), uint64(0)
	for rd.Len() > 0 && len(out) < 4096 {
		op, _ := rd.ReadByte()
		sel, _ := rd.ReadByte()
		a := event.Access{
			Loc:     loc.SourceLoc(wide(sel, uint64(sel))),
			Var:     loc.VarID(wide(sel>>1, uint64(sel&15))),
			CtxID:   uint32(wide(sel>>2, uint64(sel&3))),
			IterVec: wide(sel>>3, uint64(sel>>4)),
			Thread:  int32(wide(sel>>4, uint64(sel&1)) & event.MaxThread),
			Flags:   event.Flags(sel & 3),
		}
		switch op % 8 {
		case 0, 1: // a point near the previous one
			addr += uint64(int64(int8(sel))) * 8
			a.Addr, a.TS, a.Kind = addr, ts, [...]event.Kind{event.Read, event.Write, event.Remove, event.Flush}[op>>3&3]
			out = append(out, fuzzRec{a: a})
		case 2: // a point anywhere, time moving either way
			addr, ts = u64(), u64()&event.MaxTS
			a.Addr, a.TS, a.Kind = addr, ts, event.Kind(op>>3&1)
			out = append(out, fuzzRec{a: a})
		case 3: // an epoch mark
			out = append(out, fuzzRec{a: event.Access{Kind: event.EpochMark, Addr: uint64(sel)}})
		case 4: // a collapsed read
			a.Addr, a.TS, a.Kind, a.Rep = addr, ts, event.Read, uint16(sel)+1
			out = append(out, fuzzRec{a: a})
		case 5, 6: // a strided run of points, iteration vector advancing
			stride := uint64(int64(int8(sel>>1))) * 4
			if op%8 == 6 && sel&1 == 1 {
				stride = u64() // may wrap the address space: must flush as points
			}
			n := 1 + int(op>>3)
			a.Kind = event.Kind(sel & 1)
			for j := 0; j < n; j++ {
				a.Addr, a.TS = addr, ts
				out = append(out, fuzzRec{a: a})
				addr += stride
				a.IterVec += uint64(sel >> 6)
			}
		case 7: // an explicit range record
			r := event.Range{
				Base: addr, Stride: uint64(int64(int8(sel))), Count: 2 + uint32(op>>3), TS: ts,
				IterVec: a.IterVec, IterDelta: wide(sel>>5, 1),
				Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread,
				Kind: event.Kind(sel & 1), Flags: a.Flags,
			}
			if wireRangeOK(&r) {
				out = append(out, fuzzRec{r: r, isRange: true})
				addr = r.Last()
			}
		}
	}
	return out
}

// FuzzWriterEquivalence is the differential fuzzer of the slab encoder: for
// any record stream Writer must emit the oracle's bytes exactly — directly,
// through AccessBatch, and through the Compactor, locked and unlocked, at the
// default slab and at the floor (where every record straddles a flush) — and
// Reader must decode them back to the stream that went in, counting the
// define records the oracle wrote.
func FuzzWriterEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 8, 2, 5 | 5<<3, 16, 3, 7, 4, 9, 7 | 3<<3, 8})
	f.Add([]byte{2, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0x80})
	f.Add([]byte{6 | 4<<3, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 5 | 9<<3, 0x82, 5 | 9<<3, 0x7e})
	f.Add(bytes.Repeat([]byte{5 | 31<<3, 4, 1, 0x28}, 40))
	f.Fuzz(checkWriterEquivalence)
}

// TestWriterEquivalence runs the fuzzer's check over seeded random inputs, so
// plain `go test` covers what the fuzzer explores.
func TestWriterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+r.Intn(600))
		r.Read(data)
		checkWriterEquivalence(t, data)
	}
}

func checkWriterEquivalence(t *testing.T, data []byte) {
	recs := fuzzStream(data)

	// Writer ≡ oracle, byte for byte, whatever the slab size.
	var want bytes.Buffer
	ow := newOracleWriter(&want)
	for _, rc := range recs {
		if rc.isRange {
			ow.Range(rc.r)
		} else {
			ow.Access(rc.a)
		}
	}
	ow.bw.Flush()
	for _, size := range []int{0, 1} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, size)
		for _, rc := range recs {
			if rc.isRange {
				w.Range(rc.r)
			} else {
				w.Access(rc.a)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("slab %d: Writer bytes differ from the oracle's (%d vs %d bytes)", size, got.Len(), want.Len())
		}
		if d, rd := w.SiteDefines(); d != ow.defines || rd != ow.redefines {
			t.Fatalf("slab %d: Writer counts %d defines, %d redefines; the oracle wrote %d, %d", size, d, rd, ow.defines, ow.redefines)
		}
	}

	// Reader round-trips them: records back out as they went in (Rep is
	// not a wire field).
	tr, err := NewReader(bytes.NewReader(want.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, rc := range recs {
		rec, err := tr.NextRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rc.a.Rep = 0
		if rec.IsRange != rc.isRange || rec.Range != rc.r || rec.Access != rc.a {
			t.Fatalf("record %d round trip:\n got %+v\nwant %+v", i, rec, rc)
		}
	}
	if _, err := tr.NextRecord(); err != io.EOF {
		t.Fatalf("after the last record: %v, want io.EOF", err)
	}
	if d, rd := tr.SiteDefines(); d != ow.defines || rd != ow.redefines {
		t.Fatalf("Reader counts %d defines, %d redefines; the oracle wrote %d, %d", d, rd, ow.defines, ow.redefines)
	}

	// AccessBatch ≡ the oracle fed every collapsed read 1+Rep times, whatever
	// the cuts, bare and under the SyncWriter's lock.
	want.Reset()
	ow = newOracleWriter(&want)
	var slots []event.Access
	var rngs []event.Range
	var events uint64
	for _, rc := range recs {
		if rc.isRange {
			ow.Range(rc.r)
			slots = append(slots, event.Access{Kind: event.RangeRef, Addr: uint64(len(rngs))})
			rngs = append(rngs, rc.r)
			events += uint64(rc.r.Count)
			continue
		}
		for k := 0; k <= int(rc.a.Rep); k++ {
			ow.Access(rc.a)
		}
		slots = append(slots, rc.a)
		events += 1 + uint64(rc.a.Rep)
	}
	ow.bw.Flush()
	for _, locked := range []bool{false, true} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, len(data)%2)
		var hook event.BatchHook = w
		if locked {
			hook = NewSyncWriter(w)
		}
		for rest, cut := slots, 1; len(rest) > 0; cut = cut*3%11 + 1 {
			n := min(cut, len(rest))
			hook.AccessBatch(rest[:n], rngs)
			rest = rest[n:]
		}
		if w.Count() != events {
			t.Fatalf("AccessBatch counts %d events, fed %d", w.Count(), events)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("locked=%v: AccessBatch bytes differ from the oracle's (%d vs %d bytes)", locked, got.Len(), want.Len())
		}
	}

	// Compactor ≡ oracle compactor over the point records, both hooks.
	want.Reset()
	oc := &oracleCompactor{w: newOracleWriter(&want)}
	for _, rc := range recs {
		if !rc.isRange {
			oc.Access(rc.a)
		}
	}
	oc.flush()
	oc.w.bw.Flush()
	for i, unlocked := range []bool{false, true, false, true} {
		var got bytes.Buffer
		w, _ := NewWriterSize(&got, i/2) // the default slab, then the floor
		c := NewCompactor(w)
		var hook event.Hook = c
		if unlocked {
			hook = c.Unlocked()
		}
		var n uint64
		for _, rc := range recs {
			if !rc.isRange {
				hook.Access(rc.a)
				n++
			}
		}
		if c.Count() != n {
			t.Fatalf("Compactor counts %d events, fed %d", c.Count(), n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("unlocked=%v: Compactor bytes differ from the oracle's (%d vs %d bytes)", unlocked, got.Len(), want.Len())
		}
	}
}

// rawDefine hand-encodes a define record for an otherwise empty template, so
// hostile-input tests can say what Writer never would.
func rawDefine(slot uint, kind, flags byte) []byte {
	return []byte{recDefine, byte(slot), byte(slot >> 8), kind, 0, 0, 0, 0, flags}
}

// rawStamp hand-encodes a stamp record moving the stamp by d.
func rawStamp(d int64) []byte {
	return binary.AppendUvarint([]byte{recStamp}, uint64(d<<1^d>>63))
}

// rawThreadDefine hand-encodes a define record binding slot to a write by
// thread and nothing else.
func rawThreadDefine(slot uint, thread int32) []byte {
	rec := binary.AppendUvarint([]byte{recDefine, byte(slot), byte(slot >> 8), byte(event.Write), 0, 0, 0}, uint64(uint32(thread)))
	return append(rec, 0)
}

// TestWireLimitsKept: the widest stamp and thread a store slot keeps cross
// the wire whole, by both decoder gears; one more is the refusal
// TestHostileDDT2 names.
func TestWireLimitsKept(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	evs := []event.Access{
		{Addr: 0x1000, Kind: event.Write, Loc: loc.Pack(1, 1), Thread: event.MaxThread, TS: event.MaxTS},
		{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 2), TS: event.MaxTS - 1},
		{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 2), Thread: event.MaxThread, TS: event.MaxTS},
	}
	for _, a := range evs {
		w.Access(a)
	}
	_ = w.Close()
	got, err := ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil || len(got) != len(evs) {
		t.Fatalf("decoded %d events, %v; want %d", len(got), err, len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Errorf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}
	checkBatchMatchesRecord(t, buf.Bytes())
}

// TestHostileDDT2: what the grammar forbids is refused by name, identically by
// both decoder gears; and the one legal stream built to hurt — two hot sites on
// one slot — round-trips exactly, at a define per event, counted on both ends.
func TestHostileDDT2(t *testing.T) {
	stream := func(recs ...[]byte) []byte { return append([]byte(magic), bytes.Join(recs, nil)...) }
	data := func(slot uint) []byte { return []byte{byte(slot << 1), byte(slot >> 7), 0, 0} }
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"undefined-slot", stream(rawDefine(4, 0, 0), data(5)), "trace: event 0: undefined site slot 5"},
		{"data-slot-out-of-range", stream(data(siteSlots)), fmt.Sprintf("trace: event 0: site slot %d out of range", siteSlots)},
		{"define-slot-out-of-range", stream(rawDefine(0xffff, 0, 0)), "trace: event 0: site slot 65535 out of range"},
		{"define-kind-flush", stream(rawDefine(1, byte(event.Flush), 0)), "trace: event 0: invalid site kind 5"},
		{"define-kind-retired", stream(rawDefine(1, 3, 0)), "trace: event 0: invalid site kind 3"},
		{"define-flags", stream(rawDefine(1, 1, 0x04)), "trace: event 0: undefined flag bits 0x4"},
		{"stamp-cut", stream(rawDefine(1, 1, 0), data(1), []byte{recStamp, 0x80}), "trace: event 1 truncated: unexpected EOF"},
		{"stamp-overflow", stream([]byte{recStamp}, bytes.Repeat([]byte{0xff}, 10)), "trace: event 0 truncated: binary: varint overflows a 64-bit integer"},
		{"record-type", stream([]byte{11}), "trace: event 0: invalid record type 11"},
		{"control-kind-data", stream([]byte{recControl, byte(event.Write)}), "trace: event 0: invalid kind 1"},
		{"control-kind-promote", stream([]byte{recControl, 8}), "trace: event 0: invalid kind 8"},
		// What a store slot cannot keep: a stamp past event.MaxTS, however
		// the delta gets there, and a thread past event.MaxThread, by a
		// stamp, define or range record.
		{"stamp-2^32", stream(rawStamp(1 << 32)), "trace: event 0: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"stamp-2^32-in-two", stream(rawStamp(event.MaxTS), rawDefine(1, 1, 0), data(1), rawStamp(1)),
			"trace: event 1: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"stamp-below-zero", stream(rawStamp(-1)), "trace: event 0: stamp 18446744073709551615 is past 4294967295, the widest a store slot keeps"},
		{"define-thread-512", stream(rawThreadDefine(1, event.MaxThread+1)), "trace: event 0: thread 512 is past 511, the widest a store slot keeps"},
		{"define-thread-negative", stream(rawThreadDefine(1, -1)), "trace: event 0: thread 4294967295 is past 511, the widest a store slot keeps"},
		{"range-stamp-2^32", stream(rawRange(byte(event.Write), 0x1000, 8, 2, 0, 1<<32, 0)), "trace: event 0: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"range-thread-512", stream(rawRange(byte(event.Write), 0x1000, 8, 2, 0, 0, event.MaxThread+1)), "trace: event 0: thread 512 is past 511, the widest a store slot keeps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := recordAll(tc.data); err == nil || err.Error() != tc.want {
				t.Errorf("NextRecord error %v, want %q", err, tc.want)
			}
			checkBatchMatchesRecord(t, tc.data)
		})
	}

	t.Run("thrash", func(t *testing.T) {
		a := event.Access{Addr: 0x1000, Kind: event.Read, Loc: loc.Pack(1, 7)}
		b := sameSlot(a)
		b.Addr = 0x8000
		const n = 1000
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		var evs []event.Access
		for i := 0; i < n; i++ {
			a.Addr, a.IterVec = a.Addr+8, uint64(i)
			b.Addr, b.IterVec = b.Addr+8, uint64(i)
			evs = append(evs, a, b)
		}
		w.AccessBatch(evs, nil)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if d, rd := w.SiteDefines(); d != 2*n || rd != 2*n-1 {
			t.Errorf("Writer counts %d defines, %d redefines for %d alternating events on one slot", d, rd, 2*n)
		}
		tr, err := NewReader(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range evs {
			if got, err := tr.Next(); err != nil || got != want {
				t.Fatalf("event %d: got %+v, %v; want %+v", i, got, err, want)
			}
		}
		if d, rd := tr.SiteDefines(); d != 2*n || rd != 2*n-1 {
			t.Errorf("Reader counts %d defines, %d redefines", d, rd)
		}
		checkBatchMatchesRecord(t, buf.Bytes())
	})
}

// maximalRange is a range record with every field at its widest value.
func maximalRange() event.Range {
	return event.Range{
		Base: 1 << 63, Stride: 1, Count: 2, TS: 1 << 63, IterVec: ^uint64(0), IterDelta: ^uint64(0),
		Loc: ^loc.SourceLoc(0), Var: ^loc.VarID(0), CtxID: ^uint32(0), Thread: -1, Kind: event.Write,
	}
}

// frameLog is a frame destination that keeps every Write apart.
type frameLog struct{ frames [][]byte }

func (l *frameLog) Write(p []byte) (int, error) {
	l.frames = append(l.frames, bytes.Clone(p))
	return len(p), nil
}

// TestSlabFrames holds the Writer to its framing contract at a tiny slab
// (clamped to the 107-byte floor), the default, and the daemon's 1MiB cap:
// every Write is at most the configured size, ends on a record boundary,
// the first carries the magic, and the concatenation is the trace.
func TestSlabFrames(t *testing.T) {
	evs := randomEvents(60000, 5)
	for _, tc := range []struct{ size, limit int }{
		{1, minSlab}, {minSlab - 1, minSlab}, {0, 1 << 16}, {DefaultMaxFrame, DefaultMaxFrame},
	} {
		// The widest record the Writer emits must fit the smallest slab next
		// to the magic. Its stamp and thread are past what a Reader takes
		// (event.MaxTS, event.MaxThread), so it is framed on its own.
		var widest frameLog
		w, err := NewWriterSize(&widest, tc.size)
		if err != nil {
			t.Fatal(err)
		}
		w.Range(maximalRange())
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if n := len(widest.frames[0]); len(widest.frames) != 1 || n > tc.limit {
			t.Fatalf("size %d: the widest range took %d frames, the first %d bytes; want one, limit %d", tc.size, len(widest.frames), n, tc.limit)
		}
		var log frameLog
		if w, err = NewWriterSize(&log, tc.size); err != nil {
			t.Fatal(err)
		}
		for i, a := range evs {
			if i%1000 == 999 {
				w.Range(event.Range{Base: a.Addr, Stride: 8, Count: 50, TS: a.TS, Loc: a.Loc, Kind: event.Read})
			}
			w.Access(a)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(log.frames[0], []byte(magic)) {
			t.Fatalf("size %d: first frame does not carry the magic", tc.size)
		}
		// Decode the frames one Reader over their concatenation, and require
		// the byte offset of every frame end to be a record boundary.
		all := bytes.Join(log.frames, nil)
		ends := make(map[int]bool)
		off := 0
		for i, fr := range log.frames {
			if len(fr) == 0 || len(fr) > tc.limit {
				t.Fatalf("size %d: frame %d is %d bytes, limit %d", tc.size, i, len(fr), tc.limit)
			}
			off += len(fr)
			ends[off] = true
		}
		src := bytes.NewReader(all)
		br := bufio.NewReaderSize(src, 16) // small, so the read position below is tight
		tr, err := NewReader(br)
		if err != nil {
			t.Fatal(err)
		}
		for {
			pos := len(all) - src.Len() - br.Buffered()
			delete(ends, pos)
			if _, err := tr.NextRecord(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("size %d: %v", tc.size, err)
			}
		}
		if len(ends) != 0 {
			t.Fatalf("size %d: %d frames end inside a record", tc.size, len(ends))
		}
		if want := uint64(len(evs)) + 50*uint64(len(evs)/1000); tr.Count() != want {
			t.Fatalf("size %d: decoded %d events, want %d", tc.size, tr.Count(), want)
		}
		if tc.size == 0 && len(log.frames) < 10 {
			t.Fatalf("default slab: %d frames for %d bytes", len(log.frames), len(all))
		}
	}
}

// failAfter accepts n Writes and fails every later one.
type failAfter struct {
	n, calls int
}

var errSink = errors.New("sink failed")

func (f *failAfter) Write(p []byte) (int, error) {
	f.calls++
	if f.calls > f.n {
		return 0, errSink
	}
	return len(p), nil
}

// TestWriterStickyError: the first failed Write poisons the Writer — Err
// reports it, nothing is written again, Close returns it — and the hook keeps
// absorbing events without growing the slab.
func TestWriterStickyError(t *testing.T) {
	evs := randomEvents(2000, 11)
	sink := &failAfter{n: 2}
	w, _ := NewWriterSize(sink, 512)
	c := NewCompactor(w)
	for _, a := range evs {
		c.Access(a)
	}
	if !errors.Is(c.Err(), errSink) || !errors.Is(w.Err(), errSink) {
		t.Fatalf("Err() = %v / %v, want the sink's error", c.Err(), w.Err())
	}
	if sink.calls != 3 {
		t.Fatalf("sink saw %d Writes, want 3 (two accepted, one failed, none after)", sink.calls)
	}
	w.Range(event.Range{Base: 8, Stride: 8, Count: 4, Kind: event.Read})
	if err := c.Close(); !errors.Is(err, errSink) {
		t.Fatalf("Close() = %v, want the sink's error", err)
	}
	if sink.calls != 3 {
		t.Fatalf("Close wrote after the error: %d Writes", sink.calls)
	}
	if cap(w.buf) != 512 {
		t.Fatalf("slab grew to %d bytes", cap(w.buf))
	}

	// An inexpressible range poisons the same way.
	var buf bytes.Buffer
	w, _ = NewWriter(&buf)
	w.Range(event.Range{Base: 8, Stride: 8, Count: 1, Kind: event.Read})
	if w.Err() == nil || w.Close() == nil || buf.Len() != 0 {
		t.Fatalf("bad range: Err %v, %d bytes written", w.Err(), buf.Len())
	}
}

// TestEncodeAllocs pins the recording hooks at zero allocations per event.
func TestEncodeAllocs(t *testing.T) {
	evs := randomEvents(4096, 3)
	w, _ := NewWriter(io.Discard)
	i := 0
	next := func() event.Access { i++; return evs[i%len(evs)] }
	if n := testing.AllocsPerRun(10000, func() { w.Access(next()) }); n != 0 {
		t.Errorf("Writer.Access: %v allocs per event", n)
	}
	rg := event.Range{Base: 0x1000, Stride: 8, Count: 100, Kind: event.Write, Loc: loc.Pack(1, 2)}
	if n := testing.AllocsPerRun(10000, func() { w.Range(rg) }); n != 0 {
		t.Errorf("Writer.Range: %v allocs per record", n)
	}
	c := NewCompactor(w)
	if n := testing.AllocsPerRun(10000, func() { c.Access(next()) }); n != 0 {
		t.Errorf("Compactor.Access: %v allocs per event", n)
	}
	// A stream that compacts: runs open, extend and flush as ranges.
	run := event.Access{Addr: 0x4000, Kind: event.Read, Loc: loc.Pack(1, 9)}
	hook := c.Unlocked()
	if n := testing.AllocsPerRun(10000, func() {
		run.Addr += 8
		if run.Addr&0xff == 0 {
			run.Loc++
		}
		hook.Access(run)
	}); n != 0 {
		t.Errorf("Compactor.Unlocked().Access: %v allocs per event", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

var encodeStream []event.Access

// recordedStream captures the event stream of the three remote-session
// programs of bench/ddbench (MG, BT, kmeans, sequential builds) once.
func recordedStream(tb testing.TB) []event.Access {
	if encodeStream == nil {
		rec := event.NewRecorder()
		for _, name := range []string{"MG", "BT", "kmeans"} {
			wl, _ := workloads.ByName(name)
			if _, err := vm.Run(wl.Build(workloads.Config{}), rec, interp.Options{}); err != nil {
				tb.Fatal(err)
			}
		}
		encodeStream = rec.Events()
	}
	return encodeStream
}

// BenchmarkEncode is the in-package twin of the ledger's trace.encode row:
// the recording hooks over a recorded MG+BT+kmeans stream, into a sink that
// costs nothing. ns/event is the figure to compare; bytes/event shows what
// the Compactor saves.
func BenchmarkEncode(b *testing.B) {
	evs := recordedStream(b)
	hooks := []struct {
		name string
		mk   func(*Writer) (event.Hook, func() error)
	}{
		{"writer", func(w *Writer) (event.Hook, func() error) { return w, w.Close }},
		{"writer-batch", func(w *Writer) (event.Hook, func() error) { return batchFeed{w}, w.Close }},
		{"syncwriter-batch", func(w *Writer) (event.Hook, func() error) { s := NewSyncWriter(w); return batchFeed{s}, s.Close }},
		{"compactor-locked", func(w *Writer) (event.Hook, func() error) { c := NewCompactor(w); return c, c.Close }},
		{"compactor-unlocked", func(w *Writer) (event.Hook, func() error) {
			c := NewCompactor(w)
			return c.Unlocked(), c.Close
		}},
	}
	for _, h := range hooks {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink countWriter
			for i := 0; i < b.N; i++ {
				w, _ := NewWriter(&sink)
				hook, done := h.mk(w)
				if bf, ok := hook.(batchFeed); ok {
					for rest := evs; len(rest) > 0; rest = rest[min(event.BatchSize, len(rest)):] {
						bf.AccessBatch(rest[:min(event.BatchSize, len(rest))], nil)
					}
				} else {
					for j := range evs {
						hook.Access(evs[j])
					}
				}
				if err := done(); err != nil {
					b.Fatal(err)
				}
			}
			total := float64(b.N) * float64(len(evs))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/event")
			b.ReportMetric(float64(sink)/total, "bytes/event")
		})
	}
}

// BenchmarkDecode is the twin for the ledger's trace.decode row: NextBatch over
// the same stream as Writer.AccessBatch encodes it, through a window of one
// default frame, chunks reused.
func BenchmarkDecode(b *testing.B) {
	evs := recordedStream(b)
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	w.AccessBatch(evs, nil)
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	c := event.NewChunk()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := NewReader(bufio.NewReaderSize(bytes.NewReader(buf.Bytes()), 1<<16))
		for err == nil {
			c.Reset()
			_, err = tr.NextBatch(c)
		}
		if err != io.EOF || tr.Count() != uint64(len(evs)) {
			b.Fatalf("decoded %d of %d events: %v", tr.Count(), len(evs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(evs))), "ns/event")
}

// batchFeed marks a hook the benchmark feeds the way the executors do: through
// AccessBatch, event.BatchSize events at a time.
type batchFeed struct{ event.BatchHook }

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
