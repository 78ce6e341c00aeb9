package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/interp"
	"ddprof/internal/loc"
	"ddprof/internal/vm"
	"ddprof/internal/workloads"
)

// oracleWriter is the DDT2 reference encoder the slab encoder is held to byte
// for byte: one event at a time, a Go map for the site table, one
// binary.PutUvarint per field, into its own buffer. Record bytes are defined
// by it and by the grammar in DESIGN.md; it shares only siteKey.slot with
// Writer, since which slot a template lands in is the encoder's choice and
// not part of the format.
type oracleWriter struct {
	bytes.Buffer
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

func newOracleWriter() *oracleWriter {
	w := &oracleWriter{sites: make(map[uint]*oracleSite)}
	w.WriteString(magic)
	return w
}

func (w *oracleWriter) put(v uint64) {
	var buf [binary.MaxVarintLen64]byte
	w.Write(buf[:binary.PutUvarint(buf[:], v)])
}

func (w *oracleWriter) putZig(v int64) { w.put(uint64((v << 1) ^ (v >> 63))) }

func (w *oracleWriter) put16(v uint) {
	var buf [2]byte
	binary.LittleEndian.PutUint16(buf[:], uint16(v))
	w.Write(buf[:])
}

func (w *oracleWriter) Access(a event.Access) {
	slot := keyOf(&a).slot()
	tmpl := event.Access{Loc: a.Loc, Var: a.Var, CtxID: a.CtxID, Thread: a.Thread, Kind: a.Kind, Flags: a.Flags}
	s := w.sites[slot]
	if s == nil || s.tmpl != tmpl {
		w.defines++
		if s != nil {
			w.redefines++
		}
		s = &oracleSite{tmpl: tmpl, last: w.prevAddr}
		w.sites[slot] = s
		w.WriteByte(recDefine)
		w.put16(slot)
		w.WriteByte(byte(a.Kind))
		for _, v := range [...]uint64{uint64(a.Loc), uint64(a.Var), uint64(a.CtxID), uint64(a.Thread)} {
			w.put(v)
		}
		w.WriteByte(byte(a.Flags))
	}
	if a.TS != w.ts {
		w.WriteByte(recStamp)
		w.putZig(int64(a.TS - w.ts))
		w.ts = a.TS
	}
	w.put16(slot << 1)
	w.putZig(int64(a.Addr - s.last))
	w.putZig(int64(a.IterVec - w.prevIter))
	s.last, w.prevAddr, w.prevIter = a.Addr, a.Addr, a.IterVec
}

func (w *oracleWriter) Range(r event.Range) {
	w.WriteByte(recRange)
	w.WriteByte(byte(r.Kind))
	w.putZig(int64(r.Base - w.prevAddr))
	w.putZig(int64(r.Stride))
	w.put(uint64(r.Count))
	w.putZig(int64(r.TS - w.ts))
	for _, v := range [...]uint64{uint64(r.Loc), uint64(r.Var), uint64(r.CtxID), r.IterVec, r.IterDelta, uint64(r.Thread)} {
		w.put(v)
	}
	w.WriteByte(byte(r.Flags))
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
	if a.Kind != event.Read && a.Kind != event.Write {
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
// shape: points of all wire-legal kinds, repeated reads,
// strided runs (forward, backward, zero stride) for the Compactor to fold,
// explicit ranges, maximal-width varints in every field the decoder takes at
// full width, threads up to event.MaxThread, and address and timestamp deltas
// of both signs and full magnitude (stamps within event.MaxTS).
func fuzzStream(data []byte) []wireRec {
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
	var out []wireRec
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
		case 0, 1, 3: // a point near the previous one
			addr += uint64(int64(int8(sel))) * 8
			a.Addr, a.TS, a.Kind = addr, ts, [...]event.Kind{event.Read, event.Write, event.Remove}[op>>3%3]
			out = append(out, wireRec{a: a})
		case 2: // a point anywhere, time moving either way
			addr, ts = u64(), u64()&event.MaxTS
			a.Addr, a.TS, a.Kind = addr, ts, event.Kind(op>>3&1)
			out = append(out, wireRec{a: a})
		case 4: // a read and its exact repeats
			a.Addr, a.TS, a.Kind = addr, ts, event.Read
			for j := 0; j < 2+int(sel&7); j++ {
				out = append(out, wireRec{a: a})
			}
		case 5, 6: // a strided run of points, iteration vector advancing
			stride := uint64(int64(int8(sel>>1))) * 4
			if op%8 == 6 && sel&1 == 1 {
				stride = u64() // may wrap the address space: must flush as points
			}
			n := 1 + int(op>>3)
			a.Kind = event.Kind(sel & 1)
			for j := 0; j < n; j++ {
				a.Addr, a.TS = addr, ts
				out = append(out, wireRec{a: a})
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
				out = append(out, wireRec{r: r, isRange: true})
				addr = r.Last()
			}
		}
	}
	return out
}

// FuzzWriterEquivalence is the differential fuzzer of the slab encoder: for
// any record stream Writer must emit the oracle's bytes exactly — directly,
// through AccessBatch, and through the Compactor, at the
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
// plain `go test` covers what the fuzzer explores, then holds AccessBatch to
// the oracle on a recorded stream and on slot collisions.
func TestWriterEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		data := make([]byte, 1+r.Intn(600))
		r.Read(data)
		checkWriterEquivalence(t, data)
	}
	// The remote-session programs' stream: long runs of resident-site
	// records, the encoder kernel's common case, which fuzzStream rarely
	// produces.
	t.Run("recorded", func(t *testing.T) { checkBatchEquivalence(t, recordedStream(t)) })
	// Pairs of templates that differ in one field alone and share a slot:
	// whichever word the field is in, the kernel must stop for a define.
	// (Thread and Kind/Flags have too few valid values to make such a pair.)
	t.Run("collisions", func(t *testing.T) {
		var evs []event.Access
		for _, set := range []func(*event.Access, uint32){
			func(b *event.Access, v uint32) { b.Loc = loc.SourceLoc(v) },
			func(b *event.Access, v uint32) { b.Var = loc.VarID(v) },
			func(b *event.Access, v uint32) { b.CtxID = v },
		} {
			a, b := twins(set)
			for i := 0; i < 4; i++ {
				a.Addr, b.Addr = a.Addr+8, b.Addr+8
				evs = append(evs, a, a, b, b)
			}
		}
		checkBatchEquivalence(t, evs)
	})
}

// twins returns two accesses whose templates differ in the field set writes
// alone and share a slot.
func twins(set func(*event.Access, uint32)) (event.Access, event.Access) {
	for u := uint32(1); ; u++ {
		a := event.Access{Addr: 0x1000}
		set(&a, u)
		for v := u + 1; v < u+1<<16; v++ {
			b := a
			set(&b, v)
			if keyOf(&b).slot() == keyOf(&a).slot() {
				return a, b
			}
		}
	}
}

// checkBatchEquivalence feeds evs to AccessBatch as a client does,
// BatchSize events at a time. The bytes must be the oracle's, cut into
// Writes where the per-record encoder cuts them, and NextBatch must decode
// them back to evs.
func checkBatchEquivalence(t *testing.T, evs []event.Access) {
	ow := newOracleWriter()
	for _, a := range evs {
		ow.Access(a)
	}
	var got, perRecord frameLog
	w, _ := NewWriter(&got)
	for rest := evs; len(rest) > 0; rest = rest[min(event.BatchSize, len(rest)):] {
		w.AccessBatch(rest[:min(event.BatchSize, len(rest))], nil)
	}
	pw, _ := NewWriter(&perRecord)
	for _, a := range evs {
		pw.Access(a)
	}
	if err := errors.Join(w.Close(), pw.Close()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.all, ow.Bytes()) {
		t.Fatalf("AccessBatch bytes differ from the oracle's (%d vs %d bytes)", len(got.all), ow.Len())
	}
	sameFrames(t, t.Name(), &got, &perRecord)
	roundTrip(t, points(evs), ow)
}

// roundTrip requires NextBatch to decode the oracle's bytes back to recs,
// with the define counts the oracle wrote.
func roundTrip(t *testing.T, recs []wireRec, ow *oracleWriter) {
	t.Helper()
	sameDecoding(t, "NextBatch", written(recs, ow.defines, ow.redefines), batchDecode(bufio.NewReaderSize(bytes.NewReader(ow.Bytes()), max(ow.Len(), 16))))
}

// checkWriterEquivalence holds every encoder to its oracle over the record
// stream fuzzStream makes of data, and NextBatch to the stream.
func checkWriterEquivalence(t *testing.T, data []byte) {
	recs := fuzzStream(data)

	// Writer ≡ oracle, byte for byte, whatever the slab size.
	ow := newOracleWriter()
	var slots []event.Access // the records as AccessBatch takes them
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
		ow.Access(rc.a)
		slots = append(slots, rc.a)
		events++
	}
	var perRecord [2]frameLog // the Writes of each slab, the batch path's reference
	for size := range perRecord {
		got := &perRecord[size]
		w, _ := NewWriterSize(got, size)
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
		if !bytes.Equal(got.all, ow.Bytes()) {
			t.Fatalf("slab %d: Writer bytes differ from the oracle's (%d vs %d bytes)", size, len(got.all), ow.Len())
		}
		if d, rd := w.SiteDefines(); d != ow.defines || rd != ow.redefines {
			t.Fatalf("slab %d: Writer counts %d defines, %d redefines; the oracle wrote %d, %d", size, d, rd, ow.defines, ow.redefines)
		}
	}

	// NextBatch round-trips them: records back out as they went in.
	roundTrip(t, recs, ow)

	// AccessBatch ≡ the oracle, whatever the cuts, with batches handed to the
	// Writer bare and under the SyncWriter's lock in turn.
	var got frameLog
	w, _ := NewWriterSize(&got, len(data)%2)
	hooks := [2]event.BatchHook{w, NewSyncWriter(w)}
	for rest, cut := slots, 1; len(rest) > 0; cut = cut*3%11 + 1 {
		n := min(cut, len(rest))
		hooks[cut%2].AccessBatch(rest[:n], rngs)
		rest = rest[n:]
	}
	if w.Count() != events {
		t.Fatalf("AccessBatch counts %d events, fed %d", w.Count(), events)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.all, ow.Bytes()) {
		t.Fatalf("AccessBatch bytes differ from the oracle's (%d vs %d bytes)", len(got.all), ow.Len())
	}
	sameFrames(t, "AccessBatch", &got, &perRecord[len(data)%2])

	// Compactor ≡ oracle compactor over the point records.
	oc := &oracleCompactor{w: newOracleWriter()}
	for _, rc := range recs {
		if !rc.isRange {
			oc.Access(rc.a)
		}
	}
	oc.flush()
	for _, slab := range []int{0, 1} { // the default slab, then the floor
		var got frameLog
		w, _ := NewWriterSize(&got, slab)
		c := NewCompactor(w)
		var n uint64
		for _, rc := range recs {
			if !rc.isRange {
				c.Access(rc.a)
				n++
			}
		}
		if c.Count() != n {
			t.Fatalf("Compactor counts %d events, fed %d", c.Count(), n)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.all, oc.w.Bytes()) {
			t.Fatalf("slab %d: Compactor bytes differ from the oracle's (%d vs %d bytes)", slab, len(got.all), oc.w.Len())
		}
	}
}

// sameFrames requires AccessBatch to cut its Writes where the per-record
// encoder does: on a FrameWriter every Write is a frame on the wire.
func sameFrames(t *testing.T, name string, got, want *frameLog) {
	t.Helper()
	if !slices.Equal(got.ends, want.ends) {
		t.Fatalf("%s: AccessBatch's Writes end at %v, Access's at %v", name, got.ends, want.ends)
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

// TestHostileDDT2: what the grammar forbids is refused by name, by the oracle
// and by NextBatch through every shape (checkRow); and the one legal stream
// built to hurt — two hot sites on one slot — round-trips exactly, at a
// define per event, counted on both ends.
func TestHostileDDT2(t *testing.T) {
	recs := func(recs ...[]byte) []byte { return append([]byte(magic), bytes.Join(recs, nil)...) }
	data := func(slot uint) []byte { return []byte{byte(slot << 1), byte(slot >> 7), 0, 0} }
	for _, tc := range []struct {
		name string
		data []byte
		want string
	}{
		{"undefined-slot", recs(rawDefine(4, 0, 0), data(5)), "trace: event 0: undefined site slot 5"},
		{"data-slot-out-of-range", recs(data(siteSlots)), fmt.Sprintf("trace: event 0: site slot %d out of range", siteSlots)},
		{"define-slot-out-of-range", recs(rawDefine(0xffff, 0, 0)), "trace: event 0: site slot 65535 out of range"},
		{"define-kind-flush", recs(rawDefine(1, byte(event.Flush), 0)), "trace: event 0: invalid site kind 5"},
		{"define-kind-retired", recs(rawDefine(1, 3, 0)), "trace: event 0: invalid site kind 3"},
		{"define-flags", recs(rawDefine(1, 1, 0x04)), "trace: event 0: undefined flag bits 0x4"},
		{"stamp-cut", recs(rawDefine(1, 1, 0), data(1), []byte{recStamp, 0x80}), "trace: event 1 truncated: unexpected EOF"},
		{"stamp-overflow", recs([]byte{recStamp}, bytes.Repeat([]byte{0xff}, 10)), "trace: event 0 truncated: binary: varint overflows a 64-bit integer"},
		{"record-type", recs([]byte{11}), "trace: event 0: invalid record type 11"},
		// The retired control record, whatever kind it names.
		{"control-kind-data", recs(rawDefine(1, 1, 0), data(1), []byte{recRetired, byte(event.Write)}), retiredRecord(1)},
		{"control-kind-promote", recs([]byte{recRetired, 8}), retiredRecord(0)},
		// What a store slot cannot keep: a stamp past event.MaxTS, however
		// the delta gets there, and a thread past event.MaxThread, by a
		// stamp, define or range record.
		{"stamp-2^32", recs(rawStamp(1 << 32)), "trace: event 0: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"stamp-2^32-in-two", recs(rawStamp(event.MaxTS), rawDefine(1, 1, 0), data(1), rawStamp(1)),
			"trace: event 1: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"stamp-below-zero", recs(rawStamp(-1)), "trace: event 0: stamp 18446744073709551615 is past 4294967295, the widest a store slot keeps"},
		{"define-thread-512", recs(rawThreadDefine(1, event.MaxThread+1)), "trace: event 0: thread 512 is past 511, the widest a store slot keeps"},
		{"define-thread-negative", recs(rawThreadDefine(1, -1)), "trace: event 0: thread 4294967295 is past 511, the widest a store slot keeps"},
		{"range-stamp-2^32", recs(rawRange(byte(event.Write), 0x1000, 8, 2, 0, 1<<32, 0)), "trace: event 0: stamp 4294967296 is past 4294967295, the widest a store slot keeps"},
		{"range-thread-512", recs(rawRange(byte(event.Write), 0x1000, 8, 2, 0, 0, event.MaxThread+1)), "trace: event 0: thread 512 is past 511, the widest a store slot keeps"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := row(tc.name, tc.data)
			r.want = tc.want
			checkRow(t, r)
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
		r := row("thrash", buf.Bytes())
		r.input = points(evs)
		if r.defines, r.redefines = w.SiteDefines(); r.defines != 2*n || r.redefines != 2*n-1 {
			t.Errorf("Writer counts %d defines, %d redefines for %d alternating events on one slot", r.defines, r.redefines, 2*n)
		}
		checkRow(t, r) // the Reader counts the same
	})
}

// maximalRange is a range record with every field at its widest value.
func maximalRange() event.Range {
	return event.Range{
		Base: 1 << 63, Stride: 1, Count: 2, TS: 1 << 63, IterVec: ^uint64(0), IterDelta: ^uint64(0),
		Loc: ^loc.SourceLoc(0), Var: ^loc.VarID(0), CtxID: ^uint32(0), Thread: -1, Kind: event.Write,
	}
}

// frameLog is a frame destination that keeps the bytes of every Write and
// where each ended.
type frameLog struct {
	all  []byte
	ends []int
}

func (l *frameLog) Write(p []byte) (int, error) {
	l.all = append(l.all, p...)
	l.ends = append(l.ends, len(l.all))
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
		if n := widest.ends[0]; len(widest.ends) != 1 || n > tc.limit {
			t.Fatalf("size %d: the widest range took %d frames, the first %d bytes; want one, limit %d", tc.size, len(widest.ends), n, tc.limit)
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
		if !bytes.HasPrefix(log.all[:log.ends[0]], []byte(magic)) {
			t.Fatalf("size %d: first frame does not carry the magic", tc.size)
		}
		// Decode the frames one Reader over their concatenation, and require
		// the byte offset of every frame end to be a record boundary.
		all := log.all
		ends := make(map[int]bool)
		start := 0
		for i, end := range log.ends {
			if n := end - start; n == 0 || n > tc.limit {
				t.Fatalf("size %d: frame %d is %d bytes, limit %d", tc.size, i, n, tc.limit)
			}
			ends[end], start = true, end
		}
		src := bytes.NewReader(all)
		or, err := newOracleReader(src) // a byte at a time, so the read position is exact
		if err != nil {
			t.Fatal(err)
		}
		for {
			delete(ends, len(all)-src.Len())
			if _, _, err := or.step(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("size %d: %v", tc.size, err)
			}
		}
		if len(ends) != 0 {
			t.Fatalf("size %d: %d frames end inside a record", tc.size, len(ends))
		}
		if want := uint64(len(evs)) + 50*uint64(len(evs)/1000); or.n != want {
			t.Fatalf("size %d: decoded %d events, want %d", tc.size, or.n, want)
		}
		if tc.size == 0 && len(log.ends) < 10 {
			t.Fatalf("default slab: %d frames for %d bytes", len(log.ends), len(all))
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

	// An inexpressible range poisons the same way, and so does a kind that
	// is no access, by either hook: nothing is written from then on.
	ok := event.Access{Addr: 8, Kind: event.Write}
	for name, feed := range map[string]func(*Writer){
		"bad range":      func(w *Writer) { w.Range(event.Range{Base: 8, Stride: 8, Count: 1, Kind: event.Read}) },
		"Access(Flush)":  func(w *Writer) { w.Access(event.Access{Kind: event.Flush}) },
		"batched Flush":  func(w *Writer) { w.AccessBatch([]event.Access{ok, {Kind: event.Flush}, ok}, nil) },
		"retired kind 9": func(w *Writer) { w.Access(event.Access{Kind: 9}) },
	} {
		var buf bytes.Buffer
		w, _ := NewWriter(&buf)
		feed(w)
		w.Access(ok)
		err := w.Err()
		if err == nil || w.Close() != err || buf.Len() != 0 {
			t.Errorf("%s: Err %v, %d bytes written", name, err, buf.Len())
		} else if name != "bad range" && !strings.Contains(err.Error(), "is not an access") {
			t.Errorf("%s: Err %v, want the kind refused", name, err)
		}
	}
}

// TestEncodeAllocs pins the recording hooks at zero allocations per event,
// and the wire's batch paths at zero per batch or frame.
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
	if n := testing.AllocsPerRun(10000, func() {
		run.Addr += 8
		if run.Addr&0xff == 0 {
			run.Loc++
		}
		c.Access(run)
	}); n != 0 {
		t.Errorf("Compactor.Access on a compacting stream: %v allocs per event", n)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The wire's batch paths: a client's encoder, the daemon's decoder and
	// the framing between them.
	evs = recordedStream(t)
	batch := evs[:512]
	if n := testing.AllocsPerRun(1000, func() { w.AccessBatch(batch, nil) }); n != 0 {
		t.Errorf("Writer.AccessBatch: %v allocs per batch", n)
	}
	var stream bytes.Buffer
	sw, _ := NewWriter(&stream)
	sw.AccessBatch(evs, nil)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewReader(bytes.NewReader(stream.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ch := event.NewChunk()
	if n := testing.AllocsPerRun(100, func() {
		ch.Reset()
		if _, err := tr.NextBatch(ch); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Reader.NextBatch: %v allocs per batch", n)
	}
	frame := stream.Bytes()[:4096]
	for _, dst := range []struct {
		name string
		w    io.Writer
	}{{"plain writer", io.Discard}, {"vectored writer", vectorSink{}}} {
		fw := NewFrameWriter(dst.w)
		if n := testing.AllocsPerRun(1000, func() { fw.Write(frame) }); n != 0 {
			t.Errorf("FrameWriter.Write to a %s: %v allocs per frame", dst.name, n)
		}
	}
}

// vectorSink is a destination that takes a frame as one vectored write, as
// the ddprofd client's connection does.
type vectorSink struct{}

func (vectorSink) Write(p []byte) (int, error) { return len(p), nil }

func (vectorSink) WriteBuffers(v *net.Buffers) (int64, error) { return v.WriteTo(io.Discard) }

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
// costs nothing. The batch arms are fed as a session's encoder is, from
// event.Batcher's one reused buffer: each batch is copied into the same
// BatchSize slice, L1-hot, before AccessBatch sees it. ns/event is the figure
// to compare; bytes/event shows what the Compactor saves.
func BenchmarkEncode(b *testing.B) {
	evs := recordedStream(b)
	batch := make([]event.Access, event.BatchSize)
	hooks := []struct {
		name string
		mk   func(*Writer) (event.Hook, func() error)
	}{
		{"writer", func(w *Writer) (event.Hook, func() error) { return w, w.Close }},
		{"writer-batch", func(w *Writer) (event.Hook, func() error) { return batchFeed{w}, w.Close }},
		{"syncwriter-batch", func(w *Writer) (event.Hook, func() error) { s := NewSyncWriter(w); return batchFeed{s}, s.Close }},
		{"compactor", func(w *Writer) (event.Hook, func() error) { c := NewCompactor(w); return c, c.Close }},
	}
	for _, h := range hooks {
		b.Run(h.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink countWriter
			for i := 0; i < b.N; i++ {
				w, _ := NewWriter(&sink)
				hook, done := h.mk(w)
				if bf, ok := hook.(batchFeed); ok {
					for rest := evs; len(rest) > 0; {
						n := copy(batch, rest)
						bf.AccessBatch(batch[:n], nil)
						rest = rest[n:]
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

// BenchmarkDecode is the twin for the ledger's trace.decode row: NextBatch
// over the same stream as Writer.AccessBatch encodes it, chunks reused. The
// window arm reads the bare stream through a bufio layer of one default
// frame, as the ledger does; the framed arm reads what a ddprofd session
// does: the stream written through a FrameWriter at the client's default
// slab, read by NewReader(NewFrameReader(bufio)) with the session's 64 KiB
// buffer, so records are cut at frame edges and at bufio refills.
func BenchmarkDecode(b *testing.B) {
	evs := recordedStream(b)
	var bare, framed bytes.Buffer
	for _, dst := range []io.Writer{&bare, NewFrameWriter(&framed)} {
		w, _ := NewWriter(dst)
		w.AccessBatch(evs, nil)
		if err := w.Close(); err != nil {
			b.Fatal(err)
		}
	}
	framed.WriteByte(0) // the terminator frame
	for _, arm := range []struct {
		name string
		src  func() ByteScanner
	}{
		{"window", func() ByteScanner { return bufio.NewReaderSize(bytes.NewReader(bare.Bytes()), 1<<16) }},
		{"framed", func() ByteScanner {
			return NewFrameReader(bufio.NewReaderSize(bytes.NewReader(framed.Bytes()), 1<<16), 0)
		}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			c := event.NewChunk()
			for i := 0; i < b.N; i++ {
				tr, err := NewReader(arm.src())
				for err == nil {
					c.Reset()
					_, err = tr.NextBatch(c)
				}
				if err != io.EOF || tr.Count() != uint64(len(evs)) {
					b.Fatalf("decoded %d of %d events: %v", tr.Count(), len(evs), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(evs))), "ns/event")
		})
	}
}

// batchFeed marks a hook the benchmark feeds the way the executors do: through
// AccessBatch, event.BatchSize events at a time.
type batchFeed struct{ event.BatchHook }

type countWriter int64

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
