package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"

	"ddprof/internal/event"
	"ddprof/internal/loc"
)

// rawRange hand-encodes a range record so rejection tests can produce frames
// the Writer refuses to emit; it moves the stamp by ts, by thread.
func rawRange(elemKind byte, base, stride int64, count uint64, flags byte, ts int64, thread uint64) []byte {
	var out []byte
	var buf [binary.MaxVarintLen64]byte
	put := func(v uint64) { out = append(out, buf[:binary.PutUvarint(buf[:], v)]...) }
	zig := func(v int64) { put(uint64((v << 1) ^ (v >> 63))) }
	out = append(out, byte(event.RangeRef), elemKind)
	zig(base) // delta from prev.Addr == 0 at stream start
	zig(stride)
	put(count)
	zig(ts)
	for i := 0; i < 5; i++ {
		put(0) // Loc, Var, CtxID, IterVec, IterDelta
	}
	put(thread)
	return append(out, flags)
}

// TestRangeRecordRoundTrip: ranges between points — forward, backward and
// zero stride — decode field for field, counted as their elements.
func TestRangeRecordRoundTrip(t *testing.T) {
	runRows(t, input(t, "ranges", []wireRec{
		{a: event.Access{Addr: 0xff8, Kind: event.Write, Loc: loc.Pack(1, 9), TS: 6}},
		{r: event.Range{Base: 0x1000, Stride: 8, Count: 1000, TS: 7, IterVec: 3, IterDelta: 1,
			Loc: loc.Pack(1, 10), Var: 4, CtxID: 2, Thread: 1, Kind: event.Write, Flags: event.FlagReduction}, isRange: true},
		{r: event.Range{Base: 0x90000, Stride: ^uint64(0) - 7, Count: 500, Kind: event.Read, Loc: loc.Pack(1, 11)}, isRange: true}, // stride -8
		{r: event.Range{Base: 0x5000, Stride: 0, Count: 2, Kind: event.Read, Loc: loc.Pack(1, 12)}, isRange: true},
		{a: event.Access{Addr: 0x5008, Kind: event.Read, Loc: loc.Pack(1, 13)}},
	}))
}

// TestRangeRecordRejection: range records the Writer refuses to emit are
// refused by name, and every cut of a valid one inside the record is a
// truncation.
func TestRangeRecordRejection(t *testing.T) {
	var rows []decodeRow
	for _, tc := range []struct {
		name string
		rec  []byte
		want string
	}{
		{"count-1", rawRange(byte(event.Write), 0x1000, 8, 1, 0, 0, 0), "trace: event 0: range count 1 out of bounds"},
		{"count-huge", rawRange(byte(event.Write), 0x1000, 8, 1<<30, 0, 0, 0), "trace: event 0: range count 1073741824 out of bounds"},
		{"overflow-up", rawRange(byte(event.Write), -8, 1<<62, 16, 0, 0, 0), "trace: event 0: range 0xfffffffffffffff8 + 4611686018427387904*15 overflows the address space"},
		{"overflow-down", rawRange(byte(event.Write), 0x100, -256, 3, 0, 0, 0), "trace: event 0: range 0x100 + -256*2 overflows the address space"},
		{"bad-elem-kind", rawRange(byte(event.Remove), 0x1000, 8, 4, 0, 0, 0), "trace: event 0: invalid range element kind 2"},
		{"bad-flags", rawRange(byte(event.Read), 0x1000, 8, 4, 0x80, 0, 0), "trace: event 0: undefined flag bits 0x80"},
	} {
		r := row(tc.name, append([]byte(magic), tc.rec...))
		r.want = tc.want
		rows = append(rows, r)
	}
	full := append([]byte(magic), rawRange(byte(event.Write), 0x1000, 8, 64, 0, 0, 0)...)
	for _, r := range cuts(full, span(len(magic)+1, len(full), 1)...) {
		r.want = "trace: event 0 truncated: unexpected EOF"
		rows = append(rows, r)
	}
	runRows(t, rows...)
}

func TestCompactorExactReplay(t *testing.T) {
	// A stream with long strided runs, an interleaved section that must NOT
	// compress (order preservation), dup reads, a remove, and an MT-style
	// section with distinct timestamps.
	var evs []event.Access
	for i := 0; i < 2000; i++ {
		evs = append(evs, event.Access{Addr: 0x1000 + uint64(i)*8, Kind: event.Write,
			Loc: loc.Pack(1, 10), Var: 1, CtxID: 3, IterVec: uint64(i)})
	}
	for i := 0; i < 500; i++ {
		evs = append(evs,
			event.Access{Addr: 0x20000 + uint64(i)*8, Kind: event.Read, Loc: loc.Pack(1, 20), IterVec: uint64(i)},
			event.Access{Addr: 0x40000 + uint64(i)*8, Kind: event.Write, Loc: loc.Pack(1, 21), IterVec: uint64(i)},
		)
	}
	evs = append(evs, event.Access{Addr: 0x1000, Kind: event.Remove})
	for i := 0; i < 100; i++ {
		evs = append(evs, event.Access{Addr: 0x60000 + uint64(i)*8, Kind: event.Write,
			Loc: loc.Pack(2, 5), TS: uint64(i + 1), Thread: int32(i % 2)})
	}

	var plain, comp bytes.Buffer
	pw, _ := NewWriter(&plain)
	for _, a := range evs {
		pw.Access(a)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	cw, _ := NewWriter(&comp)
	c := NewCompactor(cw)
	for _, a := range evs {
		c.Access(a)
	}
	if c.Count() != uint64(len(evs)) {
		t.Fatalf("compactor count %d, want %d", c.Count(), len(evs))
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	// The interleaved and MT sections stay point-encoded, so the whole-stream
	// ratio is bounded by them; the 2000-event strided prefix alone collapses
	// to a handful of records.
	if comp.Len() >= plain.Len()/2 {
		t.Errorf("compacted trace %d bytes vs plain %d: expected >2x shrink", comp.Len(), plain.Len())
	}
	d := batchDecode(bytes.NewReader(comp.Bytes()))
	if d.err != io.EOF {
		t.Fatal(d.err)
	}
	got := d.events()
	if len(got) != len(evs) {
		t.Fatalf("replayed %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], evs[i])
		}
	}

	// The interleaved section must have stayed point-encoded: count its
	// records. Two alternating instructions can never extend one run.
	var nRanges, nPoints int
	for _, rec := range d.recs {
		if rec.isRange {
			nRanges++
		} else {
			nPoints++
		}
	}
	if nRanges == 0 {
		t.Error("no range records: compactor never compressed")
	}
	if nPoints < 1000+1+100 {
		t.Errorf("only %d point records: the interleaved/MT sections must stay points", nPoints)
	}
}
